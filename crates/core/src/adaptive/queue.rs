//! The unrefinement threshold queue (paper §5.2 step 4).
//!
//! Every internal refinement-tree node carries a perimeter threshold
//! `Thresh(e) = r·ℓ̃(e)/(1 + d(e))`: once the uniform-hull perimeter `P`
//! grows past it, the node's sample weight has dropped to `w(e) <= 1` and it
//! should be unrefined. [`HeapQueue`] holds exactly one entry per queued
//! node, carrying its current threshold: [`push`](HeapQueue::push) on a
//! queued node replaces its threshold, [`remove`](HeapQueue::remove) drops
//! the entry of a node that is retired, and
//! [`pop_due`](HeapQueue::pop_due) takes the entries at or below the
//! current `P`. The queue's length is therefore the number of internal
//! nodes, `O(r)`, however long the stream, and each operation costs
//! `O(log r)`: the paper's `PriQ(r)`. It keeps exact thresholds, so a node
//! unrefines exactly when its weight reaches 1 (§5.3's power-of-two
//! buckets would unrefine up to a factor 2 early).
//!
//! A node is a `u32` id, and the queue finds its entry through a `u32` tag
//! the caller stores per id ([`Tags`]), which the queue keeps equal to the
//! entry's index (an unqueued node's tag is [`UNTAGGED`]). The adaptive
//! hull names each internal node by the leaf record at its bisector and
//! keeps the tag in that record's padding, so the index costs no memory
//! and no allocation.

/// Tag of a node without a queue entry.
pub(crate) const UNTAGGED: u32 = u32::MAX;

/// Per-node tag storage a queue keeps its entry indices in.
pub(crate) trait Tags {
    /// The tag of node `id` ([`UNTAGGED`] until a queue sets it).
    fn tag(&self, id: u32) -> u32;

    /// Sets the tag of node `id`.
    fn set_tag(&mut self, id: u32, tag: u32);
}

/// Heap entry.
#[derive(Debug, Clone, Copy)]
struct Entry {
    threshold: f64,
    id: u32,
}

impl Entry {
    /// Heap order: the smaller threshold first. `total_cmp` keeps the heap
    /// invariant even if a non-finite threshold ever slips in (it sorts
    /// NaN to an extreme instead of panicking).
    fn before(&self, other: &Entry) -> bool {
        self.threshold.total_cmp(&other.threshold).is_lt()
    }
}

/// Indexed binary-heap threshold queue (`PriQ(r) = O(log r)`).
#[derive(Debug, Default, Clone)]
pub(crate) struct HeapQueue {
    heap: Vec<Entry>,
}

impl HeapQueue {
    /// Creates an empty queue.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Writes `e` at index `i` and points its node's tag there.
    fn place<T: Tags>(&mut self, i: usize, e: Entry, tags: &mut T) {
        self.heap[i] = e;
        tags.set_tag(e.id, i as u32);
    }

    /// Moves the entry at `i` up or down to its heap position.
    fn sift<T: Tags>(&mut self, mut i: usize, tags: &mut T) {
        let e = self.heap[i];
        while i > 0 {
            let parent = (i - 1) / 2;
            if !e.before(&self.heap[parent]) {
                break;
            }
            self.place(i, self.heap[parent], tags);
            i = parent;
        }
        loop {
            let left = 2 * i + 1;
            if left >= self.heap.len() {
                break;
            }
            let right = left + 1;
            let child = if right < self.heap.len() && self.heap[right].before(&self.heap[left]) {
                right
            } else {
                left
            };
            if !self.heap[child].before(&e) {
                break;
            }
            self.place(i, self.heap[child], tags);
            i = child;
        }
        self.place(i, e, tags);
    }

    /// Removes the entry at `i`, untagging its node.
    fn take<T: Tags>(&mut self, i: usize, tags: &mut T) -> Entry {
        let e = self.heap.swap_remove(i);
        tags.set_tag(e.id, UNTAGGED);
        if i < self.heap.len() {
            self.sift(i, tags);
        }
        e
    }

    /// Queues `id` with `threshold`, replacing its entry if it has one.
    pub(crate) fn push<T: Tags>(&mut self, threshold: f64, id: u32, tags: &mut T) {
        let e = Entry { threshold, id };
        let i = match tags.tag(id) {
            UNTAGGED => {
                self.heap.push(e);
                self.heap.len() - 1
            }
            at => {
                self.heap[at as usize] = e;
                at as usize
            }
        };
        self.sift(i, tags);
    }

    /// Drops `id`'s entry, if it has one.
    pub(crate) fn remove<T: Tags>(&mut self, id: u32, tags: &mut T) {
        let at = tags.tag(id);
        if at != UNTAGGED {
            self.take(at as usize, tags);
        }
    }

    /// Pops one entry whose threshold is `<= p`, if any, as
    /// `(threshold, id)`.
    pub(crate) fn pop_due<T: Tags>(&mut self, p: f64, tags: &mut T) -> Option<(f64, u32)> {
        if self.heap.first()?.threshold <= p {
            let e = self.take(0, tags);
            Some((e.threshold, e.id))
        } else {
            None
        }
    }

    /// The threshold of `id`'s entry (`None` if it has none).
    pub(crate) fn key<T: Tags>(&self, id: u32, tags: &T) -> Option<f64> {
        let e = self.heap.get(tags.tag(id) as usize)?;
        (e.id == id).then_some(e.threshold)
    }

    /// Number of queued entries.
    pub(crate) fn len(&self) -> usize {
        self.heap.len()
    }
}

#[cfg(test)]
impl HeapQueue {
    /// Heap bytes the queue reserves.
    pub(crate) fn reserved_bytes(&self) -> usize {
        self.heap.capacity() * size_of::<Entry>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A plain tag per node id, as a test double for the leaf records.
    impl Tags for Vec<u32> {
        fn tag(&self, id: u32) -> u32 {
            self[id as usize]
        }

        fn set_tag(&mut self, id: u32, tag: u32) {
            self[id as usize] = tag;
        }
    }

    /// Tags for `n` nodes, none queued, and their ids.
    fn ids(n: usize) -> (Vec<u32>, Vec<u32>) {
        (vec![UNTAGGED; n], (0..n as u32).collect())
    }

    fn drain(q: &mut HeapQueue, p: f64, a: &mut Vec<u32>) -> Vec<u32> {
        let mut out = Vec::new();
        while let Some((_, id)) = q.pop_due(p, a) {
            out.push(id);
        }
        out
    }

    #[test]
    fn heap_pops_in_threshold_order() {
        let (mut a, ids) = ids(3);
        let mut q = HeapQueue::new();
        q.push(5.0, ids[0], &mut a);
        q.push(1.0, ids[1], &mut a);
        q.push(3.0, ids[2], &mut a);
        assert_eq!(
            q.pop_due(0.5, &mut a),
            None,
            "nothing due below the minimum"
        );
        assert_eq!(q.pop_due(4.0, &mut a).map(|(t, _)| t), Some(1.0));
        assert_eq!(q.pop_due(4.0, &mut a).map(|(t, _)| t), Some(3.0));
        assert_eq!(q.pop_due(4.0, &mut a), None, "5.0 not yet due");
        assert_eq!(q.pop_due(5.0, &mut a).map(|(t, _)| t), Some(5.0));
        assert_eq!(q.len(), 0);
    }

    #[test]
    fn heap_handles_duplicate_thresholds() {
        let (mut a, ids) = ids(3);
        let mut q = HeapQueue::new();
        for &id in &ids {
            q.push(2.0, id, &mut a);
        }
        assert_eq!(drain(&mut q, 2.0, &mut a).len(), 3);
    }

    #[test]
    fn a_push_on_a_queued_node_replaces_its_threshold() {
        let (mut a, ids) = ids(1);
        let mut heap = HeapQueue::new();
        for t in [1.0, 9.0, 3.0, 40.0] {
            heap.push(t, ids[0], &mut a);
            assert_eq!(heap.len(), 1);
            assert_eq!(heap.key(ids[0], &a), Some(t));
        }
        assert_eq!(
            heap.pop_due(39.0, &mut a),
            None,
            "only the last threshold counts"
        );
        assert_eq!(drain(&mut heap, 40.0, &mut a), [ids[0]]);
        assert_eq!(a.tag(ids[0]), UNTAGGED);
    }

    /// A small deterministic generator for the model tests.
    struct Lcg(u64);

    impl Lcg {
        fn below(&mut self, n: u64) -> u64 {
            self.0 = self
                .0
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (self.0 >> 33) % n
        }
    }

    /// Random push/replace/remove/pop sequences against a reference model
    /// (one threshold per node in a plain map): after every operation the
    /// queue holds exactly the model's nodes, each once, under its
    /// threshold, and a drain at any `p` pops exactly the model's due nodes.
    #[test]
    fn heap_matches_the_reference_model() {
        // Thresholds on a coarse grid, so equal thresholds occur, with
        // zero in the mix.
        let threshold = |rng: &mut Lcg| rng.below(64) as f64 * 0.375;
        for seed in 0..200u64 {
            let mut rng = Lcg(seed);
            let (mut tags, ids) = ids(1 + rng.below(40) as usize);
            let mut q = HeapQueue::new();
            let mut model: Vec<Option<f64>> = vec![None; ids.len()];
            for step in 0..300 {
                let k = rng.below(ids.len() as u64) as usize;
                match rng.below(8) {
                    0..=3 => {
                        let t = threshold(&mut rng);
                        q.push(t, ids[k], &mut tags);
                        model[k] = Some(t);
                    }
                    4 | 5 => {
                        q.remove(ids[k], &mut tags);
                        model[k] = None;
                    }
                    6 => {
                        let p = threshold(&mut rng);
                        if let Some((got, id)) = q.pop_due(p, &mut tags) {
                            let i = ids.iter().position(|&x| x == id).unwrap();
                            let t = model[i].take().expect("popped an unqueued node");
                            assert_eq!(
                                got.to_bits(),
                                t.to_bits(),
                                "seed {seed} step {step}: popped threshold"
                            );
                            assert!(got <= p, "seed {seed} step {step}: popped early");
                        } else {
                            assert!(
                                model.iter().flatten().all(|&t| t > p),
                                "seed {seed} step {step}: a due entry did not pop"
                            );
                        }
                    }
                    _ => {
                        // Drain a copy: it pops exactly the due nodes.
                        let p = threshold(&mut rng);
                        let (mut copy, mut scratch) = (q.clone(), tags.clone());
                        let mut popped = drain(&mut copy, p, &mut scratch);
                        let mut due: Vec<u32> = (0..ids.len())
                            .filter(|&i| model[i].is_some_and(|t| t <= p))
                            .map(|i| ids[i])
                            .collect();
                        popped.sort_unstable();
                        due.sort_unstable();
                        assert_eq!(popped, due, "seed {seed} step {step}: drain at {p}");
                    }
                }
                assert_eq!(
                    q.len(),
                    model.iter().flatten().count(),
                    "seed {seed} step {step}: one entry per queued node"
                );
                for (i, &id) in ids.iter().enumerate() {
                    assert_eq!(
                        q.key(id, &tags),
                        model[i],
                        "seed {seed} step {step}: node {i}'s threshold"
                    );
                }
            }
        }
    }
}
