//! Unrefinement threshold queues (paper §5.2 step 4 and §5.3).
//!
//! Every internal refinement-tree node carries a perimeter threshold
//! `Thresh(e) = r·ℓ̃(e)/(1 + d(e))`: once the uniform-hull perimeter `P`
//! grows past it, the node's sample weight has dropped to `w(e) <= 1` and it
//! should be unrefined. A queue holds exactly one entry per queued node,
//! carrying its current threshold: [`push`](UnrefineQueue::push) on a
//! queued node replaces its threshold, [`remove`](UnrefineQueue::remove)
//! drops the entry of a node that is retired, and
//! [`pop_due`](UnrefineQueue::pop_due) takes the entries at or below the
//! current `P`. The queue's length is therefore the number of internal
//! nodes, `O(r)`, however long the stream.
//!
//! A node is a `u32` id, and a queue finds its entry through a `u32` tag
//! the caller stores per id ([`Tags`]), which the queue keeps equal to the
//! entry's index (an unqueued node's tag is [`UNTAGGED`]). The adaptive
//! hull names each internal node by the leaf record at its bisector and
//! keeps the tag in that record's padding, so the index costs no memory
//! and no allocation.
//!
//! Two implementations, compared by the `queue_ablation` bench:
//!
//! * [`HeapQueue`] — an indexed binary min-heap, `O(log n)` per operation;
//! * [`BucketQueue`] — Matias' power-of-two bucketing: thresholds are
//!   rounded down to `2^⌊log2⌋`, so a replacement within a bucket is free
//!   and a due entry pops in `O(1)`, at the cost of unrefining slightly
//!   early (the error stays `O(D/r²)`, §5.3). Any other push, replace or
//!   remove moves one entry per bucket boundary it crosses, `O(B)` for
//!   `B` live buckets.

/// Tag of a node without a queue entry.
pub(crate) const UNTAGGED: u32 = u32::MAX;

/// Per-node tag storage a queue keeps its entry indices in.
pub(crate) trait Tags {
    /// The tag of node `id` ([`UNTAGGED`] until a queue sets it).
    fn tag(&self, id: u32) -> u32;

    /// Sets the tag of node `id`.
    fn set_tag(&mut self, id: u32, tag: u32);
}

/// Common interface of the unrefinement queues. Each method takes the
/// tags of the queued nodes, which the queue maintains.
pub(crate) trait UnrefineQueue {
    /// Queues `id` with `threshold`, replacing its entry if it has one.
    fn push<T: Tags + ?Sized>(&mut self, threshold: f64, id: u32, tags: &mut T);

    /// Drops `id`'s entry, if it has one.
    fn remove<T: Tags + ?Sized>(&mut self, id: u32, tags: &mut T);

    /// Pops one entry whose due key is `<= p`, if any, as `(key, id)`.
    fn pop_due<T: Tags + ?Sized>(&mut self, p: f64, tags: &mut T) -> Option<(f64, u32)>;

    /// The due key of `id`'s entry (`None` if it has none).
    fn key<T: Tags + ?Sized>(&self, id: u32, tags: &T) -> Option<f64>;

    /// The key under which an entry with `threshold` comes due: the
    /// threshold itself, or the floor of its bucket.
    fn due_key(threshold: f64) -> f64;

    /// Number of queued entries.
    fn len(&self) -> usize;
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
    fn place<T: Tags + ?Sized>(&mut self, i: usize, e: Entry, tags: &mut T) {
        self.heap[i] = e;
        tags.set_tag(e.id, i as u32);
    }

    /// Moves the entry at `i` up or down to its heap position.
    fn sift<T: Tags + ?Sized>(&mut self, mut i: usize, tags: &mut T) {
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
    fn take<T: Tags + ?Sized>(&mut self, i: usize, tags: &mut T) -> Entry {
        let e = self.heap.swap_remove(i);
        tags.set_tag(e.id, UNTAGGED);
        if i < self.heap.len() {
            self.sift(i, tags);
        }
        e
    }
}

impl UnrefineQueue for HeapQueue {
    fn push<T: Tags + ?Sized>(&mut self, threshold: f64, id: u32, tags: &mut T) {
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

    fn remove<T: Tags + ?Sized>(&mut self, id: u32, tags: &mut T) {
        let at = tags.tag(id);
        if at != UNTAGGED {
            self.take(at as usize, tags);
        }
    }

    fn pop_due<T: Tags + ?Sized>(&mut self, p: f64, tags: &mut T) -> Option<(f64, u32)> {
        if self.heap.first()?.threshold <= p {
            let e = self.take(0, tags);
            Some((e.threshold, e.id))
        } else {
            None
        }
    }

    fn key<T: Tags + ?Sized>(&self, id: u32, tags: &T) -> Option<f64> {
        let e = self.heap.get(tags.tag(id) as usize)?;
        (e.id == id).then_some(e.threshold)
    }

    fn due_key(threshold: f64) -> f64 {
        threshold
    }

    fn len(&self) -> usize {
        self.heap.len()
    }
}

/// Power-of-two bucket queue (§5.3).
///
/// Thresholds are bucketed by binary exponent (`f64::log2` floor). A node
/// in bucket `e` becomes due when `P >= 2^e`, which is at most a factor 2
/// earlier than its exact threshold — the "unrefine slightly too early"
/// relaxation the paper proves harmless.
///
/// The entries sit in one vector, grouped by bucket from the highest
/// exponent down, and a short list records where each live bucket starts.
/// The first bucket to come due ends the vector, so a due entry pops off
/// its end in `O(1)`, and a replacement within its bucket is `O(1)` too.
/// Adding an entry, moving it to another bucket or removing it passes one
/// entry across each bucket boundary between its place and the end:
/// `O(B)` for `B` live buckets, the number of distinct threshold exponents
/// queued, rather than the paper's `O(1)`.
#[derive(Debug, Default, Clone)]
pub(crate) struct BucketQueue {
    /// Queued nodes, grouped by bucket from the highest exponent down.
    entries: Vec<u32>,
    /// `(exponent, index of its first entry)` of every non-empty bucket,
    /// in the order of `entries`.
    buckets: Vec<(i16, u32)>,
}

impl BucketQueue {
    /// Creates an empty queue.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    fn exponent(threshold: f64) -> i16 {
        debug_assert!(threshold.is_finite());
        if threshold <= 0.0 {
            return i16::MIN;
        }
        // floor(log2(threshold)): IEEE exponent of the rounded-down power.
        threshold.log2().floor() as i16
    }

    /// The due key of bucket `e`: bucket `e` holds thresholds in
    /// `[2^e, 2^(e+1))`, due once `P >= 2^e`.
    fn floor(e: i16) -> f64 {
        if e == i16::MIN {
            0.0
        } else {
            (e as f64).exp2()
        }
    }

    /// Position in `buckets` of the bucket holding entry `i`.
    fn bucket_of(&self, i: usize) -> usize {
        self.buckets
            .partition_point(|&(_, first)| first as usize <= i)
            - 1
    }

    /// One past the last entry of bucket `k`.
    fn end(&self, k: usize) -> usize {
        self.buckets
            .get(k + 1)
            .map_or(self.entries.len(), |&(_, first)| first as usize)
    }

    /// Writes `id` at index `i` and points its tag there.
    fn place<T: Tags + ?Sized>(&mut self, i: usize, id: u32, tags: &mut T) {
        self.entries[i] = id;
        tags.set_tag(id, i as u32);
    }

    /// Closes the hole an entry leaving bucket `k` makes at `hole`: each
    /// bucket from `k` to the end passes its last entry into the hole, and
    /// every later bucket starts one slot earlier.
    fn close<T: Tags + ?Sized>(&mut self, mut hole: usize, k: usize, tags: &mut T) {
        for j in k..self.buckets.len() {
            if j > k {
                self.buckets[j].1 -= 1;
            }
            let last = self.end(j) - 1;
            if last != hole {
                self.place(hole, self.entries[last], tags);
            }
            hole = last;
        }
        self.entries.pop();
        if self.end(k) == self.buckets[k].1 as usize {
            self.buckets.remove(k);
        }
    }
}

impl UnrefineQueue for BucketQueue {
    fn push<T: Tags + ?Sized>(&mut self, threshold: f64, id: u32, tags: &mut T) {
        let e = Self::exponent(threshold);
        let at = tags.tag(id);
        if at != UNTAGGED {
            let k = self.bucket_of(at as usize);
            if self.buckets[k].0 == e {
                return;
            }
            self.close(at as usize, k, tags);
        }
        let k = self.buckets.partition_point(|&(x, _)| x > e);
        if self.buckets.get(k).is_none_or(|&(x, _)| x != e) {
            // A new, empty bucket `e` where the next lower one starts.
            let first = self
                .buckets
                .get(k)
                .map_or(self.entries.len(), |b| b.1 as usize);
            self.buckets.insert(k, (e, first as u32));
        }
        // Open a hole at the end; each lower bucket passes its first entry
        // to the hole after its last and starts one slot later, until the
        // hole ends bucket `e`.
        let mut hole = self.entries.len();
        self.entries.push(id);
        for j in (k + 1..self.buckets.len()).rev() {
            let first = self.buckets[j].1 as usize;
            if first != hole {
                self.place(hole, self.entries[first], tags);
            }
            self.buckets[j].1 += 1;
            hole = first;
        }
        self.place(hole, id, tags);
    }

    fn remove<T: Tags + ?Sized>(&mut self, id: u32, tags: &mut T) {
        let at = tags.tag(id);
        if at != UNTAGGED {
            tags.set_tag(id, UNTAGGED);
            self.close(at as usize, self.bucket_of(at as usize), tags);
        }
    }

    fn pop_due<T: Tags + ?Sized>(&mut self, p: f64, tags: &mut T) -> Option<(f64, u32)> {
        let &(e, first) = self.buckets.last()?;
        let floor = Self::floor(e);
        if p < floor {
            return None;
        }
        let id = self.entries.pop()?;
        if first as usize == self.entries.len() {
            self.buckets.pop();
        }
        tags.set_tag(id, UNTAGGED);
        Some((floor, id))
    }

    fn key<T: Tags + ?Sized>(&self, id: u32, tags: &T) -> Option<f64> {
        let at = tags.tag(id) as usize;
        (self.entries.get(at) == Some(&id)).then(|| Self::floor(self.buckets[self.bucket_of(at)].0))
    }

    fn due_key(threshold: f64) -> f64 {
        Self::floor(Self::exponent(threshold))
    }

    fn len(&self) -> usize {
        self.entries.len()
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
impl BucketQueue {
    /// Heap bytes the queue reserves.
    pub(crate) fn reserved_bytes(&self) -> usize {
        self.entries.capacity() * size_of::<u32>()
            + self.buckets.capacity() * size_of::<(i16, u32)>()
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

    fn drain(q: &mut impl UnrefineQueue, p: f64, a: &mut Vec<u32>) -> Vec<u32> {
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
    fn bucket_pops_everything_due_possibly_early() {
        let (mut a, ids) = ids(4);
        let mut q = BucketQueue::new();
        q.push(5.0, ids[0], &mut a); // bucket 2 -> due at P >= 4
        q.push(1.5, ids[1], &mut a); // bucket 0 -> due at P >= 1
        q.push(3.0, ids[2], &mut a); // bucket 1 -> due at P >= 2
        q.push(100.0, ids[3], &mut a); // bucket 6 -> due at P >= 64
        assert_eq!(q.len(), 4);
        let popped = drain(&mut q, 4.0, &mut a);
        // Everything with true threshold <= 4 must pop; 5.0 may pop early
        // (bucket floor 4 <= 4); 100.0 must not.
        assert!(popped.contains(&ids[1]));
        assert!(popped.contains(&ids[2]));
        assert!(
            popped.contains(&ids[0]),
            "5.0 pops early at P = 4 (factor-2 rule)"
        );
        assert!(!popped.contains(&ids[3]));
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn bucket_never_pops_more_than_factor_two_early() {
        let (mut a, ids) = ids(1);
        let mut q = BucketQueue::new();
        q.push(7.9, ids[0], &mut a); // bucket 2, floor 4.0
        assert_eq!(
            q.pop_due(3.9, &mut a),
            None,
            "below half the threshold: never due"
        );
        assert!(q.pop_due(4.0, &mut a).is_some());
    }

    #[test]
    fn zero_and_tiny_thresholds() {
        let (mut a, ids) = ids(2);
        let mut q = BucketQueue::new();
        q.push(0.0, ids[0], &mut a);
        q.push(1e-300, ids[1], &mut a);
        assert!(
            q.pop_due(0.0, &mut a).is_some(),
            "zero threshold immediately due"
        );
        assert!(q.pop_due(1e-299, &mut a).is_some());
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
        let (mut a, ids) = ids(2);
        let mut heap = HeapQueue::new();
        let mut bucket = BucketQueue::new();
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
        for t in [1.0, 9.0, 3.0, 40.0] {
            bucket.push(t, ids[1], &mut a);
            assert_eq!(bucket.len(), 1);
        }
        assert_eq!(bucket.key(ids[1], &a), Some(32.0));
        assert_eq!(bucket.pop_due(31.0, &mut a), None);
        assert_eq!(drain(&mut bucket, 32.0, &mut a), [ids[1]]);
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
    /// queue holds exactly the model's nodes, each once, under its key,
    /// and a drain at any `p` pops exactly the model's due nodes.
    fn check_against_model<Q: UnrefineQueue + Clone>(new: impl Fn() -> Q) {
        let key = Q::due_key;
        // Thresholds on a coarse grid, so equal thresholds and equal
        // buckets both occur, with zero in the mix.
        let threshold = |rng: &mut Lcg| rng.below(64) as f64 * 0.375;
        for seed in 0..200u64 {
            let mut rng = Lcg(seed);
            let (mut tags, ids) = ids(1 + rng.below(40) as usize);
            let mut q = new();
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
                                key(t).to_bits(),
                                "seed {seed} step {step}: popped key"
                            );
                            assert!(got <= p, "seed {seed} step {step}: popped early");
                        } else {
                            assert!(
                                model.iter().flatten().all(|&t| key(t) > p),
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
                            .filter(|&i| model[i].is_some_and(|t| key(t) <= p))
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
                        model[i].map(key),
                        "seed {seed} step {step}: node {i}'s key"
                    );
                }
            }
        }
    }

    #[test]
    fn heap_matches_the_reference_model() {
        check_against_model(HeapQueue::new);
    }

    #[test]
    fn bucket_matches_the_reference_model() {
        check_against_model(BucketQueue::new);
    }
}
