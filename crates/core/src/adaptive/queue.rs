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
//! A queue finds a node's entry through a crate-private `u32` tag in the
//! node's arena slot, which it keeps equal to the entry's index (an
//! unqueued node's tag is `UNTAGGED`). The tag lives in the padding of the
//! arena slot, so the index costs no memory and no allocation.
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

use crate::adaptive::arena::{Arena, NodeId, UNTAGGED};

/// Common interface of the unrefinement queues. Each method takes the
/// arena that holds the queued nodes, whose tags the queue maintains.
pub trait UnrefineQueue {
    /// Queues `id` with `threshold`, replacing its entry if it has one.
    fn push<T>(&mut self, threshold: f64, id: NodeId, arena: &mut Arena<T>);

    /// Drops `id`'s entry, if it has one.
    fn remove<T>(&mut self, id: NodeId, arena: &mut Arena<T>);

    /// Pops one entry whose due key is `<= p`, if any, as `(key, id)`.
    fn pop_due<T>(&mut self, p: f64, arena: &mut Arena<T>) -> Option<(f64, NodeId)>;

    /// The due key of `id`'s entry (`None` if it has none).
    fn key<T>(&self, id: NodeId, arena: &Arena<T>) -> Option<f64>;

    /// The key under which an entry with `threshold` comes due: the
    /// threshold itself, or the floor of its bucket.
    fn due_key(threshold: f64) -> f64;

    /// Number of queued entries.
    fn len(&self) -> usize;

    /// `true` iff no entries are queued.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Heap entry.
#[derive(Debug, Clone, Copy)]
struct Entry {
    threshold: f64,
    id: NodeId,
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
pub struct HeapQueue {
    heap: Vec<Entry>,
}

impl HeapQueue {
    /// Creates an empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Writes `e` at index `i` and points its node's tag there.
    fn place<T>(&mut self, i: usize, e: Entry, arena: &mut Arena<T>) {
        self.heap[i] = e;
        arena.set_tag(e.id, i as u32);
    }

    /// Moves the entry at `i` up or down to its heap position.
    fn sift<T>(&mut self, mut i: usize, arena: &mut Arena<T>) {
        let e = self.heap[i];
        while i > 0 {
            let parent = (i - 1) / 2;
            if !e.before(&self.heap[parent]) {
                break;
            }
            self.place(i, self.heap[parent], arena);
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
            self.place(i, self.heap[child], arena);
            i = child;
        }
        self.place(i, e, arena);
    }

    /// Removes the entry at `i`, untagging its node.
    fn take<T>(&mut self, i: usize, arena: &mut Arena<T>) -> Entry {
        let e = self.heap.swap_remove(i);
        arena.set_tag(e.id, UNTAGGED);
        if i < self.heap.len() {
            self.sift(i, arena);
        }
        e
    }
}

impl UnrefineQueue for HeapQueue {
    fn push<T>(&mut self, threshold: f64, id: NodeId, arena: &mut Arena<T>) {
        let e = Entry { threshold, id };
        let i = match arena.tag(id) {
            UNTAGGED => {
                self.heap.push(e);
                self.heap.len() - 1
            }
            at => {
                self.heap[at as usize] = e;
                at as usize
            }
        };
        self.sift(i, arena);
    }

    fn remove<T>(&mut self, id: NodeId, arena: &mut Arena<T>) {
        let at = arena.tag(id);
        if at != UNTAGGED {
            self.take(at as usize, arena);
        }
    }

    fn pop_due<T>(&mut self, p: f64, arena: &mut Arena<T>) -> Option<(f64, NodeId)> {
        if self.heap.first()?.threshold <= p {
            let e = self.take(0, arena);
            Some((e.threshold, e.id))
        } else {
            None
        }
    }

    fn key<T>(&self, id: NodeId, arena: &Arena<T>) -> Option<f64> {
        let e = self.heap.get(arena.tag(id) as usize)?;
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
pub struct BucketQueue {
    /// Queued nodes, grouped by bucket from the highest exponent down.
    entries: Vec<NodeId>,
    /// `(exponent, index of its first entry)` of every non-empty bucket,
    /// in the order of `entries`.
    buckets: Vec<(i16, u32)>,
}

impl BucketQueue {
    /// Creates an empty queue.
    pub fn new() -> Self {
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
    fn place<T>(&mut self, i: usize, id: NodeId, arena: &mut Arena<T>) {
        self.entries[i] = id;
        arena.set_tag(id, i as u32);
    }

    /// Closes the hole an entry leaving bucket `k` makes at `hole`: each
    /// bucket from `k` to the end passes its last entry into the hole, and
    /// every later bucket starts one slot earlier.
    fn close<T>(&mut self, mut hole: usize, k: usize, arena: &mut Arena<T>) {
        for j in k..self.buckets.len() {
            if j > k {
                self.buckets[j].1 -= 1;
            }
            let last = self.end(j) - 1;
            if last != hole {
                self.place(hole, self.entries[last], arena);
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
    fn push<T>(&mut self, threshold: f64, id: NodeId, arena: &mut Arena<T>) {
        let e = Self::exponent(threshold);
        let at = arena.tag(id);
        if at != UNTAGGED {
            let k = self.bucket_of(at as usize);
            if self.buckets[k].0 == e {
                return;
            }
            self.close(at as usize, k, arena);
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
                self.place(hole, self.entries[first], arena);
            }
            self.buckets[j].1 += 1;
            hole = first;
        }
        self.place(hole, id, arena);
    }

    fn remove<T>(&mut self, id: NodeId, arena: &mut Arena<T>) {
        let at = arena.tag(id);
        if at != UNTAGGED {
            arena.set_tag(id, UNTAGGED);
            self.close(at as usize, self.bucket_of(at as usize), arena);
        }
    }

    fn pop_due<T>(&mut self, p: f64, arena: &mut Arena<T>) -> Option<(f64, NodeId)> {
        let &(e, first) = self.buckets.last()?;
        let floor = Self::floor(e);
        if p < floor {
            return None;
        }
        let id = self.entries.pop()?;
        if first as usize == self.entries.len() {
            self.buckets.pop();
        }
        arena.set_tag(id, UNTAGGED);
        Some((floor, id))
    }

    fn key<T>(&self, id: NodeId, arena: &Arena<T>) -> Option<f64> {
        let at = arena.tag(id) as usize;
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
mod tests {
    use super::*;

    fn ids(a: &mut Arena<usize>, n: usize) -> Vec<NodeId> {
        (0..n).map(|i| a.insert(i)).collect()
    }

    fn drain(q: &mut impl UnrefineQueue, p: f64, a: &mut Arena<usize>) -> Vec<NodeId> {
        let mut out = Vec::new();
        while let Some((_, id)) = q.pop_due(p, a) {
            out.push(id);
        }
        out
    }

    #[test]
    fn heap_pops_in_threshold_order() {
        let mut a = Arena::new();
        let ids = ids(&mut a, 3);
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
        assert!(q.is_empty());
    }

    #[test]
    fn bucket_pops_everything_due_possibly_early() {
        let mut a = Arena::new();
        let ids = ids(&mut a, 4);
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
        let mut a = Arena::new();
        let ids = ids(&mut a, 1);
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
        let mut a = Arena::new();
        let ids = ids(&mut a, 2);
        let mut q = BucketQueue::new();
        q.push(0.0, ids[0], &mut a);
        q.push(1e-300, ids[1], &mut a);
        assert!(
            q.pop_due(0.0, &mut a).is_some(),
            "zero threshold immediately due"
        );
        assert!(q.pop_due(1e-299, &mut a).is_some());
        assert!(q.is_empty());
    }

    #[test]
    fn heap_handles_duplicate_thresholds() {
        let mut a = Arena::new();
        let ids = ids(&mut a, 3);
        let mut q = HeapQueue::new();
        for &id in &ids {
            q.push(2.0, id, &mut a);
        }
        assert_eq!(drain(&mut q, 2.0, &mut a).len(), 3);
    }

    #[test]
    fn a_push_on_a_queued_node_replaces_its_threshold() {
        let mut a = Arena::new();
        let ids = ids(&mut a, 2);
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
            let mut arena = Arena::new();
            let ids = ids(&mut arena, 1 + rng.below(40) as usize);
            let mut q = new();
            let mut model: Vec<Option<f64>> = vec![None; ids.len()];
            for step in 0..300 {
                let k = rng.below(ids.len() as u64) as usize;
                match rng.below(8) {
                    0..=3 => {
                        let t = threshold(&mut rng);
                        q.push(t, ids[k], &mut arena);
                        model[k] = Some(t);
                    }
                    4 | 5 => {
                        q.remove(ids[k], &mut arena);
                        model[k] = None;
                    }
                    6 => {
                        let p = threshold(&mut rng);
                        if let Some((got, id)) = q.pop_due(p, &mut arena) {
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
                        let (mut copy, mut scratch) = (q.clone(), arena.clone());
                        let mut popped = drain(&mut copy, p, &mut scratch);
                        let mut due: Vec<NodeId> = (0..ids.len())
                            .filter(|&i| model[i].is_some_and(|t| key(t) <= p))
                            .map(|i| ids[i])
                            .collect();
                        popped.sort_by_key(|id| id.index());
                        due.sort_by_key(|id| id.index());
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
                        q.key(id, &arena),
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
