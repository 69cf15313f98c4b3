//! A tiny generational arena for refinement-tree nodes.
//!
//! Nodes are addressed by [`NodeId`] = (slot index, generation). Freeing a
//! slot bumps its generation, so a stale id is detected instead of
//! resurrecting an unrelated node. Each slot also carries one crate-private
//! `u32` tag: the unrefinement queue (§5.3) keeps each node's entry index
//! there.

/// Handle to an arena slot; invalidated when the slot is freed.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct NodeId {
    idx: u32,
    gen: u32,
}

impl NodeId {
    /// Slot index (for debugging/statistics).
    pub fn index(&self) -> u32 {
        self.idx
    }
}

/// Tag of a slot nobody has tagged: every insert starts from it.
pub(crate) const UNTAGGED: u32 = u32::MAX;

#[derive(Clone, Debug)]
struct Slot<T> {
    gen: u32,
    /// Caller-owned; sits in the padding beside `gen`, so a slot of 64-byte
    /// values stays 72 bytes.
    tag: u32,
    value: Option<T>,
}

/// Generational arena.
#[derive(Clone, Debug)]
pub struct Arena<T> {
    slots: Vec<Slot<T>>,
    free: Vec<u32>,
    live: usize,
}

impl<T> Default for Arena<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> Arena<T> {
    /// Creates an empty arena.
    pub fn new() -> Self {
        Arena {
            slots: Vec::new(),
            free: Vec::new(),
            live: 0,
        }
    }

    /// Number of live nodes.
    pub fn len(&self) -> usize {
        self.live
    }

    /// `true` iff no nodes are live.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Inserts a value, returning its id.
    pub fn insert(&mut self, value: T) -> NodeId {
        self.live += 1;
        if let Some(idx) = self.free.pop() {
            let slot = &mut self.slots[idx as usize];
            debug_assert!(slot.value.is_none());
            slot.value = Some(value);
            slot.tag = UNTAGGED;
            NodeId { idx, gen: slot.gen }
        } else {
            let idx = u32::try_from(self.slots.len()).expect("arena overflow");
            self.slots.push(Slot {
                gen: 0,
                tag: UNTAGGED,
                value: Some(value),
            });
            NodeId { idx, gen: 0 }
        }
    }

    /// Removes a node, returning its value; `None` if the id is stale.
    pub fn remove(&mut self, id: NodeId) -> Option<T> {
        let slot = self.slots.get_mut(id.idx as usize)?;
        if slot.gen != id.gen || slot.value.is_none() {
            return None;
        }
        slot.gen = slot.gen.wrapping_add(1);
        self.free.push(id.idx);
        self.live -= 1;
        slot.value.take()
    }

    /// Shared access; `None` if stale.
    pub fn get(&self, id: NodeId) -> Option<&T> {
        let slot = self.slots.get(id.idx as usize)?;
        if slot.gen != id.gen {
            return None;
        }
        slot.value.as_ref()
    }

    /// Mutable access; `None` if stale.
    pub fn get_mut(&mut self, id: NodeId) -> Option<&mut T> {
        let slot = self.slots.get_mut(id.idx as usize)?;
        if slot.gen != id.gen {
            return None;
        }
        slot.value.as_mut()
    }

    /// `true` iff the id refers to a live node.
    pub fn contains(&self, id: NodeId) -> bool {
        self.get(id).is_some()
    }

    /// The tag of `id`'s slot ([`UNTAGGED`] from insert until
    /// [`set_tag`](Self::set_tag)). Reads the slot `id` names without a
    /// generation check.
    pub(crate) fn tag(&self, id: NodeId) -> u32 {
        self.slots[id.idx as usize].tag
    }

    /// Sets the tag of `id`'s slot.
    pub(crate) fn set_tag(&mut self, id: NodeId, tag: u32) {
        self.slots[id.idx as usize].tag = tag;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_get_remove() {
        let mut a = Arena::new();
        let id1 = a.insert("one");
        let id2 = a.insert("two");
        assert_eq!(a.len(), 2);
        assert_eq!(a.get(id1), Some(&"one"));
        assert_eq!(a.remove(id1), Some("one"));
        assert_eq!(a.len(), 1);
        assert_eq!(a.get(id1), None);
        assert_eq!(a.get(id2), Some(&"two"));
    }

    #[test]
    fn stale_ids_are_rejected_after_reuse() {
        let mut a = Arena::new();
        let id1 = a.insert(1);
        a.remove(id1);
        let id2 = a.insert(2);
        // Slot reused, generation bumped.
        assert_eq!(id1.index(), id2.index());
        assert_ne!(id1, id2);
        assert_eq!(a.get(id1), None, "stale id must not see the new value");
        assert_eq!(a.remove(id1), None);
        assert_eq!(a.get(id2), Some(&2));
    }

    #[test]
    fn double_remove_is_none() {
        let mut a = Arena::new();
        let id = a.insert(7);
        assert_eq!(a.remove(id), Some(7));
        assert_eq!(a.remove(id), None);
        assert!(a.is_empty());
    }

    #[test]
    fn tags_start_untagged_on_every_insert() {
        let mut a = Arena::new();
        let id1 = a.insert(1);
        assert_eq!(a.tag(id1), UNTAGGED);
        a.set_tag(id1, 5);
        assert_eq!(a.tag(id1), 5);
        a.remove(id1);
        let id2 = a.insert(2);
        assert_eq!(id1.index(), id2.index());
        assert_eq!(a.tag(id2), UNTAGGED, "a reused slot starts untagged");
    }

    #[test]
    fn get_mut_updates() {
        let mut a = Arena::new();
        let id = a.insert(vec![1]);
        a.get_mut(id).unwrap().push(2);
        assert_eq!(a.get(id), Some(&vec![1, 2]));
    }
}
