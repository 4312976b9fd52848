//! Dense arenas for hot-path entity state.
//!
//! The platform's entities (nodes, pods, functions) carry small dense
//! integer ids handed out by monotone counters. Storing their runtime
//! state in `BTreeMap<Id, _>` puts a pointer-chasing tree walk on every
//! request hot path; at fleet scale (1k+ nodes, 10⁸ requests) that walk
//! dominates. [`IdArena`] replaces the tree with a flat `Vec` indexed by
//! the id itself: O(1) access, cache-linear iteration, and an explicit
//! deterministic iteration order (ascending id — exactly the order the
//! `BTreeMap`s iterated in, so report digests are unchanged).

use crate::snap::{reservation, Snap, SnapError, SnapReader, SnapWriter};
use std::fmt;
use std::marker::PhantomData;

/// Types usable as arena keys: cheap conversion to/from a dense `usize`.
pub trait ArenaKey: Copy {
    /// The dense index for this key.
    fn index(self) -> usize;
    /// Rebuilds the key from a dense index.
    fn from_index(i: usize) -> Self;
}

impl ArenaKey for usize {
    fn index(self) -> usize {
        self
    }
    fn from_index(i: usize) -> Self {
        i
    }
}

impl ArenaKey for u32 {
    fn index(self) -> usize {
        // u32 → usize is lossless on every supported target.
        // fastg-lint: allow(no-lossy-cast)
        self as usize
    }
    fn from_index(i: usize) -> Self {
        // Arena keys are dense indices; 2^32 entities is unreachable,
        // truncating silently is not. fastg-lint: allow(no-panic-in-lib)
        u32::try_from(i).expect("arena index exceeds u32 key space")
    }
}

impl ArenaKey for u64 {
    fn index(self) -> usize {
        // Arena keys are dense indices; exceeding the address space
        // is unreachable. fastg-lint: allow(no-panic-in-lib)
        usize::try_from(self).expect("arena index exceeds usize")
    }
    fn from_index(i: usize) -> Self {
        // usize → u64 is lossless on every supported target.
        // fastg-lint: allow(no-lossy-cast)
        i as u64
    }
}

/// A dense arena keyed by small integer ids.
///
/// Iteration order is ascending key index — explicit and deterministic,
/// matching the `BTreeMap` ordering it replaces.
#[derive(Clone)]
pub struct IdArena<K, V> {
    slots: Vec<Option<V>>,
    len: usize,
    _marker: PhantomData<K>,
}

impl<K, V: fmt::Debug> fmt::Debug for IdArena<K, V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map()
            .entries(
                self.slots
                    .iter()
                    .enumerate()
                    .filter_map(|(i, s)| s.as_ref().map(|v| (i, v))),
            )
            .finish()
    }
}

impl<K: ArenaKey, V> Default for IdArena<K, V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K: ArenaKey, V> IdArena<K, V> {
    /// Creates an empty arena.
    pub fn new() -> Self {
        IdArena {
            slots: Vec::new(),
            len: 0,
            _marker: PhantomData,
        }
    }

    /// Creates an arena with room for keys `0..capacity` pre-allocated.
    pub fn with_capacity(capacity: usize) -> Self {
        IdArena {
            slots: Vec::with_capacity(capacity),
            len: 0,
            _marker: PhantomData,
        }
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no entries are live.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    fn ensure(&mut self, index: usize) {
        if index >= self.slots.len() {
            self.slots.resize_with(index + 1, || None);
        }
    }

    /// Inserts `value` at `key`, returning the previous occupant if any.
    pub fn insert(&mut self, key: K, value: V) -> Option<V> {
        let i = key.index();
        self.ensure(i);
        let prev = self.slots[i].replace(value);
        if prev.is_none() {
            self.len += 1;
        }
        prev
    }

    /// Removes and returns the entry at `key`.
    pub fn remove(&mut self, key: K) -> Option<V> {
        let prev = self.slots.get_mut(key.index())?.take();
        if prev.is_some() {
            self.len -= 1;
        }
        prev
    }

    /// Immutable access.
    pub fn get(&self, key: K) -> Option<&V> {
        self.slots.get(key.index())?.as_ref()
    }

    /// Mutable access.
    pub fn get_mut(&mut self, key: K) -> Option<&mut V> {
        self.slots.get_mut(key.index())?.as_mut()
    }

    /// Whether `key` is occupied.
    pub fn contains(&self, key: K) -> bool {
        self.get(key).is_some()
    }

    /// Live `(key, &value)` pairs in ascending key order.
    pub fn iter(&self) -> impl Iterator<Item = (K, &V)> {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.as_ref().map(|v| (K::from_index(i), v)))
    }

    /// Live `(key, &mut value)` pairs in ascending key order.
    pub fn iter_mut(&mut self) -> impl Iterator<Item = (K, &mut V)> {
        self.slots
            .iter_mut()
            .enumerate()
            .filter_map(|(i, s)| s.as_mut().map(|v| (K::from_index(i), v)))
    }

    /// Live keys in ascending order.
    pub fn keys(&self) -> impl Iterator<Item = K> + '_ {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.as_ref().map(|_| K::from_index(i)))
    }

    /// Live values in ascending key order.
    pub fn values(&self) -> impl Iterator<Item = &V> {
        self.slots.iter().filter_map(Option::as_ref)
    }

    /// Live values, mutably, in ascending key order.
    pub fn values_mut(&mut self) -> impl Iterator<Item = &mut V> {
        self.slots.iter_mut().filter_map(Option::as_mut)
    }
}

impl<K: ArenaKey, V> IdArena<K, V> {
    /// Encodes the full slab, vacant slots included, with a
    /// caller-supplied value encoder, in the exact wire format of the
    /// blanket [`Snap`] impl. For values whose record lives outside the
    /// slab, such as a platform's pods, each written inside the location
    /// map from its node's slab.
    pub fn snap_with(&self, w: &mut SnapWriter, mut encode: impl FnMut(&V, &mut SnapWriter)) {
        let Self {
            slots,
            len,
            _marker,
        } = self;
        w.len_prefix(*len);
        w.len_prefix(slots.len());
        for slot in slots {
            match slot {
                Some(v) => {
                    w.u8(1);
                    encode(v, w);
                }
                None => w.u8(0),
            }
        }
    }

    /// Decodes a slab written by [`Self::snap_with`] (or the blanket
    /// [`Snap`] impl), handing each live slot's key to the caller-supplied
    /// decoder so it can resolve out-of-band context.
    pub fn unsnap_with(
        r: &mut SnapReader<'_>,
        mut decode: impl FnMut(K, &mut SnapReader<'_>) -> Result<V, SnapError>,
    ) -> Result<Self, SnapError> {
        let len = r.len_prefix()?;
        let n = r.len_prefix()?;
        let mut slots = Vec::with_capacity(reservation::<Option<V>>(n, r.remaining()));
        let mut live = 0usize;
        for i in 0..n {
            let value = match r.u8()? {
                0 => None,
                1 => {
                    live += 1;
                    Some(decode(K::from_index(i), r)?)
                }
                _ => return Err(SnapError::new("IdArena slot tag")),
            };
            slots.push(value);
        }
        if live != len {
            return Err(SnapError::new("IdArena len"));
        }
        Ok(IdArena {
            slots,
            len,
            _marker: PhantomData,
        })
    }
}

impl<K: ArenaKey, V: Snap> Snap for IdArena<K, V> {
    fn snap(&self, w: &mut SnapWriter) {
        self.snap_with(w, V::snap);
    }
    fn unsnap(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Self::unsnap_with(r, |_, r| V::unsnap(r))
    }
}

impl<K: ArenaKey, V> std::ops::Index<K> for IdArena<K, V> {
    type Output = V;

    /// Indexed access to a live entry; a vacant slot is a caller logic
    /// error (the same contract as `BTreeMap`'s `Index`).
    fn index(&self, key: K) -> &V {
        // `Index` mirrors the std contract: a vacant key is a caller
        // logic error. fastg-lint: allow(no-panic-in-lib)
        self.get(key).expect("IdArena[]: vacant slot")
    }
}

impl<K: ArenaKey, V> std::ops::IndexMut<K> for IdArena<K, V> {
    fn index_mut(&mut self, key: K) -> &mut V {
        // `IndexMut` mirrors the std contract: a vacant key is a
        // caller logic error. fastg-lint: allow(no-panic-in-lib)
        self.get_mut(key).expect("IdArena[]: vacant slot")
    }
}

/// A dense set of small integer ids with ascending-order iteration and
/// O(1) insert/remove — the arena analogue of `BTreeSet<Id>` for dedup
/// sets on the event hot path.
#[derive(Debug, Clone, Default)]
pub struct IdSet<K> {
    bits: Vec<u64>,
    len: usize,
    _marker: PhantomData<K>,
}

impl<K: ArenaKey> IdSet<K> {
    /// Creates an empty set.
    pub fn new() -> Self {
        IdSet {
            bits: Vec::new(),
            len: 0,
            _marker: PhantomData,
        }
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Inserts `key`; returns whether it was newly added.
    pub fn insert(&mut self, key: K) -> bool {
        let i = key.index();
        let (word, bit) = (i / 64, 1u64 << (i % 64));
        if word >= self.bits.len() {
            self.bits.resize(word + 1, 0);
        }
        let fresh = self.bits[word] & bit == 0;
        self.bits[word] |= bit;
        if fresh {
            self.len += 1;
        }
        fresh
    }

    /// Removes `key`; returns whether it was present.
    pub fn remove(&mut self, key: K) -> bool {
        let i = key.index();
        let (word, bit) = (i / 64, 1u64 << (i % 64));
        match self.bits.get_mut(word) {
            Some(w) if *w & bit != 0 => {
                *w &= !bit;
                self.len -= 1;
                true
            }
            _ => false,
        }
    }

    /// Membership test.
    pub fn contains(&self, key: K) -> bool {
        let i = key.index();
        self.bits
            .get(i / 64)
            .is_some_and(|w| w & (1u64 << (i % 64)) != 0)
    }

    /// Removes all members.
    pub fn clear(&mut self) {
        self.bits.clear();
        self.len = 0;
    }

    /// Members in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = K> + '_ {
        self.bits.iter().enumerate().flat_map(|(wi, &w)| {
            let mut word = w;
            std::iter::from_fn(move || {
                if word == 0 {
                    return None;
                }
                // trailing_zeros is at most 64, losslessly usize.
                // fastg-lint: allow(no-lossy-cast)
                let bit = word.trailing_zeros() as usize;
                word &= word - 1;
                Some(K::from_index(wi * 64 + bit))
            })
        })
    }

}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_get_remove_round_trip() {
        let mut a: IdArena<u32, &str> = IdArena::new();
        assert!(a.is_empty());
        assert_eq!(a.insert(3, "c"), None);
        assert_eq!(a.insert(1, "a"), None);
        assert_eq!(a.len(), 2);
        assert_eq!(a.get(3), Some(&"c"));
        assert_eq!(a.get(2), None);
        assert_eq!(a.insert(3, "c2"), Some("c"));
        assert_eq!(a.len(), 2);
        assert_eq!(a.remove(3), Some("c2"));
        assert_eq!(a.remove(3), None);
        assert_eq!(a.len(), 1);
    }

    #[test]
    fn iteration_is_ascending_key_order() {
        let mut a: IdArena<u32, i32> = IdArena::new();
        for k in [9u32, 2, 7, 0, 4] {
            a.insert(k, i32::try_from(k).unwrap() * 10);
        }
        let keys: Vec<u32> = a.keys().collect();
        assert_eq!(keys, vec![0, 2, 4, 7, 9]);
        let pairs: Vec<(u32, i32)> = a.iter().map(|(k, &v)| (k, v)).collect();
        assert_eq!(pairs[0], (0, 0));
        assert_eq!(pairs[4], (9, 90));
        for v in a.values_mut() {
            *v += 1;
        }
        assert_eq!(a.get(2), Some(&21));
    }

    #[test]
    fn id_set_orders_and_dedups() {
        let mut s: IdSet<u32> = IdSet::new();
        assert!(s.insert(70));
        assert!(s.insert(3));
        assert!(!s.insert(70), "duplicate insert");
        assert!(s.contains(3));
        assert!(!s.contains(4));
        assert_eq!(s.len(), 2);
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![3, 70]);
        s.clear();
        assert!(s.is_empty());
        assert!(!s.remove(3));
        assert!(s.insert(3));
        assert!(s.remove(3));
    }

    #[test]
    fn arena_debug_is_readable() {
        let mut a: IdArena<u32, u8> = IdArena::new();
        a.insert(1, 7);
        assert_eq!(format!("{a:?}"), "{1: 7}");
    }
}
