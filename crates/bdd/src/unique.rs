//! The open-addressed unique table backing hash-consing.
//!
//! The table maps `(var, lo, hi)` triples to arena indices without storing
//! the keys: slots hold bare `u32` node indices and key comparison reads
//! the node arena directly, so each slot costs four bytes and a lookup
//! that stays in one cache line usually touches the arena exactly once.
//! Capacity is a power of two (masked indexing, no division) and
//! collisions resolve by linear probing. The table never deletes
//! *incrementally* — between collections the set of keys is exactly the
//! set of live internal nodes — but the garbage collector retires nodes
//! wholesale, after which [`UniqueTable::rebuild`] reconstitutes the
//! table from the surviving arena slots (dead slots are tagged with a
//! `var` sentinel and skipped).

use crate::manager::{Node, DEAD_VAR};

/// Slot sentinel for "no node here". Arena indices are capped far below
/// this by [`crate::manager::Manager`], so the sentinel can never collide
/// with a real index.
const EMPTY_SLOT: u32 = u32::MAX;

/// Smallest table we ever allocate (slots, power of two). Keeps the load
/// factor arithmetic trivially safe and the initial allocation tiny.
const MIN_CAPACITY: usize = 1 << 10;

/// FxHash-style multiplicative mixing over the `(var, lo, hi)` triple.
/// `lo` and `hi` are *tagged* refs (`index << 1 | complement`), so the
/// complement bit participates in the hash for free.
///
/// Each word is folded in with a multiply by the 64-bit golden-ratio
/// constant (the splitmix64 increment); the final xor-shift folds the
/// well-mixed high bits back into the low bits we mask with.
#[inline]
pub(crate) fn mix_triple(var: u32, lo: u32, hi: u32) -> u64 {
    const K: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut x = (var as u64).wrapping_add(K).wrapping_mul(K);
    x = (x ^ lo as u64).wrapping_mul(K);
    x = (x ^ hi as u64).wrapping_mul(K);
    x ^ (x >> 32)
}

/// Open-addressing hash table from node keys to arena indices.
pub(crate) struct UniqueTable {
    /// Power-of-two slot array of arena indices (`EMPTY_SLOT` = vacant).
    slots: Vec<u32>,
    /// Occupied slots; grows on insert, resets on [`UniqueTable::rebuild`].
    len: usize,
    /// Cumulative slot inspections across all lookups (the `bdd.unique_probes`
    /// counter). A value close to `len` means the hash is doing its job.
    probes: u64,
}

impl UniqueTable {
    /// A table sized so that `node_hint` nodes fit below the 3/4 load
    /// ceiling without rehashing.
    pub(crate) fn with_node_capacity(node_hint: usize) -> UniqueTable {
        UniqueTable {
            slots: vec![EMPTY_SLOT; Self::capacity_for(node_hint)],
            len: 0,
            probes: 0,
        }
    }

    fn capacity_for(nodes: usize) -> usize {
        (nodes.saturating_mul(4) / 3 + 1)
            .next_power_of_two()
            .max(MIN_CAPACITY)
    }

    /// Cumulative probe count (monotone; survives rehashes).
    pub(crate) fn probes(&self) -> u64 {
        self.probes
    }

    /// Doubles the table if one more insert would push the load factor
    /// past 3/4. Must be called *before* [`UniqueTable::find_or_slot`] so
    /// the returned insertion slot stays valid.
    pub(crate) fn reserve_one(&mut self, nodes: &[Node]) {
        if (self.len + 1) * 4 > self.slots.len() * 3 {
            let cap = self.slots.len() * 2;
            self.rehash(nodes, cap);
        }
    }

    /// Rebuilds the table from the arena after a collection, sized for
    /// `live` nodes (the table may shrink back — daemon sessions rely on
    /// that for memory flatness). Dead slots carry the `DEAD_VAR`
    /// sentinel and are skipped.
    pub(crate) fn rebuild(&mut self, nodes: &[Node], live: usize) {
        self.rehash(nodes, Self::capacity_for(live));
    }

    /// Rebuilds at `cap` slots straight from the node arena. Every live
    /// internal node is a key and all keys are distinct (hash-consing
    /// invariant), so reinsertion needs no comparisons — just a probe for
    /// the first empty slot.
    fn rehash(&mut self, nodes: &[Node], cap: usize) {
        let mask = cap - 1;
        let mut slots = vec![EMPTY_SLOT; cap];
        let mut len = 0;
        // Arena slot 0 is the terminal, never hashed; dead slots skipped.
        for (idx, n) in nodes.iter().enumerate().skip(1) {
            if n.var >= DEAD_VAR {
                continue;
            }
            let mut s = mix_triple(n.var, n.lo.0, n.hi.0) as usize & mask;
            while slots[s] != EMPTY_SLOT {
                s = (s + 1) & mask;
            }
            slots[s] = idx as u32;
            len += 1;
        }
        self.slots = slots;
        self.len = len;
    }

    /// Linear-probes for `(var, lo, hi)`: `Ok(index)` when the node is
    /// already interned, `Err(slot)` with the vacant insertion slot
    /// otherwise. Every slot inspection counts toward [`Self::probes`].
    pub(crate) fn find_or_slot(
        &mut self,
        nodes: &[Node],
        var: u32,
        lo: u32,
        hi: u32,
    ) -> Result<u32, usize> {
        let mask = self.slots.len() - 1;
        let mut s = mix_triple(var, lo, hi) as usize & mask;
        loop {
            self.probes += 1;
            let idx = self.slots[s];
            if idx == EMPTY_SLOT {
                return Err(s);
            }
            let n = &nodes[idx as usize];
            if n.var == var && n.lo.0 == lo && n.hi.0 == hi {
                return Ok(idx);
            }
            s = (s + 1) & mask;
        }
    }

    /// Fills the vacant slot returned by [`UniqueTable::find_or_slot`].
    pub(crate) fn insert(&mut self, slot: usize, idx: u32) {
        debug_assert_eq!(self.slots[slot], EMPTY_SLOT, "slot already taken");
        self.slots[slot] = idx;
        self.len += 1;
    }
}
