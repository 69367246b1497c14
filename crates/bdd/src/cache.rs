//! The fixed-size direct-mapped computed cache (CUDD-style).
//!
//! Unlike the unique table, the computed cache is *lossy*: each key hashes
//! to exactly one slot and a colliding insert simply evicts the previous
//! entry. That trades completeness for an O(1) probe and hard-bounded
//! memory — losing an entry only costs a recomputation, never correctness,
//! because every operation result is re-derivable and hash-consing makes
//! the recomputation land on the same `Ref`. The between-rounds growth
//! problem of the old unbounded memo `HashMap` disappears by construction,
//! and [`ComputedCache::reset`] is a `fill` instead of a reallocation.

use crate::unique::mix_triple;

/// Key sentinel for a vacant slot. Queries always carry a non-constant
/// node index in `f` (capped far below `u32::MAX` by the manager), so a
/// vacant slot can never alias a real key.
const VACANT_KEY: u32 = u32::MAX;

/// Bounds on the slot count (each slot is 16 bytes). The floor keeps tiny
/// capacity hints usable; the ceiling caps the cache at 16 MiB.
const MIN_ENTRIES: usize = 1 << 8;
const MAX_ENTRIES: usize = 1 << 20;

/// One cached `(f, g, h) -> r` result: `f` and `g` are the operands and
/// `h` always holds the operation tag (conjunction or exclusive-or).
#[derive(Clone, Copy)]
struct Entry {
    f: u32,
    g: u32,
    h: u32,
    r: u32,
}

const VACANT: Entry = Entry {
    f: VACANT_KEY,
    g: VACANT_KEY,
    h: VACANT_KEY,
    r: VACANT_KEY,
};

/// What a [`ComputedCache::put`] did to its slot, so the manager can keep
/// the occupancy gauge and eviction counter honest.
pub(crate) enum PutOutcome {
    /// The slot was vacant; occupancy grew by one.
    Fresh,
    /// The slot held a different key; it was overwritten (occupancy flat).
    Evicted,
    /// The slot already held this very key (deep recursion recomputed a
    /// memoized triple); nothing changed.
    Refreshed,
}

/// Direct-mapped lossy memo table for operation results.
pub(crate) struct ComputedCache {
    /// Power-of-two slot array.
    entries: Vec<Entry>,
    /// Occupied slots right now (resets to zero on [`ComputedCache::reset`]).
    live: usize,
    /// Cumulative collision evictions (the `bdd.computed_evictions`
    /// counter). High values mean the cache is too small for the workload.
    evictions: u64,
}

impl ComputedCache {
    /// A cache sized to twice the node-count hint (operation triples
    /// outnumber result nodes), clamped to `[MIN_ENTRIES, MAX_ENTRIES]`
    /// slots.
    pub(crate) fn with_node_capacity(node_hint: usize) -> ComputedCache {
        let cap = node_hint
            .saturating_mul(2)
            .next_power_of_two()
            .clamp(MIN_ENTRIES, MAX_ENTRIES);
        ComputedCache {
            entries: vec![VACANT; cap],
            live: 0,
            evictions: 0,
        }
    }

    #[inline]
    fn index(&self, f: u32, g: u32, h: u32) -> usize {
        mix_triple(f, g, h) as usize & (self.entries.len() - 1)
    }

    /// O(1) probe: at most one slot is ever inspected.
    #[inline]
    pub(crate) fn get(&self, f: u32, g: u32, h: u32) -> Option<u32> {
        let e = self.entries[self.index(f, g, h)];
        (e.f == f && e.g == g && e.h == h).then_some(e.r)
    }

    /// Stores `(f, g, h) -> r`, evicting whatever occupied the slot.
    pub(crate) fn put(&mut self, f: u32, g: u32, h: u32, r: u32) -> PutOutcome {
        let i = self.index(f, g, h);
        let e = &mut self.entries[i];
        let outcome = if e.f == VACANT_KEY {
            self.live += 1;
            PutOutcome::Fresh
        } else if e.f == f && e.g == g && e.h == h {
            PutOutcome::Refreshed
        } else {
            self.evictions += 1;
            PutOutcome::Evicted
        };
        *e = Entry { f, g, h, r };
        outcome
    }

    /// Empties the cache in place (no reallocation) and returns how many
    /// entries were live, so the caller can lower its occupancy gauge.
    pub(crate) fn reset(&mut self) -> usize {
        let was = self.live;
        self.entries.fill(VACANT);
        self.live = 0;
        was
    }

    /// Occupied slots right now.
    pub(crate) fn live(&self) -> usize {
        self.live
    }

    /// Cumulative collision evictions since creation (survives resets).
    pub(crate) fn evictions(&self) -> u64 {
        self.evictions
    }
}
