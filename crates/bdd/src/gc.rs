//! Mark-and-sweep garbage collection for the node arena.
//!
//! The arena never *moves* a live node: the sweep marks dead slots with a
//! `var` sentinel and pushes them onto a free list for reuse by `mk`, so
//! every [`Ref`] to a node reachable from a [`Root`] stays valid across
//! any number of collections (and across sifting passes, which rewrite
//! slots in place without changing the function a slot denotes). That is
//! the whole safety argument (DESIGN.md §8): roots pin reachability,
//! survivors keep their indices, and the unique table and computed cache
//! — the only structures that could name dead slots — are rebuilt and
//! reset respectively at the end of each sweep.

use crate::manager::{Manager, Node, DEAD_VAR, GC_FLOOR, REORDER_FLOOR};
use crate::Ref;

/// A handle that pins a function (and everything reachable from it)
/// across garbage collection and reordering.
///
/// Obtained from [`Manager::protect`]; released with
/// [`Manager::unprotect`]. `Root` is deliberately not `Copy`/`Clone`:
/// each one owns a slot in the manager's root slab. Dropping a `Root`
/// without unprotecting it leaks the slot — the pinned nodes simply stay
/// live, which is the safe failure mode for state that lives as long as
/// its manager (the analysis spaces never unprotect their validity
/// predicates).
#[derive(Debug)]
pub struct Root {
    slot: u32,
    r: Ref,
}

impl Root {
    /// The protected function. Valid for as long as the root is held,
    /// across any number of [`Manager::gc`] / [`Manager::reorder`] calls.
    pub fn as_ref(&self) -> Ref {
        self.r
    }
}

/// What one mark-and-sweep pass did.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct GcStats {
    /// Nodes that survived the sweep.
    pub live: usize,
    /// Nodes reclaimed onto the free list.
    pub freed: usize,
}

impl Manager {
    /// Pins `r` as a garbage-collection root. Everything reachable from a
    /// root survives [`Manager::gc`] and [`Manager::reorder`].
    pub fn protect(&mut self, r: Ref) -> Root {
        let slot = match self.root_free.pop() {
            Some(s) => {
                self.roots[s as usize] = Some(r);
                s
            }
            None => {
                let s = u32::try_from(self.roots.len()).expect("root slab exceeded u32");
                self.roots.push(Some(r));
                s
            }
        };
        Root { slot, r }
    }

    /// Releases a root obtained from [`Manager::protect`]. The nodes it
    /// pinned become collectable (unless another root still reaches them).
    pub fn unprotect(&mut self, root: Root) {
        debug_assert_eq!(self.roots[root.slot as usize], Some(root.r), "foreign root");
        self.roots[root.slot as usize] = None;
        self.root_free.push(root.slot);
    }

    /// Re-points an existing root at a new function, keeping its slot.
    /// Equivalent to unprotect + protect but without slab churn — the
    /// fire-set caches use this when a cached entry is refreshed.
    pub fn reprotect(&mut self, root: &mut Root, r: Ref) {
        self.roots[root.slot as usize] = Some(r);
        root.r = r;
    }

    /// Number of live root slots (diagnostics).
    pub fn root_count(&self) -> usize {
        self.roots.iter().filter(|r| r.is_some()).count()
    }

    /// Arms or disarms automatic collection inside
    /// [`Manager::clear_op_caches`]. Off by default: a bare manager keeps
    /// the historical "refs never die" contract. The analysis spaces arm
    /// it right after protecting their long-lived state.
    pub fn set_auto_gc(&mut self, enabled: bool) {
        self.auto_gc = enabled;
    }

    /// Arms or disarms automatic sifting inside
    /// [`Manager::clear_op_caches`]. Off by default.
    pub fn set_auto_reorder(&mut self, enabled: bool) {
        self.auto_reorder = enabled;
    }

    /// The auto-collection hook, called from `clear_op_caches` — the one
    /// moment no operation is mid-recursion, so the only refs that must
    /// survive are the rooted ones. Triggers are high-water marks that
    /// re-arm upward after each pass, so a session that plateaus stops
    /// paying for collections it does not need.
    pub(crate) fn maybe_collect(&mut self) {
        if self.auto_gc && self.live_nodes >= self.gc_trigger {
            self.gc();
        }
        if self.auto_reorder && self.live_nodes >= self.reorder_trigger {
            self.reorder();
            self.reorder_trigger = (self.live_nodes * 4).max(REORDER_FLOOR);
        }
    }

    /// Runs a mark-and-sweep collection now.
    ///
    /// Everything unreachable from the [`Root`] set is reclaimed; the
    /// unique table is rebuilt from the survivors and the computed cache
    /// is reset (its entries may name swept slots). Refs to surviving
    /// nodes — including every rooted ref — remain valid and unchanged.
    pub fn gc(&mut self) -> GcStats {
        let marks = self.mark_from_roots();
        let mut freed = 0usize;
        for (idx, &marked) in marks.iter().enumerate().skip(1) {
            let dead_already = self.nodes[idx].var >= DEAD_VAR;
            if marked || dead_already {
                continue;
            }
            self.nodes[idx].var = DEAD_VAR;
            self.free.push(idx as u32);
            freed += 1;
        }
        self.live_nodes -= freed;
        self.unique.rebuild(&self.nodes, self.live_nodes);
        let cache_live = self.computed.reset();
        self.obs.ite_cache_entries.sub(cache_live as i64);
        self.obs.unique_nodes.sub(freed as i64);
        self.obs.gc_runs.incr();
        self.obs.gc_freed.add(freed as u64);
        self.gc_runs += 1;
        self.gc_freed += freed as u64;
        self.gc_trigger = (self.live_nodes * 2).max(GC_FLOOR);
        GcStats {
            live: self.live_nodes,
            freed,
        }
    }

    /// Marks every arena slot reachable from the root set. Index 0 (the
    /// terminal) is always marked.
    fn mark_from_roots(&self) -> Vec<bool> {
        let mut marks = vec![false; self.nodes.len()];
        marks[0] = true;
        let mut stack: Vec<u32> = self.roots.iter().flatten().map(|r| r.index()).collect();
        while let Some(idx) = stack.pop() {
            let i = idx as usize;
            if marks[i] {
                continue;
            }
            marks[i] = true;
            let n: Node = self.nodes[i];
            debug_assert!(n.var < DEAD_VAR, "root reached a dead node");
            if !n.lo.is_const() {
                stack.push(n.lo.index());
            }
            if !n.hi.is_const() {
                stack.push(n.hi.index());
            }
        }
        marks
    }
}
