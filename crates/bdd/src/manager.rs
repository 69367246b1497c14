//! The BDD node arena and the operation kernel, with complement edges.
//!
//! A [`Ref`] packs an arena index and a *complement bit* into one `u32`
//! (`index << 1 | complement`). The complement bit denotes the negated
//! function, so negation is a single xor and `f`/`!f` share every node.
//! Canonicity demands the bit appear on at most one edge per node: here
//! the **then/hi edge is always regular** (never complemented); only the
//! else/lo edge and external handles may carry the bit (DESIGN.md §8).
//! One terminal node (arena index 0) represents `TRUE`; `FALSE` is its
//! complement.

use std::collections::{HashMap, HashSet};

use clarify_obs::{Counter, Gauge, Registry};

use crate::cache::{ComputedCache, PutOutcome};
use crate::cube::Cube;
use crate::unique::UniqueTable;

/// A handle to a BDD function owned by a [`Manager`].
///
/// `Ref`s are cheap to copy and compare; equal `Ref`s from the same manager
/// denote semantically equal Boolean functions (canonicity of ROBDDs with
/// complement edges). A `Ref` must only be used with the manager that
/// produced it, and — since the manager grew a garbage collector — a `Ref`
/// held across [`Manager::gc`] / [`Manager::reorder`] must be protected by
/// a [`crate::Root`] or reachable from one.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Ref(pub(crate) u32);

impl Ref {
    /// The constant-true function: the terminal node, regular polarity.
    pub const TRUE: Ref = Ref(0);
    /// The constant-false function: the terminal node, complemented.
    pub const FALSE: Ref = Ref(1);

    /// Whether this handle is one of the two constant functions.
    pub fn is_const(self) -> bool {
        self.0 <= 1
    }

    /// The arena index this handle points at (complement bit stripped).
    pub(crate) fn index(self) -> u32 {
        self.0 >> 1
    }

    fn idx(self) -> usize {
        (self.0 >> 1) as usize
    }

    /// Whether the complement bit is set.
    pub(crate) fn is_complement(self) -> bool {
        self.0 & 1 == 1
    }

    /// The negated function: flip the complement bit. O(1).
    pub(crate) fn complement(self) -> Ref {
        Ref(self.0 ^ 1)
    }

    /// This handle with the complement bit cleared.
    pub(crate) fn regular(self) -> Ref {
        Ref(self.0 & !1)
    }
}

impl std::fmt::Debug for Ref {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            Ref::TRUE => write!(f, "Ref(T)"),
            Ref::FALSE => write!(f, "Ref(F)"),
            r if r.is_complement() => write!(f, "Ref(!{})", r.index()),
            r => write!(f, "Ref({})", r.index()),
        }
    }
}

#[derive(Clone, Copy)]
pub(crate) struct Node {
    pub(crate) var: u32,
    pub(crate) lo: Ref,
    pub(crate) hi: Ref,
}

/// `var` sentinel for the terminal node at arena index 0.
pub(crate) const TERMINAL_VAR: u32 = u32::MAX;

/// `var` sentinel for a swept (dead) arena slot awaiting reuse. The
/// unique-table rebuild and every arena scan skip slots at or above this.
pub(crate) const DEAD_VAR: u32 = u32::MAX - 1;

/// Operation tags for the binary kernels (conjunction and exclusive-or —
/// every other connective is a complement-edge rewrite of those two).
/// Tags live in the cache key's third slot, above every legal tagged
/// `Ref`, so `(f, g, OP_AND)` can never collide with a genuine `ite`
/// triple.
const OP_AND: u32 = u32::MAX - 1;
const OP_XOR: u32 = u32::MAX - 2;

/// Hard ceiling on arena indices: a tagged `Ref` is `index << 1 | c`, and
/// everything above the ceiling is reserved for the operation tags and
/// the tables' vacancy sentinels.
const MAX_INDEX: u32 = (u32::MAX - 16) >> 1;

/// Default capacity hint (in nodes) for managers built without one.
const DEFAULT_NODE_HINT: usize = 1 << 14;

/// Auto-GC never fires below this many live nodes.
pub(crate) const GC_FLOOR: usize = 1 << 12;

/// Auto-reorder never fires below this many live nodes.
pub(crate) const REORDER_FLOOR: usize = 1 << 12;

/// Usage counters for diagnostics and benchmarks.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Stats {
    /// Number of live (hash-consed) internal nodes, terminal excluded and
    /// garbage-collected slots excluded.
    pub nodes: usize,
    /// Arena slots allocated (terminal excluded), *including* dead slots
    /// awaiting reuse: the high-water footprint, not the live set.
    pub capacity_nodes: usize,
    /// Live nodes whose else/lo edge carries the complement bit — the
    /// "complement share" that measures how much sharing the tagged
    /// representation buys.
    pub complement_edges: usize,
    /// Hits in the computed cache since creation.
    pub cache_hits: u64,
    /// Misses in the computed cache since creation.
    pub cache_misses: u64,
    /// Currently occupied slots of the bounded computed cache (drops to
    /// zero after [`Manager::clear_op_caches`]; `exists`/`restrict` memos
    /// are per-call and never persist, so they are not counted here).
    pub ite_cache_entries: usize,
    /// Cumulative unique-table slot inspections. A value close to the
    /// node count means the hash is spreading keys well.
    pub unique_probes: u64,
    /// Cumulative computed-cache collision evictions. The cache is
    /// direct-mapped and lossy; evictions cost recomputation, not
    /// correctness.
    pub computed_evictions: u64,
    /// Mark-and-sweep collections run (explicit or automatic).
    pub gc_runs: u64,
    /// Nodes reclaimed across all collections.
    pub gc_freed_nodes: u64,
    /// Sifting passes run (explicit or automatic).
    pub reorder_runs: u64,
    /// Adjacent-level swaps performed across all sifting passes.
    pub reorder_swaps: u64,
    /// Nanoseconds spent inside [`Manager::reorder`], cumulative.
    pub reorder_ns: u64,
}

/// Metric handles captured once at manager construction, so the hot
/// kernels never perform a registry lookup. The handles are write-only
/// and aggregate across every manager wired to the same registry
/// (worker-local managers in a `clarify-par` pool all feed one total);
/// with the default disabled registry each update is a single branch.
pub(crate) struct ObsHandles {
    pub(crate) ite_calls: Counter,
    pub(crate) cache_hits: Counter,
    pub(crate) cache_misses: Counter,
    pub(crate) cache_clears: Counter,
    /// Unique-table slot inspections across all managers on this registry.
    pub(crate) unique_probes: Counter,
    /// Computed-cache collision evictions across all managers.
    pub(crate) computed_evictions: Counter,
    /// Mark-and-sweep collections across all managers.
    pub(crate) gc_runs: Counter,
    /// Nodes reclaimed by collections across all managers.
    pub(crate) gc_freed: Counter,
    /// Sifting passes across all managers.
    pub(crate) reorder_runs: Counter,
    /// Adjacent-level swaps across all managers.
    pub(crate) reorder_swaps: Counter,
    /// Nanoseconds spent sifting across all managers.
    pub(crate) reorder_ns: Counter,
    /// Live hash-consed nodes across all managers on this registry.
    pub(crate) unique_nodes: Gauge,
    /// Live computed-cache entries across all managers on this registry.
    pub(crate) ite_cache_entries: Gauge,
}

impl ObsHandles {
    fn capture(registry: &Registry) -> ObsHandles {
        ObsHandles {
            ite_calls: registry.counter("bdd.ite_calls"),
            cache_hits: registry.counter("bdd.ite_cache_hits"),
            cache_misses: registry.counter("bdd.ite_cache_misses"),
            cache_clears: registry.counter("bdd.op_cache_clears"),
            unique_probes: registry.counter("bdd.unique_probes"),
            computed_evictions: registry.counter("bdd.computed_evictions"),
            gc_runs: registry.counter("bdd.gc.runs"),
            gc_freed: registry.counter("bdd.gc.freed_nodes"),
            reorder_runs: registry.counter("bdd.reorder.runs"),
            reorder_swaps: registry.counter("bdd.reorder.swaps"),
            reorder_ns: registry.counter("bdd.reorder.ns"),
            unique_nodes: registry.gauge("bdd.unique_nodes"),
            ite_cache_entries: registry.gauge("bdd.ite_cache_entries"),
        }
    }
}

/// An arena of hash-consed BDD nodes plus the operation caches.
///
/// All functions created by one manager share structure. Since the
/// complement-edge rewrite the manager also owns a *lifecycle*: external
/// callers pin functions with [`Manager::protect`] root handles, a
/// mark-and-sweep collector ([`Manager::gc`]) reclaims everything
/// unreachable from the roots, and a sifting pass ([`Manager::reorder`])
/// searches for a better variable order. Neither pass moves live nodes,
/// so protected `Ref`s stay valid across both.
///
/// The kernel data structures are hand-rolled for the hot path (see
/// DESIGN.md §8): the unique table is an open-addressing hash table
/// of bare `u32` arena indices, and the operation memo is a fixed-size
/// direct-mapped *lossy* computed cache in the CUDD tradition. Losing a
/// computed-cache entry never loses correctness — results are re-derived
/// and hash-consing lands them on the same [`Ref`].
pub struct Manager {
    pub(crate) nodes: Vec<Node>,
    pub(crate) unique: UniqueTable,
    pub(crate) computed: ComputedCache,
    num_vars: u32,
    /// Variable id -> level (position in the current order; 0 is tested
    /// first). Starts as the identity and changes only under sifting.
    pub(crate) var2level: Vec<u32>,
    /// Level -> variable id (inverse of `var2level`).
    pub(crate) level2var: Vec<u32>,
    /// Fast-path flag: true while `var2level` is the identity, letting
    /// witness extraction keep the O(depth) walk.
    pub(crate) order_identity: bool,
    /// Dead arena slots available for reuse (filled by the sweep).
    pub(crate) free: Vec<u32>,
    /// Live internal nodes (terminal excluded, dead slots excluded).
    pub(crate) live_nodes: usize,
    /// The root slab: every `Some` entry is a GC root.
    pub(crate) roots: Vec<Option<Ref>>,
    /// Vacant slots of the root slab.
    pub(crate) root_free: Vec<u32>,
    pub(crate) auto_gc: bool,
    pub(crate) auto_reorder: bool,
    /// Auto-GC fires when `live_nodes` reaches this (doubles after each).
    pub(crate) gc_trigger: usize,
    /// Auto-reorder fires when `live_nodes` reaches this.
    pub(crate) reorder_trigger: usize,
    cache_hits: u64,
    cache_misses: u64,
    pub(crate) gc_runs: u64,
    pub(crate) gc_freed: u64,
    pub(crate) reorder_runs: u64,
    pub(crate) reorder_swaps: u64,
    pub(crate) reorder_ns: u64,
    pub(crate) obs: ObsHandles,
}

impl Manager {
    /// Creates a manager for functions over `num_vars` Boolean variables
    /// numbered `0..num_vars` (variable 0 is tested first until a reorder
    /// changes the level maps).
    ///
    /// Metric handles are captured from the [`clarify_obs::global`]
    /// registry *current at this call*; use [`Manager::with_registry`]
    /// to inject one explicitly (isolated tests, per-request registries).
    pub fn new(num_vars: u32) -> Self {
        Self::with_capacity(num_vars, DEFAULT_NODE_HINT)
    }

    /// Like [`Manager::new`], but pre-sizes the unique table and computed
    /// cache for roughly `node_hint` live nodes, so workloads with a known
    /// footprint (the analysis spaces derive one from their atomic
    /// predicate counts) skip the early rehash ladder. The hint is only a
    /// hint: the arena and unique table still grow on demand, and the
    /// computed cache is clamped to a bounded size either way.
    pub fn with_capacity(num_vars: u32, node_hint: usize) -> Self {
        Self::with_capacity_and_registry(num_vars, node_hint, &clarify_obs::global())
    }

    /// Like [`Manager::new`], but records metrics into `registry`
    /// instead of the process-global one.
    pub fn with_registry(num_vars: u32, registry: &Registry) -> Self {
        Self::with_capacity_and_registry(num_vars, DEFAULT_NODE_HINT, registry)
    }

    /// The fully explicit constructor: capacity hint plus registry.
    pub fn with_capacity_and_registry(
        num_vars: u32,
        node_hint: usize,
        registry: &Registry,
    ) -> Self {
        // Slot 0 is the terminal; its children are never followed because
        // `is_const` handles take an early return everywhere.
        let terminal = Node {
            var: TERMINAL_VAR,
            lo: Ref::TRUE,
            hi: Ref::TRUE,
        };
        let mut nodes = Vec::with_capacity(node_hint.saturating_add(1).min(1 << 24));
        nodes.push(terminal);
        Manager {
            nodes,
            unique: UniqueTable::with_node_capacity(node_hint),
            computed: ComputedCache::with_node_capacity(node_hint),
            num_vars,
            var2level: (0..num_vars).collect(),
            level2var: (0..num_vars).collect(),
            order_identity: true,
            free: Vec::new(),
            live_nodes: 0,
            roots: Vec::new(),
            root_free: Vec::new(),
            auto_gc: false,
            auto_reorder: false,
            gc_trigger: GC_FLOOR,
            reorder_trigger: REORDER_FLOOR,
            cache_hits: 0,
            cache_misses: 0,
            gc_runs: 0,
            gc_freed: 0,
            reorder_runs: 0,
            reorder_swaps: 0,
            reorder_ns: 0,
            obs: ObsHandles::capture(registry),
        }
    }

    /// Number of variables this manager was created with.
    pub fn num_vars(&self) -> u32 {
        self.num_vars
    }

    /// Live internal nodes right now (terminal and swept slots excluded).
    pub fn live_node_count(&self) -> usize {
        self.live_nodes
    }

    /// The current level of variable `var` (0 is tested first).
    pub fn level_of_var(&self, var: u32) -> u32 {
        self.var2level[var as usize]
    }

    /// Current counters.
    pub fn stats(&self) -> Stats {
        let complement_edges = self
            .nodes
            .iter()
            .skip(1)
            .filter(|n| n.var < DEAD_VAR && n.lo.is_complement())
            .count();
        Stats {
            nodes: self.live_nodes,
            capacity_nodes: self.nodes.len() - 1,
            complement_edges,
            cache_hits: self.cache_hits,
            cache_misses: self.cache_misses,
            ite_cache_entries: self.computed.live(),
            unique_probes: self.unique.probes(),
            computed_evictions: self.computed.evictions(),
            gc_runs: self.gc_runs,
            gc_freed_nodes: self.gc_freed,
            reorder_runs: self.reorder_runs,
            reorder_swaps: self.reorder_swaps,
            reorder_ns: self.reorder_ns,
        }
    }

    /// Empties the computed cache while preserving the unique table, so
    /// every outstanding [`Ref`] stays valid and hash-consing (and
    /// therefore canonicity) is unaffected — *unless* automatic
    /// collection or reordering has been armed via
    /// [`Manager::set_auto_gc`] / [`Manager::set_auto_reorder`], in which
    /// case this call is also the trigger point: with enough live nodes a
    /// mark-and-sweep (and possibly a sifting pass) runs here, and only
    /// refs reachable from [`Manager::protect`] roots survive. Bare
    /// managers (none armed) keep the historical contract exactly.
    ///
    /// The cache memoizes *history*: entries for intermediate functions
    /// from finished queries are rarely hit again. Long-running callers
    /// (the disambiguators between rounds, the linter between objects)
    /// call this at phase boundaries — which is also the only moment no
    /// operation is mid-recursion, making it the safe point for the
    /// collector.
    pub fn clear_op_caches(&mut self) {
        self.obs.cache_clears.incr();
        let live = self.computed.reset();
        self.obs.ite_cache_entries.sub(live as i64);
        self.maybe_collect();
    }

    pub(crate) fn node(&self, r: Ref) -> Node {
        debug_assert!(!r.is_const());
        debug_assert!(self.nodes[r.idx()].var < DEAD_VAR, "ref to a dead node");
        self.nodes[r.idx()]
    }

    /// The level used for ordering comparisons; terminals sort last.
    pub(crate) fn level(&self, r: Ref) -> u32 {
        if r.is_const() {
            u32::MAX
        } else {
            self.var2level[self.node(r).var as usize]
        }
    }

    /// The cofactors of `f` with the complement bit pushed onto them.
    pub(crate) fn children(&self, f: Ref) -> (Ref, Ref) {
        let n = self.node(f);
        if f.is_complement() {
            (n.lo.complement(), n.hi.complement())
        } else {
            (n.lo, n.hi)
        }
    }

    /// Cofactors of `f` with respect to the order level `level`.
    fn cofactors_at(&self, f: Ref, level: u32) -> (Ref, Ref) {
        if !f.is_const() && self.level(f) == level {
            self.children(f)
        } else {
            (f, f)
        }
    }

    /// Finds or creates the node `(var, lo, hi)`, applying the reduction
    /// rule and the complement-edge canonicalization: if the then-edge
    /// would be complemented, both edges are flipped and the complement
    /// moves to the returned handle, so stored nodes always have a
    /// regular then-edge.
    pub(crate) fn mk(&mut self, var: u32, lo: Ref, hi: Ref) -> Ref {
        if lo == hi {
            return lo;
        }
        if hi.is_complement() {
            let r = self.mk_raw(var, lo.complement(), hi.complement());
            return r.complement();
        }
        self.mk_raw(var, lo, hi)
    }

    fn mk_raw(&mut self, var: u32, lo: Ref, hi: Ref) -> Ref {
        debug_assert!(!hi.is_complement());
        debug_assert!(
            self.var2level[var as usize] < self.level(lo)
                && self.var2level[var as usize] < self.level(hi),
            "order violation"
        );
        // Grow (if needed) before probing so the insertion slot stays valid.
        self.unique.reserve_one(&self.nodes);
        let probes_before = self.unique.probes();
        let r = match self.unique.find_or_slot(&self.nodes, var, lo.0, hi.0) {
            Ok(idx) => Ref(idx << 1),
            Err(slot) => {
                let idx = self.alloc_node(Node { var, lo, hi });
                self.unique.insert(slot, idx);
                self.obs.unique_nodes.add(1);
                Ref(idx << 1)
            }
        };
        self.obs
            .unique_probes
            .add(self.unique.probes() - probes_before);
        r
    }

    /// Places a node into the arena, reusing a swept slot when one is
    /// free. The caller wires it into whichever table needs it.
    pub(crate) fn alloc_node(&mut self, n: Node) -> u32 {
        self.live_nodes += 1;
        if let Some(idx) = self.free.pop() {
            self.nodes[idx as usize] = n;
            idx
        } else {
            let idx = u32::try_from(self.nodes.len())
                .ok()
                .filter(|&i| i < MAX_INDEX)
                .expect("BDD arena exceeded the index space");
            self.nodes.push(n);
            idx
        }
    }

    /// The function that is true iff variable `var` is true.
    pub fn var(&mut self, var: u32) -> Ref {
        assert!(var < self.num_vars, "variable {var} out of range");
        self.mk(var, Ref::FALSE, Ref::TRUE)
    }

    /// The function that is true iff variable `var` is false.
    pub fn nvar(&mut self, var: u32) -> Ref {
        assert!(var < self.num_vars, "variable {var} out of range");
        self.mk(var, Ref::TRUE, Ref::FALSE)
    }

    /// A literal: the variable if `positive`, its negation otherwise.
    pub fn literal(&mut self, var: u32, positive: bool) -> Ref {
        if positive {
            self.var(var)
        } else {
            self.nvar(var)
        }
    }

    /// If-then-else: the function `(f & g) | (!f & h)`.
    pub fn ite(&mut self, f: Ref, g: Ref, h: Ref) -> Ref {
        self.obs.ite_calls.incr();
        self.ite_norm(f, g, h)
    }

    /// Standard-triple normalization (Brace–Rudell–Bryant, adapted for
    /// complement edges), then the cached apply. Internal recursion
    /// re-enters here, so the rewrites fire at every level.
    ///
    /// Every two-operand shape is delegated to the [`Manager::and_rec`] /
    /// [`Manager::xor_rec`] kernels — with O(1) negation, conjunction and
    /// exclusive-or are a complete basis, and funneling `f|h`, `!f&h`,
    /// `f->g`, and `f<->g` through two cache namespaces maximizes sharing.
    /// The residual three-operand triples are canonicalized by the two
    /// complement rules: `ite(!f,g,h) = ite(f,h,g)` makes the first
    /// argument regular, and `ite(f,!g,h) = !ite(f,g,!h)` makes the
    /// then-argument regular (the complement moves to the result).
    fn ite_norm(&mut self, mut f: Ref, mut g: Ref, mut h: Ref) -> Ref {
        if f == Ref::TRUE {
            return g;
        }
        if f == Ref::FALSE {
            return h;
        }
        // f is non-constant from here on.
        if g == f {
            g = Ref::TRUE;
        } else if g == f.complement() {
            g = Ref::FALSE;
        }
        if h == f {
            h = Ref::FALSE;
        } else if h == f.complement() {
            h = Ref::TRUE;
        }
        if g == h {
            return g;
        }
        if g == Ref::TRUE && h == Ref::FALSE {
            return f;
        }
        if g == Ref::FALSE && h == Ref::TRUE {
            return f.complement();
        }
        if g == Ref::TRUE {
            // f | h = !(!f & !h)
            let r = self.and_rec(f.complement(), h.complement());
            return r.complement();
        }
        if g == Ref::FALSE {
            return self.and_rec(f.complement(), h);
        }
        if h == Ref::FALSE {
            return self.and_rec(f, g);
        }
        if h == Ref::TRUE {
            // f -> g = !(f & !g)
            let r = self.and_rec(f, g.complement());
            return r.complement();
        }
        if h == g.complement() {
            // ite(f, g, !g) = f <-> g = f ^ !g
            return self.xor_rec(f, g.complement());
        }
        if f.is_complement() {
            f = f.regular();
            std::mem::swap(&mut g, &mut h);
        }
        if g.is_complement() {
            let r = self.ite_apply(f, g.complement(), h.complement());
            return r.complement();
        }
        self.ite_apply(f, g, h)
    }

    /// The cached Shannon expansion for an already-normalized triple
    /// (`f` and `g` regular and non-constant, `h` non-constant).
    fn ite_apply(&mut self, f: Ref, g: Ref, h: Ref) -> Ref {
        debug_assert!(!f.is_complement() && !g.is_complement());
        if let Some(r) = self.computed.get(f.0, g.0, h.0) {
            self.cache_hits += 1;
            self.obs.cache_hits.incr();
            return Ref(r);
        }
        self.cache_misses += 1;
        self.obs.cache_misses.incr();

        let top = self.level(f).min(self.level(g)).min(self.level(h));
        let (f0, f1) = self.cofactors_at(f, top);
        let (g0, g1) = self.cofactors_at(g, top);
        let (h0, h1) = self.cofactors_at(h, top);
        let lo = self.ite_norm(f0, g0, h0);
        let hi = self.ite_norm(f1, g1, h1);
        let var = self.level2var[top as usize];
        let r = self.mk(var, lo, hi);
        self.cache_put(f.0, g.0, h.0, r.0);
        r
    }

    /// Records an operation result, keeping the occupancy gauge and the
    /// eviction counter in step with what the lossy cache actually did.
    fn cache_put(&mut self, f: u32, g: u32, h: u32, r: u32) {
        match self.computed.put(f, g, h, r) {
            PutOutcome::Fresh => self.obs.ite_cache_entries.add(1),
            PutOutcome::Evicted => self.obs.computed_evictions.incr(),
            PutOutcome::Refreshed => {}
        }
    }

    /// Logical negation: with complement edges this is one bit flip — no
    /// recursion, no allocation, no cache traffic.
    pub fn not(&self, f: Ref) -> Ref {
        f.complement()
    }

    /// Logical conjunction — one of the two real kernels. Operands are
    /// ordered by tagged value so `and(a, b)` and `and(b, a)` share one
    /// `(a, b, OP_AND)` computed-cache entry.
    pub fn and(&mut self, f: Ref, g: Ref) -> Ref {
        self.obs.ite_calls.incr();
        self.and_rec(f, g)
    }

    fn and_rec(&mut self, f: Ref, g: Ref) -> Ref {
        if f == Ref::TRUE || f == g {
            return g;
        }
        if g == Ref::TRUE {
            return f;
        }
        if f == Ref::FALSE || g == Ref::FALSE || f == g.complement() {
            return Ref::FALSE;
        }
        let (f, g) = if g.0 < f.0 { (g, f) } else { (f, g) };
        if let Some(r) = self.computed.get(f.0, g.0, OP_AND) {
            self.cache_hits += 1;
            self.obs.cache_hits.incr();
            return Ref(r);
        }
        self.cache_misses += 1;
        self.obs.cache_misses.incr();
        let top = self.level(f).min(self.level(g));
        let (f0, f1) = self.cofactors_at(f, top);
        let (g0, g1) = self.cofactors_at(g, top);
        let lo = self.and_rec(f0, g0);
        let hi = self.and_rec(f1, g1);
        let var = self.level2var[top as usize];
        let r = self.mk(var, lo, hi);
        self.cache_put(f.0, g.0, OP_AND, r.0);
        r
    }

    /// Logical disjunction: `!( !f & !g )` — a complement-edge rewrite
    /// that reuses the conjunction kernel and its cache namespace.
    pub fn or(&mut self, f: Ref, g: Ref) -> Ref {
        self.obs.ite_calls.incr();
        let r = self.and_rec(f.complement(), g.complement());
        r.complement()
    }

    /// Exclusive or — the second real kernel. Complement bits factor out
    /// (`!a ^ b = !(a ^ b)`), so the cache key is always over two regular
    /// refs and all four polarity combinations share one entry.
    pub fn xor(&mut self, f: Ref, g: Ref) -> Ref {
        self.obs.ite_calls.incr();
        self.xor_rec(f, g)
    }

    fn xor_rec(&mut self, f: Ref, g: Ref) -> Ref {
        if f == g {
            return Ref::FALSE;
        }
        if f == g.complement() {
            return Ref::TRUE;
        }
        if f == Ref::FALSE {
            return g;
        }
        if g == Ref::FALSE {
            return f;
        }
        if f == Ref::TRUE {
            return g.complement();
        }
        if g == Ref::TRUE {
            return f.complement();
        }
        let parity = f.is_complement() ^ g.is_complement();
        let (f, g) = (f.regular(), g.regular());
        let (f, g) = if g.0 < f.0 { (g, f) } else { (f, g) };
        let r = if let Some(r) = self.computed.get(f.0, g.0, OP_XOR) {
            self.cache_hits += 1;
            self.obs.cache_hits.incr();
            Ref(r)
        } else {
            self.cache_misses += 1;
            self.obs.cache_misses.incr();
            let top = self.level(f).min(self.level(g));
            let (f0, f1) = self.cofactors_at(f, top);
            let (g0, g1) = self.cofactors_at(g, top);
            let lo = self.xor_rec(f0, g0);
            let hi = self.xor_rec(f1, g1);
            let var = self.level2var[top as usize];
            let r = self.mk(var, lo, hi);
            self.cache_put(f.0, g.0, OP_XOR, r.0);
            r
        };
        if parity {
            r.complement()
        } else {
            r
        }
    }

    /// Material implication `f -> g = !(f & !g)`.
    pub fn implies(&mut self, f: Ref, g: Ref) -> Ref {
        self.obs.ite_calls.incr();
        let r = self.and_rec(f, g.complement());
        r.complement()
    }

    /// Biconditional `f <-> g = !(f ^ g)`.
    pub fn iff(&mut self, f: Ref, g: Ref) -> Ref {
        self.obs.ite_calls.incr();
        let r = self.xor_rec(f, g);
        r.complement()
    }

    /// Difference `f & !g`.
    pub fn diff(&mut self, f: Ref, g: Ref) -> Ref {
        self.obs.ite_calls.incr();
        self.and_rec(f, g.complement())
    }

    /// Conjunction over an iterator (true for the empty sequence).
    pub fn and_all<I: IntoIterator<Item = Ref>>(&mut self, items: I) -> Ref {
        let mut acc = Ref::TRUE;
        for r in items {
            acc = self.and(acc, r);
            if acc == Ref::FALSE {
                break;
            }
        }
        acc
    }

    /// Disjunction over an iterator (false for the empty sequence).
    pub fn or_all<I: IntoIterator<Item = Ref>>(&mut self, items: I) -> Ref {
        let mut acc = Ref::FALSE;
        for r in items {
            acc = self.or(acc, r);
            if acc == Ref::TRUE {
                break;
            }
        }
        acc
    }

    /// Whether `f -> g` is a tautology, i.e. every model of `f` models `g`.
    pub fn implies_true(&mut self, f: Ref, g: Ref) -> bool {
        self.implies(f, g) == Ref::TRUE
    }

    /// Whether `f` and `g` share at least one model.
    pub fn intersects(&mut self, f: Ref, g: Ref) -> bool {
        self.and(f, g) != Ref::FALSE
    }

    /// Existential quantification of a set of variables (sorted or not).
    pub fn exists(&mut self, f: Ref, vars: &[u32]) -> Ref {
        let mut levels: Vec<u32> = vars.iter().map(|&v| self.var2level[v as usize]).collect();
        levels.sort_unstable();
        levels.dedup();
        let mut memo = HashMap::new();
        self.exists_rec(f, &levels, &mut memo)
    }

    fn exists_rec(&mut self, f: Ref, levels: &[u32], memo: &mut HashMap<Ref, Ref>) -> Ref {
        if f.is_const() || levels.is_empty() {
            return f;
        }
        let fl = self.level(f);
        // Drop quantified levels that are above the node's level. `rest`
        // is a function of `f` alone (for one fixed query), so the memo
        // can key on the tagged ref.
        let rest = match levels.iter().position(|&l| l >= fl) {
            Some(i) => &levels[i..],
            None => return f,
        };
        if let Some(&r) = memo.get(&f) {
            return r;
        }
        let (lo, hi) = self.children(f);
        let var = self.node(f).var;
        let r = if rest.first() == Some(&fl) {
            let lo = self.exists_rec(lo, &rest[1..], memo);
            let hi = self.exists_rec(hi, &rest[1..], memo);
            // lo | hi via the conjunction kernel.
            let r = self.and_rec(lo.complement(), hi.complement());
            r.complement()
        } else {
            let lo = self.exists_rec(lo, rest, memo);
            let hi = self.exists_rec(hi, rest, memo);
            self.mk(var, lo, hi)
        };
        memo.insert(f, r);
        r
    }

    /// Universal quantification of a set of variables.
    pub fn forall(&mut self, f: Ref, vars: &[u32]) -> Ref {
        let e = self.exists(f.complement(), vars);
        e.complement()
    }

    /// Restricts `f` by fixing `var` to `value`.
    pub fn restrict(&mut self, f: Ref, var: u32, value: bool) -> Ref {
        let mut memo = HashMap::new();
        self.restrict_rec(f, var, value, &mut memo)
    }

    fn restrict_rec(&mut self, f: Ref, var: u32, value: bool, memo: &mut HashMap<Ref, Ref>) -> Ref {
        if f.is_const() {
            return f;
        }
        let target = self.var2level[var as usize];
        if self.level(f) > target {
            return f;
        }
        if let Some(&r) = memo.get(&f) {
            return r;
        }
        let n = self.node(f);
        let (lo, hi) = self.children(f);
        let r = if n.var == var {
            if value {
                hi
            } else {
                lo
            }
        } else {
            let lo = self.restrict_rec(lo, var, value, memo);
            let hi = self.restrict_rec(hi, var, value, memo);
            self.mk(n.var, lo, hi)
        };
        memo.insert(f, r);
        r
    }

    /// Number of satisfying assignments over all `num_vars` variables,
    /// as an `f64` (exact for counts below 2^53; analyses here stay far
    /// below that threshold per field).
    pub fn sat_count(&self, f: Ref) -> f64 {
        let mut memo: HashMap<u32, f64> = HashMap::new();
        let frac = self.sat_fraction(f, &mut memo);
        frac * 2f64.powi(self.num_vars as i32)
    }

    /// Fraction of the full assignment space that satisfies `f` (in
    /// `[0,1]`). Memoized on the regular ref; a complemented handle is
    /// `1 - fraction(regular)`.
    fn sat_fraction(&self, f: Ref, memo: &mut HashMap<u32, f64>) -> f64 {
        if f == Ref::TRUE {
            return 1.0;
        }
        if f == Ref::FALSE {
            return 0.0;
        }
        let reg = f.regular();
        let x = if let Some(&x) = memo.get(&reg.0) {
            x
        } else {
            let n = self.node(reg);
            let x = 0.5 * self.sat_fraction(n.lo, memo) + 0.5 * self.sat_fraction(n.hi, memo);
            memo.insert(reg.0, x);
            x
        };
        if f.is_complement() {
            1.0 - x
        } else {
            x
        }
    }

    /// Returns one satisfying assignment as a [`Cube`], or `None` when
    /// `f` is unsatisfiable.
    ///
    /// The witness is *order-invariant*: it is the assignment that is
    /// lexicographically minimal in variable-id significance (variable 0
    /// most significant, `false < true`), restricted to the variables the
    /// successively restricted function still depends on — so reordering
    /// the manager never changes a decoded witness. With the identity
    /// order this is exactly the classic low-preferring path walk, which
    /// stays the O(depth) fast path.
    pub fn any_sat(&self, f: Ref) -> Option<Cube> {
        self.lex_sat(f, false)
    }

    /// Like [`Manager::any_sat`], but prefers the **high** branch
    /// (lexicographically maximal over the constrained variables),
    /// yielding a different witness when one exists. Equally
    /// order-invariant.
    pub fn any_sat_high(&self, f: Ref) -> Option<Cube> {
        self.lex_sat(f, true)
    }

    fn lex_sat(&self, f: Ref, prefer_high: bool) -> Option<Cube> {
        if f == Ref::FALSE {
            return None;
        }
        let mut cube = Cube::unconstrained(self.num_vars);
        if self.order_identity {
            // Fast path: with levels == variable ids the greedy walk
            // visits variables in id order, so "take the preferred branch
            // unless it is FALSE" *is* the lex-extreme assignment and the
            // visited nodes are exactly the constrained variables.
            let mut cur = f;
            while !cur.is_const() {
                let n = self.node(cur);
                let (lo, hi) = self.children(cur);
                let pick_hi = if prefer_high {
                    hi != Ref::FALSE
                } else {
                    lo == Ref::FALSE
                };
                cube.set(n.var, pick_hi);
                cur = if pick_hi { hi } else { lo };
            }
            debug_assert_eq!(cur, Ref::TRUE);
            return Some(cube);
        }
        // General path (after a reorder): decide variables in id order by
        // probing satisfiability under the partial assignment built so
        // far. Each probe is one DFS over the (restricted) graph, so a
        // witness costs O(num_vars * size) — cold-path only.
        let mut fixed: Vec<Option<bool>> = vec![None; self.num_vars as usize];
        for v in 0..self.num_vars {
            if !self.dep_under(f, v, &fixed) {
                continue;
            }
            fixed[v as usize] = Some(prefer_high);
            if !self.sat_under(f, &fixed) {
                fixed[v as usize] = Some(!prefer_high);
            }
            cube.set(v, fixed[v as usize].unwrap());
        }
        Some(cube)
    }

    /// Whether `f` restricted by `fixed` has a satisfying assignment.
    fn sat_under(&self, f: Ref, fixed: &[Option<bool>]) -> bool {
        let mut memo: HashMap<u32, bool> = HashMap::new();
        self.sat_under_rec(f, fixed, &mut memo)
    }

    fn sat_under_rec(&self, f: Ref, fixed: &[Option<bool>], memo: &mut HashMap<u32, bool>) -> bool {
        if f == Ref::TRUE {
            return true;
        }
        if f == Ref::FALSE {
            return false;
        }
        if let Some(&b) = memo.get(&f.0) {
            return b;
        }
        let n = self.node(f);
        let (lo, hi) = self.children(f);
        let b = match fixed[n.var as usize] {
            Some(true) => self.sat_under_rec(hi, fixed, memo),
            Some(false) => self.sat_under_rec(lo, fixed, memo),
            None => self.sat_under_rec(lo, fixed, memo) || self.sat_under_rec(hi, fixed, memo),
        };
        memo.insert(f.0, b);
        b
    }

    /// Whether `f` restricted by `fixed` still *semantically* depends on
    /// `v`: is there an assignment of the free variables (consistent with
    /// `fixed`) under which flipping `v` flips the value?
    ///
    /// Mere reachability of a `v`-labelled node is not enough: once a
    /// reorder places a fixed variable below `v`'s level, the two
    /// cofactors of a reachable `v` node can coincide after restriction.
    /// So this walks *pairs*: the left side carries `v -> 0`, the right
    /// side `v -> 1`, every other variable is branched in lockstep, and
    /// the functions differ iff some leaf pair disagrees.
    fn dep_under(&self, f: Ref, v: u32, fixed: &[Option<bool>]) -> bool {
        let mut memo: HashMap<(u32, u32), bool> = HashMap::new();
        self.dep_under_rec(f, f, v, fixed, &mut memo)
    }

    fn dep_under_rec(
        &self,
        a: Ref,
        b: Ref,
        v: u32,
        fixed: &[Option<bool>],
        memo: &mut HashMap<(u32, u32), bool>,
    ) -> bool {
        if a.is_const() && b.is_const() {
            return a != b;
        }
        if let Some(&d) = memo.get(&(a.0, b.0)) {
            return d;
        }
        // Expand the topmost level present on either side; the other side
        // is independent of that variable and keeps both cofactors equal.
        let la = self.level(a);
        let lb = self.level(b);
        let l = la.min(lb);
        let w = self.level2var[l as usize];
        let (a0, a1) = if la == l { self.children(a) } else { (a, a) };
        let (b0, b1) = if lb == l { self.children(b) } else { (b, b) };
        let d = if w == v {
            self.dep_under_rec(a0, b1, v, fixed, memo)
        } else {
            match fixed[w as usize] {
                Some(true) => self.dep_under_rec(a1, b1, v, fixed, memo),
                Some(false) => self.dep_under_rec(a0, b0, v, fixed, memo),
                None => {
                    self.dep_under_rec(a0, b0, v, fixed, memo)
                        || self.dep_under_rec(a1, b1, v, fixed, memo)
                }
            }
        };
        memo.insert((a.0, b.0), d);
        d
    }

    /// Evaluates `f` under a total assignment.
    pub fn eval(&self, f: Ref, assignment: &dyn Fn(u32) -> bool) -> bool {
        let mut cur = f;
        while !cur.is_const() {
            let n = self.node(cur);
            let (lo, hi) = self.children(cur);
            cur = if assignment(n.var) { hi } else { lo };
        }
        cur == Ref::TRUE
    }

    /// The set of variables `f` actually depends on, ascending by id.
    pub fn support(&self, f: Ref) -> Vec<u32> {
        let mut seen = HashSet::new();
        let mut vars = std::collections::BTreeSet::new();
        let mut stack = vec![f.regular()];
        while let Some(r) = stack.pop() {
            if r.is_const() || !seen.insert(r.index()) {
                continue;
            }
            let n = self.node(r);
            vars.insert(n.var);
            stack.push(n.lo.regular());
            stack.push(n.hi.regular());
        }
        vars.into_iter().collect()
    }

    /// Number of internal nodes reachable from `f` (a size measure;
    /// `f` and `!f` share all of them).
    pub fn size(&self, f: Ref) -> usize {
        let mut seen = HashSet::new();
        let mut stack = vec![f.regular()];
        let mut count = 0;
        while let Some(r) = stack.pop() {
            if r.is_const() || !seen.insert(r.index()) {
                continue;
            }
            count += 1;
            let n = self.node(r);
            stack.push(n.lo.regular());
            stack.push(n.hi.regular());
        }
        count
    }

    /// Builds the function "the variables `vars` (MSB first) encode exactly
    /// the value `value`". Panics if `value` does not fit in `vars.len()` bits.
    pub fn eq_const(&mut self, vars: &[u32], value: u64) -> Ref {
        assert!(
            vars.len() >= 64 - value.leading_zeros() as usize,
            "value {value} does not fit in {} bits",
            vars.len()
        );
        let mut acc = Ref::TRUE;
        for (i, &v) in vars.iter().enumerate() {
            // Positions beyond the u64 width hold leading zero bits.
            let shift = vars.len() - 1 - i;
            let bit = shift < 64 && (value >> shift) & 1 == 1;
            let lit = self.literal(v, bit);
            acc = self.and(acc, lit);
        }
        acc
    }

    /// Builds "the unsigned value of `vars` (MSB first) is <= `bound`".
    pub fn le_const(&mut self, vars: &[u32], bound: u64) -> Ref {
        // A bound that does not fit would silently truncate into a
        // different constraint.
        assert!(
            vars.len() >= 64 - bound.leading_zeros() as usize,
            "bound {bound} does not fit in {} bits",
            vars.len()
        );
        // Walk from MSB: at each position we can either match the bound bit
        // exactly and continue, or go strictly below it and accept.
        let mut acc = Ref::TRUE; // all remaining bits equal the bound so far
                                 // Build from LSB side backwards for a linear-size result.
        for (i, &v) in vars.iter().enumerate().rev() {
            let shift = vars.len() - 1 - i;
            let bit = shift < 64 && (bound >> shift) & 1 == 1;
            let lit = self.var(v);
            acc = if bit {
                // var may be 0 (strictly less, rest free) or 1 (must stay <=).
                let stay = self.and(lit, acc);
                self.or(lit.complement(), stay)
            } else {
                // var must be 0 and the rest must stay <=.
                self.and(lit.complement(), acc)
            };
        }
        acc
    }

    /// Builds "the unsigned value of `vars` (MSB first) is >= `bound`".
    pub fn ge_const(&mut self, vars: &[u32], bound: u64) -> Ref {
        if bound == 0 {
            return Ref::TRUE;
        }
        let le = self.le_const(vars, bound - 1);
        le.complement()
    }

    /// Builds "the unsigned value of `vars` lies in `[lo, hi]`" (inclusive).
    pub fn range_const(&mut self, vars: &[u32], lo: u64, hi: u64) -> Ref {
        if lo > hi {
            return Ref::FALSE;
        }
        let ge = self.ge_const(vars, lo);
        let le = self.le_const(vars, hi);
        self.and(ge, le)
    }
}

impl Drop for Manager {
    /// Lowers the live-resource gauges by this manager's contribution,
    /// so `bdd.unique_nodes` / `bdd.ite_cache_entries` track what is
    /// actually alive across short-lived per-analysis managers.
    fn drop(&mut self) {
        self.obs.unique_nodes.sub(self.live_nodes as i64);
        self.obs.ite_cache_entries.sub(self.computed.live() as i64);
    }
}

impl std::fmt::Debug for Manager {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Manager")
            .field("num_vars", &self.num_vars)
            .field("live_nodes", &self.live_nodes)
            .field("capacity_nodes", &(self.nodes.len() - 1))
            .finish()
    }
}

impl Manager {
    /// Exact number of satisfying assignments as a `u128`. Panics if the
    /// manager has more than 127 variables (use [`Manager::sat_count`]
    /// there); all Clarify spaces stay below that bound.
    pub fn sat_count_exact(&self, f: Ref) -> u128 {
        assert!(
            self.num_vars <= 127,
            "sat_count_exact supports at most 127 variables"
        );
        let mut memo: HashMap<u32, u128> = HashMap::new();
        self.count_from(f, 0, &mut memo)
    }

    /// Models of `f` assuming the order levels `level..num_vars` are
    /// still free. Memoized per regular node; a complemented handle's
    /// count is the remaining assignment space minus the regular count.
    fn count_from(&self, f: Ref, level: u32, memo: &mut HashMap<u32, u128>) -> u128 {
        let total = 1u128 << (self.num_vars - level);
        if f == Ref::TRUE {
            return total;
        }
        if f == Ref::FALSE {
            return 0;
        }
        let reg = f.regular();
        let node_level = self.level(reg);
        let at_node = if let Some(&c) = memo.get(&reg.0) {
            c
        } else {
            let n = self.node(reg);
            let lo = self.count_from(n.lo, node_level + 1, memo);
            let hi = self.count_from(n.hi, node_level + 1, memo);
            let c = lo + hi;
            memo.insert(reg.0, c);
            c
        };
        // Scale by the levels skipped between `level` and the node's.
        let scaled = at_node << (node_level - level);
        if f.is_complement() {
            total - scaled
        } else {
            scaled
        }
    }
}
