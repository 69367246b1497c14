//! Keyed symbolic state for incremental re-analysis.
//!
//! The interactive loop of the paper (edit intent → re-verify → re-ask)
//! re-runs the symbolic analyses after every small edit. This module keys
//! the expensive artifacts — per-object fire-sets — by `(RuleId, content
//! hash)` so an edit to one stanza invalidates only the object it touches,
//! and a reverted edit (the A/B toggling a dialogue produces) hits the
//! object's previous generation outright.
//!
//! Refs stored here point into one specific space's BDD manager, which
//! garbage-collects unrooted nodes at the
//! [`Manager::clear_op_caches`](clarify_bdd::Manager::clear_op_caches)
//! seam — so every cached entry pins its refs with [`clarify_bdd::Root`]
//! handles at insertion time, and they survive collection and reordering
//! alike. A [`FireSetCache`] is sound exactly as long as its space lives;
//! callers that rebuild a space (e.g. because the atom environment
//! changed) must drop the cache with it. Its roots go unreleased then,
//! which is safe: they only pin nodes of the manager being dropped.

use std::collections::HashMap;

use clarify_bdd::{Manager, Ref, Root};
use clarify_netconfig::{fnv1a64_combine, Config, RuleId};

use crate::error::AnalysisError;
use crate::first_match::FirstMatchPolicy;

/// Hash of the **atom environment** a [`RouteSpace`](crate::RouteSpace)
/// would build for the given configurations: the deduplicated community
/// and AS-path regex pattern lists, in the exact first-seen order
/// [`RouteSpace::new`](crate::RouteSpace::new) collects them. Two
/// configurations with equal atom-env hashes produce route spaces with
/// identical variable layouts and atom witnesses, so route-map findings
/// (including decoded witnesses) carry over verbatim; when the hash
/// changes, every route-map analysis is dirty, because atom witnesses —
/// and with them, rendered diagnostics — may shift even for untouched
/// maps.
pub fn atom_env_hash(configs: &[&Config]) -> u64 {
    let mut comm_seen: HashMap<&str, ()> = HashMap::new();
    let mut path_seen: HashMap<&str, ()> = HashMap::new();
    let mut h = clarify_netconfig::fnv1a64(b"atom-env/v1");
    for cfg in configs {
        for cl in cfg.community_lists.values() {
            for e in &cl.entries {
                let pat = e.regex.pattern();
                if let std::collections::hash_map::Entry::Vacant(v) = comm_seen.entry(pat) {
                    v.insert(());
                    h = fnv1a64_combine(h, clarify_netconfig::fnv1a64(pat.as_bytes()));
                }
            }
        }
    }
    h = fnv1a64_combine(h, 0xa5a5_a5a5_a5a5_a5a5); // comm/path separator
    for cfg in configs {
        for al in cfg.as_path_lists.values() {
            for e in &al.entries {
                let pat = e.regex.pattern();
                if let std::collections::hash_map::Entry::Vacant(v) = path_seen.entry(pat) {
                    v.insert(());
                    h = fnv1a64_combine(h, clarify_netconfig::fnv1a64(pat.as_bytes()));
                }
            }
        }
    }
    h
}

/// First-match firing regions of one object: one set per rule, plus the
/// fall-through remainder (the implicit trailing deny).
#[derive(Clone, Debug)]
pub struct FireSets {
    /// Firing region per stanza/entry, in order.
    pub fires: Vec<Ref>,
    /// Assignments reaching the end without matching.
    pub remainder: Ref,
}

/// One cached generation: an object's fire-sets under one content hash,
/// plus the [`Root`] handles pinning every ref in them against garbage
/// collection.
#[derive(Debug)]
struct Generation {
    hash: u64,
    sets: FireSets,
    roots: Vec<Root>,
}

/// Generations kept per object: the current one and the previous one.
const GENERATIONS: usize = 2;

/// A fire-set cache keyed by `(object identity, content hash)`.
///
/// Keying by hash — not just identity — means a dirty object simply
/// misses (its hash changed) while its previous generation stays
/// retrievable: reverting an edit restores the old hash and hits again.
/// Each object keeps at most two generations, the two most recently
/// used; storing a third evicts the older of them and releases its roots
/// in the owning space's manager, so a long edit session pins a bounded
/// number of BDD nodes however many edits it makes.
#[derive(Debug, Default)]
pub struct FireSetCache {
    /// Per object, its generations, least recently used first.
    entries: HashMap<RuleId, Vec<Generation>>,
}

impl FireSetCache {
    /// An empty cache.
    pub fn new() -> FireSetCache {
        FireSetCache::default()
    }

    /// Number of cached generations (not distinct objects).
    pub fn len(&self) -> usize {
        self.entries.values().map(Vec::len).sum()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Looks up the fire-sets of `id` at content hash `hash`, recording
    /// `incr.cache_hits` / `incr.cache_misses`. A hit becomes the object's
    /// most recently used generation.
    pub fn get(&mut self, id: &RuleId, hash: u64) -> Option<&FireSets> {
        let gens = self.entries.get_mut(id);
        let hit = gens.and_then(|gens| {
            let pos = gens.iter().position(|g| g.hash == hash)?;
            gens[pos..].rotate_left(1);
            gens.last()
        });
        let counter = match hit {
            Some(_) => "incr.cache_hits",
            None => "incr.cache_misses",
        };
        clarify_obs::global().counter(counter).incr();
        hit.map(|g| &g.sets)
    }

    /// Stores the fire-sets of `id` at content hash `hash`, protecting
    /// every ref in `mgr` — which must be the manager of the space that
    /// built `sets` — so the entry survives collection and reordering.
    /// Generations beyond the object's two most recent are evicted and
    /// their roots released.
    pub fn insert(&mut self, mgr: &mut Manager, id: RuleId, hash: u64, sets: FireSets) {
        let roots = sets
            .fires
            .iter()
            .chain(std::iter::once(&sets.remainder))
            .map(|&r| mgr.protect(r))
            .collect();
        let gens = self.entries.entry(id).or_default();
        let stale = gens.iter().position(|g| g.hash == hash);
        let evicted = stale.map(|pos| gens.remove(pos));
        gens.push(Generation { hash, sets, roots });
        let excess = gens.len().saturating_sub(GENERATIONS);
        for old in evicted.into_iter().chain(gens.drain(..excess)) {
            for root in old.roots {
                mgr.unprotect(root);
            }
        }
    }
}

/// [`FirstMatchPolicy::fire_sets`] through a [`FireSetCache`], keyed by
/// the policy's object identity and `hash` (its content hash — the
/// caller computes it once per edit via
/// [`Config::object_hashes`](clarify_netconfig::Config::object_hashes)).
pub fn fire_sets_cached<P: FirstMatchPolicy>(
    space: &mut P::Space,
    cache: &mut FireSetCache,
    cfg: &Config,
    policy: &P,
    hash: u64,
) -> Result<FireSets, AnalysisError> {
    let id = policy.object_id();
    if let Some(sets) = cache.get(&id, hash) {
        return Ok(sets.clone());
    }
    let (fires, remainder) = policy.fire_sets(space, cfg)?;
    let sets = FireSets { fires, remainder };
    cache.insert(P::manager(space), id, hash, sets.clone());
    Ok(sets)
}
