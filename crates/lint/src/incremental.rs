//! Diff-driven incremental re-lint, and the one driver behind every lint.
//!
//! The correctness oracle is byte-identity: the incremental report must
//! render byte-for-byte equal to a cold [`lint_config`] of the same
//! configuration. That is achievable because every symbolic check is
//! *per-object* — a route-map's diagnostics depend only on its own
//! stanzas, the lists those stanzas reference, and the atom environment
//! (the config-wide regex pattern set that fixes atom witnesses and the
//! route space's variable layout); ACLs and prefix lists depend only on
//! themselves — and because ROBDD canonicity makes every recomputation,
//! on any space with the same atom environment, decode the same
//! witnesses.
//!
//! The dirty set of an edit is therefore: objects whose content hash
//! changed or appeared, route-maps any of whose referenced lists' hashes
//! changed, and — if the atom environment itself changed — every
//! route-map. Everything else splices its cached diagnostics verbatim,
//! with source lines re-applied from the new [`SourceMap`] (an edit
//! shifts every line below it, so cached lines would be wrong even for
//! untouched objects). The reference pass (L005/L006) is a cheap AST
//! walk re-run in full every time.
//!
//! One driver, [`drive`], does all of this for the cold lint (where every
//! object is dirty), the one-shot [`lint_config_incremental`] and the
//! session's [`IncrementalLinter::relint`]. They differ only in how dirty
//! objects are recomputed: the first two use the cold parallel fan-out,
//! the session its retained spaces and keyed fire-set caches.
//!
//! [`lint_config`]: crate::lint_config

use clarify_analysis::{atom_env_hash, AnalysisError, FireSetCache, FirstMatchPolicy};
use clarify_netconfig::{
    fnv1a64_combine, Acl, Config, ObjectHashes, PrefixList, RouteMap, SourceMap,
};

use crate::cache::LintCache;
use crate::diagnostic::{Diagnostic, LintReport};
use crate::linter::{lint_object, lint_objects, lint_references, LintKind};

/// What an incremental run did, for `--stats` and the O(edit) assertions
/// of the differential suite.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct IncrStats {
    /// Objects the symbolic passes cover (route-maps + ACLs + prefix
    /// lists).
    pub total_objects: usize,
    /// Objects recomputed this run.
    pub dirty_objects: usize,
    /// Objects whose cached diagnostics were spliced.
    pub reused_objects: usize,
}

/// One kind's retained session state: its space, built on first use, and
/// the fire-sets cached in that space.
pub(crate) struct KindState<K: FirstMatchPolicy> {
    space: Option<K::Space>,
    fires: FireSetCache,
}

impl<K: FirstMatchPolicy> Default for KindState<K> {
    fn default() -> Self {
        KindState {
            space: None,
            fires: FireSetCache::new(),
        }
    }
}

/// A session's retained state, one [`KindState`] per kind.
#[derive(Default)]
pub(crate) struct SessionState {
    pub(crate) route_maps: KindState<RouteMap>,
    pub(crate) acls: KindState<Acl>,
    pub(crate) prefix_lists: KindState<PrefixList>,
}

impl SessionState {
    /// The diagnostics of each of `objects` (dirty, encodable, in name
    /// order), computed serially on the kind's retained space, through its
    /// keyed fire-set cache.
    fn recompute<K: LintKind>(
        &mut self,
        cfg: &Config,
        hashes: &ObjectHashes,
        objects: &[(&String, &K)],
    ) -> Result<Vec<Vec<Diagnostic>>, AnalysisError> {
        let state = K::state(self);
        objects
            .iter()
            .map(|&(name, obj)| {
                let space = match &mut state.space {
                    Some(s) => s,
                    None => state.space.insert(K::new_space(cfg)?),
                };
                // Fold in the hash of every list the object references: a
                // route-map dirtied by an edit to one keeps its own hash,
                // and would otherwise hit fire-sets built against the old
                // list.
                let own = hashes.get(K::KIND, name).expect("object is in cfg");
                let key = obj
                    .references()
                    .filter_map(|(kind, list)| hashes.get(kind, list))
                    .fold(own, fnv1a64_combine);
                let diags = lint_object(space, cfg, name, obj, Some((&mut state.fires, key)))?;
                K::manager(space).clear_op_caches();
                Ok(diags)
            })
            .collect()
    }
}

/// Lints `cfg`: the reference pass, then each kind's symbolic pass over
/// its dirty objects (all of them without a `prev` run to splice from),
/// with the clean rest spliced from `prev`; then the report tail — source
/// lines, the canonical sort, and the `lint.*` counters (plus `incr.*`
/// when splicing). Dirty objects are recomputed on the retained state of
/// `session`, which always comes with a `prev`, or else by the cold
/// parallel fan-out.
pub(crate) fn drive(
    cfg: &Config,
    spans: Option<&SourceMap>,
    prev: Option<&LintCache>,
    mut session: Option<&mut SessionState>,
) -> Result<(LintReport, IncrStats), AnalysisError> {
    // A cold lint needs no hashes: every object is dirty, nothing is keyed.
    let hashes = prev.map(|_| cfg.object_hashes()).unwrap_or_default();
    let prev = prev.map(|p| (p, atom_env_hash(&[cfg]) != p.atom_env));
    let mut report = LintReport::default();
    {
        let _pass = clarify_obs::span!("lint_references");
        lint_references(cfg, &mut report.diagnostics);
    }
    let out = &mut report.diagnostics;
    let counts = [
        drive_kind::<RouteMap>(cfg, &hashes, prev, session.as_deref_mut(), out)?,
        drive_kind::<Acl>(cfg, &hashes, prev, session.as_deref_mut(), out)?,
        drive_kind::<PrefixList>(cfg, &hashes, prev, session, out)?,
    ];
    let total_objects = counts.iter().map(|c| c.0).sum();
    let dirty_objects = counts.iter().map(|c| c.1).sum();
    let stats = IncrStats {
        total_objects,
        dirty_objects,
        reused_objects: total_objects - dirty_objects,
    };

    if let Some(spans) = spans {
        for d in &mut report.diagnostics {
            d.line = spans.line(&d.rule);
        }
    }
    let report = report.finish();
    let obs = clarify_obs::global();
    obs.counter("lint.configs_linted").incr();
    for d in &report.diagnostics {
        obs.counter(&format!("lint.findings.{}", d.code.code()))
            .incr();
    }
    if prev.is_some() {
        obs.counter("incr.objects_dirty")
            .add(stats.dirty_objects as u64);
        obs.counter("incr.objects_reused")
            .add(stats.reused_objects as u64);
    }
    Ok((report, stats))
}

/// One kind's step of [`drive`]: its dirty set, the recomputation, and the
/// splice in name order — the order the cold lint emits, which the
/// report's stable sort relies on to break ties. `prev` carries whether
/// the atom environment changed. Returns the kind's object and dirty
/// counts.
fn drive_kind<K: LintKind>(
    cfg: &Config,
    hashes: &ObjectHashes,
    prev: Option<(&LintCache, bool)>,
    session: Option<&mut SessionState>,
    out: &mut Vec<Diagnostic>,
) -> Result<(usize, usize), AnalysisError> {
    let _pass = clarify_obs::span!(K::PASS);
    let objects = K::objects(cfg);
    let dirty: Vec<bool> = objects
        .iter()
        .map(|(name, obj)| {
            let Some((cache, atoms_changed)) = prev else {
                return true;
            };
            // A referenced list that changed, appeared, or vanished changes
            // the object's behaviour without touching its text. (A
            // dangling reference hashes to None on both sides and stays
            // clean — the object is skipped by the symbolic pass either
            // way.)
            let changed = |kind, name: &str| {
                cache.object(kind, name).map(|o| o.hash) != hashes.get(kind, name)
            };
            (K::USES_ATOMS && atoms_changed)
                || changed(K::KIND, name)
                || obj.references().any(|(kind, list)| changed(kind, list))
        })
        .collect();
    // Objects with dangling references cannot be encoded: they are dirty
    // but get no fresh block.
    let fresh: Vec<(&String, &K)> = objects
        .iter()
        .zip(&dirty)
        .filter(|&(_, &is_dirty)| is_dirty)
        .map(|(object, _)| object)
        .filter(|(_, obj)| obj.references().all(|(kind, list)| cfg.defines(kind, list)))
        .collect();
    let blocks = match session {
        Some(session) => session.recompute(cfg, hashes, &fresh)?,
        None => lint_objects(cfg, &fresh)?,
    };
    let mut blocks = fresh.iter().map(|&(name, _)| name).zip(blocks).peekable();
    for (name, &is_dirty) in objects.keys().zip(&dirty) {
        if !is_dirty {
            if let Some(cached) = prev.and_then(|(cache, _)| cache.object(K::KIND, name)) {
                out.extend(cached.diagnostics.iter().cloned());
            }
        } else if blocks.peek().is_some_and(|&(fresh, _)| fresh == name) {
            out.extend(blocks.next().expect("peeked").1);
        }
    }
    let dirty_count = dirty.iter().filter(|&&is_dirty| is_dirty).count();
    Ok((objects.len(), dirty_count))
}

/// Lints `cfg` incrementally against the previous run `prev`: recomputes
/// only dirty objects (in parallel, exactly as [`lint_config`] fans out)
/// and splices cached diagnostics for clean ones. The returned report is
/// byte-identical to `lint_config(cfg, spans)`.
///
/// [`lint_config`]: crate::lint_config
pub fn lint_config_incremental(
    cfg: &Config,
    spans: Option<&SourceMap>,
    prev: &LintCache,
) -> Result<(LintReport, IncrStats), AnalysisError> {
    let _span = clarify_obs::span!("lint_incremental");
    drive(cfg, spans, Some(prev), None)
}

/// A stateful re-lint session: retains the BDD spaces and keyed fire-set
/// caches across edits, so interactive loops pay neither the space
/// rebuild nor (on reverted edits) the fire-set build.
///
/// The route space survives as long as the atom environment does — its
/// variable layout is a function of the config's regex pattern set — and
/// the packet/prefix spaces are config-independent and survive forever.
/// Between re-lints the spaces' managers drop their operation caches and
/// may garbage-collect (the
/// [`clear_op_caches`](clarify_bdd::Manager::clear_op_caches) seam);
/// cached fire-set `Ref`s survive because the [`FireSetCache`] roots
/// them. Each object keeps its current and previous fire-set
/// generations — enough for an edit and its revert to hit — so the nodes
/// a session pins stay bounded however many edits it sees.
pub struct IncrementalLinter {
    cfg: Config,
    cache: LintCache,
    state: SessionState,
}

impl IncrementalLinter {
    /// Lints `cfg` in full and opens the session.
    pub fn new(
        cfg: Config,
        spans: Option<&SourceMap>,
    ) -> Result<(IncrementalLinter, LintReport), AnalysisError> {
        let report = crate::linter::lint_config(&cfg, spans)?;
        let cache = LintCache::from_report(&cfg, &report);
        let state = SessionState::default();
        Ok((IncrementalLinter { cfg, cache, state }, report))
    }

    /// The cache describing the session's current configuration (what
    /// `--save-cache` writes).
    pub fn cache(&self) -> &LintCache {
        &self.cache
    }

    /// The session's current configuration.
    pub fn config(&self) -> &Config {
        &self.cfg
    }

    /// Fire-set generations cached across every kind.
    #[cfg(test)]
    pub(crate) fn cached_generations(&self) -> usize {
        let s = &self.state;
        s.route_maps.fires.len() + s.acls.fires.len() + s.prefix_lists.fires.len()
    }

    /// Re-lints after an edit: `cfg` replaces the session configuration,
    /// dirty objects are recomputed serially on the retained spaces
    /// (through the keyed fire-set caches), and clean objects splice
    /// their cached diagnostics. Byte-identical to a cold full lint.
    pub fn relint(
        &mut self,
        cfg: Config,
        spans: Option<&SourceMap>,
    ) -> Result<(LintReport, IncrStats), AnalysisError> {
        let _span = clarify_obs::span!("lint_incremental");
        if atom_env_hash(&[&cfg]) != self.cache.atom_env {
            // New pattern set → new variable layout: cached route Refs
            // would point into the wrong manager.
            self.state.route_maps = KindState::default();
        }
        let (report, stats) = drive(&cfg, spans, Some(&self.cache), Some(&mut self.state))?;
        self.cache = LintCache::from_report(&cfg, &report);
        self.cfg = cfg;
        Ok((report, stats))
    }
}
