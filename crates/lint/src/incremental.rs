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
//! the session its retained spaces. Nothing finer than a whole object's
//! diagnostics is kept across runs: a dirty object's fire sets are one
//! fold over the match sets its lint encodes anyway, so there is no
//! second encoding left for a fire-set cache to save.
//!
//! [`lint_config`]: crate::lint_config

use clarify_analysis::{AnalysisError, PacketSpace, PrefixSpace, RouteAtoms, RouteSpace};
use clarify_netconfig::{Acl, Config, PrefixList, RouteMap, SourceMap};

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

/// A session's retained spaces, one per kind, each built on first use.
/// They hold nothing but their `valid` roots between re-lints: a dirty
/// object's fire sets are one fold over match sets its lint builds anyway.
#[derive(Default)]
pub(crate) struct SessionState {
    pub(crate) route_maps: Option<RouteSpace>,
    /// The atoms of a route space retired by an atom-environment change,
    /// which the next one is built from.
    pub(crate) route_atoms: Option<RouteAtoms>,
    pub(crate) acls: Option<PacketSpace>,
    pub(crate) prefix_lists: Option<PrefixSpace>,
}

impl SessionState {
    /// The diagnostics of each of `objects` (dirty, encodable, in name
    /// order), computed serially on the kind's retained space.
    fn recompute<K: LintKind>(
        &mut self,
        cfg: &Config,
        objects: &[(&String, &K)],
    ) -> Result<Vec<Vec<Diagnostic>>, AnalysisError> {
        objects
            .iter()
            .map(|&(name, obj)| {
                let space = K::session_space(self, cfg)?;
                let diags = lint_object(space, cfg, name, obj)?;
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
/// when splicing). `prev` pairs the previous run with the
/// [keys](LintCache::keys) of `cfg`; a cold lint needs no keys, since
/// every object is dirty. Dirty objects are recomputed on the retained
/// state of `session`, which always comes with a `prev`, or else by the
/// cold parallel fan-out.
pub(crate) fn drive(
    cfg: &Config,
    spans: Option<&SourceMap>,
    prev: Option<(&LintCache, &LintCache)>,
    mut session: Option<&mut SessionState>,
) -> Result<(LintReport, IncrStats), AnalysisError> {
    let mut report = LintReport::default();
    {
        let _pass = clarify_obs::span!("lint_references");
        lint_references(cfg, &mut report.diagnostics);
    }
    let out = &mut report.diagnostics;
    let counts = [
        drive_kind::<RouteMap>(cfg, prev, session.as_deref_mut(), out)?,
        drive_kind::<Acl>(cfg, prev, session.as_deref_mut(), out)?,
        drive_kind::<PrefixList>(cfg, prev, session, out)?,
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
/// report's stable sort relies on to break ties. Returns the kind's object
/// and dirty counts.
fn drive_kind<K: LintKind>(
    cfg: &Config,
    prev: Option<(&LintCache, &LintCache)>,
    session: Option<&mut SessionState>,
    out: &mut Vec<Diagnostic>,
) -> Result<(usize, usize), AnalysisError> {
    let _pass = clarify_obs::span!(K::PASS);
    let objects = K::objects(cfg);
    let dirty: Vec<bool> = objects
        .iter()
        .map(|(name, obj)| {
            let Some((cache, keys)) = prev else {
                return true;
            };
            // A referenced list that changed, appeared, or vanished changes
            // the object's behaviour without touching its text. (A
            // dangling reference hashes to None on both sides and stays
            // clean — the object is skipped by the symbolic pass either
            // way.)
            let hash =
                |cache: &LintCache, kind, name: &str| cache.object(kind, name).map(|o| o.hash);
            let changed = |kind, name: &str| hash(cache, kind, name) != hash(keys, kind, name);
            (K::USES_ATOMS && cache.atom_env != keys.atom_env)
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
        Some(session) => session.recompute(cfg, &fresh)?,
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
    drive(cfg, spans, Some((prev, &LintCache::keys(cfg))), None)
}

/// A stateful re-lint session: retains one BDD space per kind across
/// edits, so interactive loops do not pay the space rebuild, and the
/// previous run's diagnostics, which clean objects splice.
///
/// The route space survives as long as the atom environment does — its
/// variable layout is a function of the config's regex pattern set — and
/// the packet/prefix spaces are config-independent and survive forever.
/// When the atom environment changes, the route space's atoms outlive it:
/// the next route space is built from them, so an edit that only reorders
/// or adds patterns classifies just the added ones.
/// Between re-lints the spaces' managers drop their operation caches and
/// may garbage-collect (the
/// [`clear_op_caches`](clarify_bdd::Manager::clear_op_caches) seam); a
/// space pins only its own `valid` predicate, so a long session holds no
/// more nodes than a fresh space plus whatever the collector has not yet
/// reclaimed.
pub struct IncrementalLinter {
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
        let mut cache = LintCache::keys(&cfg);
        cache.file(&report);
        let state = SessionState::default();
        Ok((IncrementalLinter { cache, state }, report))
    }

    /// The retained packet space, once an ACL has been re-linted.
    #[cfg(test)]
    pub(crate) fn packet_space(&mut self) -> Option<&mut PacketSpace> {
        self.state.acls.as_mut()
    }

    /// Re-lints after an edit: `cfg` replaces the session configuration,
    /// dirty objects are recomputed serially on the retained spaces, and
    /// clean objects splice their cached diagnostics. Byte-identical to a
    /// cold full lint. Each object and the atom environment are hashed
    /// once, and those keys become the next run's cache.
    pub fn relint(
        &mut self,
        cfg: Config,
        spans: Option<&SourceMap>,
    ) -> Result<(LintReport, IncrStats), AnalysisError> {
        let _span = clarify_obs::span!("lint_incremental");
        let mut keys = LintCache::keys(&cfg);
        if keys.atom_env != self.cache.atom_env {
            // New pattern set → new variable layout: the retained route
            // space no longer encodes this configuration's lists, but the
            // next one is built from its atoms.
            if let Some(space) = self.state.route_maps.take() {
                self.state.route_atoms = Some(space.into_atoms());
            }
        }
        let prev = Some((&self.cache, &keys));
        let (report, stats) = drive(&cfg, spans, prev, Some(&mut self.state))?;
        keys.file(&report);
        self.cache = keys;
        Ok((report, stats))
    }
}
