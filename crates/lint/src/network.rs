//! Cross-device lint: symbolic composition of per-neighbor policies
//! along topology edges.
//!
//! The per-config linter sees one namespace at a time; a policy can be
//! locally flawless yet globally wrong — dead because an upstream filter
//! starves it, a black hole for everything its peer sends, or the missing
//! guard in a valley-free violation. [`NetworkLinter`] runs five such
//! checks (L007–L011) over a [`LoadedTopology`], composing the
//! `clarify-analysis` policy transfer functions along sessions.
//!
//! The composition is a *one-hop product*: what a neighbor `w` can send
//! router `r` is `send(w, r, reach_w) = norm(export_w(reach_w))`, where
//! `reach_w` is `w`'s exact originations plus, for each of `w`'s other
//! neighbors `u`, `hop(u, w, ⊤) = import_w(norm(export_u(⊤)))` — the far
//! input cut off at the full valid space. Because every transfer is
//! monotone and every route in the BGP fixed point crossed `export_u` and
//! `import_w` on its last two hops, the cut-off yields an
//! **over**-approximation of anything `r` can ever hear, so the emptiness
//! verdicts behind L007 and L011 are sound over the fixed point (DESIGN.md
//! §10 gives the argument). Routers with no config file stand for the
//! outside world and may send anything.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use clarify_analysis::{AnalysisError, NetworkSpace};
use clarify_bdd::Ref;
use clarify_netconfig::{
    fnv1a64, Config, ObjectKind, RouteMap, RouteMapMatch, RouteMapSet, RuleId,
};
use clarify_netsim::{LoadedTopology, Network, Router, Session, SessionRole};

use crate::diagnostic::{Diagnostic, LintCode, LintReport};
use crate::linter::{lint_config, lint_references};
use crate::suppress::apply_suppressions;

/// One router's slice of a topology lint: its local report plus the
/// network diagnostics anchored in its config.
#[derive(Clone, Debug)]
pub struct RouterLint {
    /// Router name.
    pub router: String,
    /// Where its diagnostics point: the config path from the topology
    /// file when the router has one, else the router name.
    pub origin: String,
    /// Local (per-config) and network diagnostics, merged and sorted.
    pub report: LintReport,
}

/// The result of linting a whole topology.
#[derive(Clone, Debug, Default)]
pub struct NetworkLintReport {
    /// Per-router results, in router-name order. Routers without a
    /// config file produce no diagnostics and are omitted.
    pub routers: Vec<RouterLint>,
}

impl NetworkLintReport {
    /// Total findings (warnings + errors) across all routers.
    pub fn finding_count(&self) -> usize {
        self.routers.iter().map(|r| r.report.finding_count()).sum()
    }

    /// Whether the topology is clean: no warnings, no errors anywhere.
    pub fn is_clean(&self) -> bool {
        self.finding_count() == 0
    }

    /// Total diagnostics suppressed by inline `lint-allow` directives.
    pub fn suppressed(&self) -> usize {
        self.routers.iter().map(|r| r.report.suppressed).sum()
    }

    /// Every `(origin, diagnostic)` pair in report order.
    pub fn diagnostics(&self) -> impl Iterator<Item = (&str, &Diagnostic)> {
        self.routers
            .iter()
            .flat_map(|r| r.report.diagnostics.iter().map(|d| (r.origin.as_str(), d)))
    }

    /// Renders every router's report plus a topology-wide summary line.
    pub fn render_human(&self) -> String {
        let mut out = String::new();
        let (mut errors, mut warnings, mut notes) = (0, 0, 0);
        for r in &self.routers {
            out.push_str(&r.report.render_human(&r.origin));
            for d in &r.report.diagnostics {
                match d.severity {
                    crate::Severity::Error => errors += 1,
                    crate::Severity::Warning => warnings += 1,
                    crate::Severity::Note => notes += 1,
                }
            }
        }
        let suppressed = match self.suppressed() {
            0 => String::new(),
            n => format!(", {n} suppressed"),
        };
        out.push_str(&format!(
            "topology: {errors} error(s), {warnings} warning(s), {notes} note(s){suppressed}\n"
        ));
        out
    }

    /// Renders the whole result as one JSON object with a per-router
    /// report array (each element is a [`LintReport`] JSON object).
    pub fn render_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str(&format!("  \"clean\": {},\n", self.is_clean()));
        out.push_str(&format!("  \"suppressed\": {},\n", self.suppressed()));
        out.push_str("  \"routers\": [");
        for (i, r) in self.routers.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('\n');
            for line in r.report.render_json(&r.origin).trim_end().lines() {
                out.push_str("    ");
                out.push_str(line);
                out.push('\n');
            }
            out.pop();
        }
        if !self.routers.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("]\n}\n");
        out
    }
}

/// The cross-device linter. Borrow a [`LoadedTopology`], optionally turn
/// suppressions off, then [`lint`](NetworkLinter::lint).
pub struct NetworkLinter<'a> {
    loaded: &'a LoadedTopology,
    suppress: bool,
}

impl<'a> NetworkLinter<'a> {
    /// A linter over `loaded` with inline suppressions honoured.
    pub fn new(loaded: &'a LoadedTopology) -> NetworkLinter<'a> {
        NetworkLinter {
            loaded,
            suppress: true,
        }
    }

    /// Ignores inline `lint-allow` directives (`--no-suppress`).
    pub fn no_suppress(mut self) -> NetworkLinter<'a> {
        self.suppress = false;
        self
    }

    /// Runs the local lint on every configured router, then the five
    /// network checks, and assembles the per-router reports.
    pub fn lint(&self) -> Result<NetworkLintReport, AnalysisError> {
        let _span = clarify_obs::span!("lint_network");
        let obs = clarify_obs::global();
        obs.counter("lint.net.topologies_linted").incr();
        let net = &self.loaded.network;
        let ctx = TopoCtx::new(self.loaded);

        // Phase 1: per-router local lint (each internally parallel over
        // that router's objects), serial across routers to keep one
        // worker pool at a time.
        let mut per_router: BTreeMap<String, Vec<Diagnostic>> = BTreeMap::new();
        {
            let _p = clarify_obs::span!("lint_network_local");
            let mut seen_paths: BTreeSet<&str> = BTreeSet::new();
            for r in net.routers() {
                let Some(path) = self.loaded.config_paths.get(&r.name) else {
                    continue;
                };
                // Routers sharing one config file share its local
                // diagnostics; report them once, on the first router.
                if !seen_paths.insert(path) {
                    continue;
                }
                let spans = self.loaded.spans.get(&r.name);
                let local = lint_config(&r.config, spans)?;
                per_router
                    .entry(r.name.clone())
                    .or_default()
                    .extend(local.diagnostics);
            }
        }

        // Phase 2: per-receiver edge checks (L007, L009, L011), serial in
        // router-name order over one space for the whole topology: a
        // receiver needs only a few transfers, less work than building a
        // space per worker.
        let mut ns = {
            let _p = clarify_obs::span!("lint_network_edges");
            let configs: Vec<&Config> = net.routers().map(|r| &r.config).collect();
            let mut ns = NetworkSpace::new(&configs)?;
            for r in net.routers().filter(|r| !ctx.is_world(&r.name)) {
                let diags = ctx.lint_receiver(&mut ns, r)?;
                ns.clear_op_caches();
                if !diags.is_empty() {
                    per_router.entry(r.name.clone()).or_default().extend(diags);
                }
            }
            ns
        };

        // Phase 3: valley-free taint propagation (L008), a global fixed
        // point, in the same space.
        {
            let _p = clarify_obs::span!("lint_network_taint");
            for (router, diag) in ctx.lint_route_leaks(&mut ns)? {
                per_router.entry(router).or_default().push(diag);
            }
        }

        // Phase 4: orphan communities (L010) — pure AST + regex, serial.
        {
            let _p = clarify_obs::span!("lint_network_communities");
            for (router, diag) in ctx.lint_orphan_communities() {
                per_router.entry(router).or_default().push(diag);
            }
        }

        // Assemble: apply spans, sort, suppress, count.
        let mut out = NetworkLintReport::default();
        for (name, diags) in per_router {
            let origin = self
                .loaded
                .config_paths
                .get(&name)
                .cloned()
                .unwrap_or_else(|| name.clone());
            let mut report = LintReport {
                diagnostics: diags,
                suppressed: 0,
            };
            if let Some(spans) = self.loaded.spans.get(&name) {
                for d in &mut report.diagnostics {
                    if d.line.is_none() {
                        d.line = spans.line(&d.rule);
                    }
                }
            }
            let mut report = report.finish();
            if self.suppress {
                if let Some(source) = self.loaded.sources.get(&name) {
                    report = apply_suppressions(report, source);
                }
            }
            for d in &report.diagnostics {
                obs.counter(&format!("lint.net.findings.{}", d.code.code()))
                    .incr();
            }
            out.routers.push(RouterLint {
                router: name,
                origin,
                report,
            });
        }
        Ok(out)
    }
}

/// Immutable per-topology context shared by the network checks.
struct TopoCtx<'a> {
    loaded: &'a LoadedTopology,
    /// Per-router fire-set memo key: a hash of the router's config
    /// source. Routers sharing one config file share fire-sets, and
    /// same-named maps in different configs never collide in the space.
    keys: BTreeMap<&'a str, u64>,
    /// Per-router names of route-maps with dangling references, which
    /// cannot be encoded; sessions bound to them are skipped.
    broken: BTreeMap<&'a str, BTreeSet<String>>,
}

impl<'a> TopoCtx<'a> {
    fn new(loaded: &'a LoadedTopology) -> TopoCtx<'a> {
        let routers = || loaded.network.routers();
        TopoCtx {
            loaded,
            keys: routers()
                .map(|r| {
                    let source = loaded.sources.get(&r.name).unwrap_or(&r.name);
                    (r.name.as_str(), fnv1a64(source.as_bytes()))
                })
                .collect(),
            broken: routers()
                .map(|r| (r.name.as_str(), lint_references(&r.config, &mut Vec::new())))
                .collect(),
        }
    }

    fn net(&self) -> &'a Network {
        &self.loaded.network
    }

    /// Whether the router stands for the outside world (no config file):
    /// its reach is the full valid space.
    fn is_world(&self, name: &str) -> bool {
        !self.loaded.config_paths.contains_key(name)
    }

    /// `r`'s sessions whose neighbor declares a session back (an up
    /// adjacency), each with that neighbor.
    fn peers(&self, r: &'a Router) -> impl Iterator<Item = (&'a Session, &'a Router)> + 'a {
        let net = self.net();
        r.sessions.iter().filter_map(move |s| {
            let w = net.router(&s.neighbor)?;
            w.session(&r.name)?;
            Some((s, w))
        })
    }

    /// `router`'s route-map `name` with its fire-set memo key; `None`
    /// when the map is undefined or has dangling references (already an
    /// L005 error locally), so it cannot be encoded.
    fn policy(&self, router: &'a Router, name: &str) -> Option<(&'a RouteMap, u64)> {
        if self.broken[router.name.as_str()].contains(name) {
            return None;
        }
        Some((
            router.config.route_map(name)?,
            self.keys[router.name.as_str()],
        ))
    }

    /// `router`'s bound policy `map` applied to `input`: the identity when
    /// no map is bound, `None` when the bound map cannot be encoded.
    fn transfer(
        &self,
        ns: &mut NetworkSpace,
        router: &'a Router,
        map: Option<&str>,
        input: Ref,
    ) -> Result<Option<Ref>, AnalysisError> {
        let Some(name) = map else {
            return Ok(Some(input));
        };
        let Some((map, key)) = self.policy(router, name) else {
            return Ok(None);
        };
        ns.transfer(&router.config, map, key, input).map(Some)
    }

    /// What `a` puts on the wire towards `b` out of `input`: `a`'s export
    /// policy, then cross-AS normalisation when the ASNs differ. `None`
    /// when the export map cannot be encoded.
    fn send(
        &self,
        ns: &mut NetworkSpace,
        a: &'a Router,
        b: &'a Router,
        input: Ref,
    ) -> Result<Option<Ref>, AnalysisError> {
        let export = a.session(&b.name).and_then(|s| s.export_policy.as_deref());
        let Some(sent) = self.transfer(ns, a, export, input)? else {
            return Ok(None);
        };
        Ok(Some(if a.asn == b.asn {
            sent
        } else {
            ns.cross_as_normalize(sent)
        }))
    }

    /// What `b` accepts from `a` out of `input`: [`send`](Self::send),
    /// then `b`'s import policy. `None` when either map cannot be encoded.
    fn hop(
        &self,
        ns: &mut NetworkSpace,
        a: &'a Router,
        b: &'a Router,
        input: Ref,
    ) -> Result<Option<Ref>, AnalysisError> {
        let Some(sent) = self.send(ns, a, b, input)? else {
            return Ok(None);
        };
        let import = b.session(&a.name).and_then(|s| s.import_policy.as_deref());
        self.transfer(ns, b, import, sent)
    }

    /// Over-approximation of every route `w` can ever hold: its exact
    /// originations plus one-hop arrivals with the far input cut off at
    /// ⊤. `exclude` drops one neighbor's contribution (split horizon:
    /// what `w` learned from `r` never flows back to `r`).
    fn reach(
        &self,
        ns: &mut NetworkSpace,
        w: &'a Router,
        exclude: Option<&str>,
    ) -> Result<Ref, AnalysisError> {
        if self.is_world(&w.name) {
            return Ok(ns.valid());
        }
        let mut acc = ns.origination_region(&w.originated)?;
        for (_, u) in self
            .peers(w)
            .filter(|(s, _)| exclude != Some(s.neighbor.as_str()))
        {
            let valid = ns.valid();
            if let Some(arrived) = self.hop(ns, u, w, valid)? {
                acc = ns.space_mut().manager().or(acc, arrived);
            }
        }
        Ok(acc)
    }

    /// L007 + L009 + L011 for one receiving router.
    fn lint_receiver(
        &self,
        ns: &mut NetworkSpace,
        r: &'a Router,
    ) -> Result<Vec<Diagnostic>, AnalysisError> {
        let mut out = Vec::new();
        // What each neighbor with an up adjacency can put on the wire
        // towards `r` (its reach minus what it learned from `r`), in
        // session order.
        let mut offers: Vec<(&Session, &Router, Ref)> = Vec::new();
        for (s, w) in self.peers(r) {
            clarify_obs::global().counter("lint.net.edges").incr();
            let reach = self.reach(ns, w, Some(&r.name))?;
            if let Some(x) = self.send(ns, w, r, reach)? {
                offers.push((s, w, x));
            }
        }

        // L009 / L011: per import binding against the peer's offer.
        for &(s, w, x) in &offers {
            let Some(import) = s.import_policy.as_deref() else {
                continue;
            };
            let Some((map, key)) = self.policy(r, import) else {
                continue;
            };
            let permits = ns.permit_region(&r.config, map, key)?;
            let taken = ns.space_mut().manager().and(x, permits);
            if x != Ref::FALSE && taken == Ref::FALSE {
                let d = Diagnostic::new(
                    LintCode::BlackHoleFilter,
                    RuleId::object(ObjectKind::RouteMap, import),
                    format!(
                        "import policy on {} denies every route {} can send (black-hole session)",
                        r.name, s.neighbor
                    ),
                );
                out.push(witnessed(ns, d, x)?);
                continue;
            }
            // L009 only when the far end actually shapes the offer.
            let Some(export) = w
                .session(&r.name)
                .and_then(|ws| ws.export_policy.as_deref())
            else {
                continue;
            };
            let np = ns.space_mut().manager().not(permits);
            let rejected = ns.space_mut().manager().and(x, np);
            if rejected != Ref::FALSE && taken != Ref::FALSE {
                let d = Diagnostic::new(
                    LintCode::AsymmetricSession,
                    RuleId::object(ObjectKind::RouteMap, import),
                    format!(
                        "{} exports routes over '{}' that this import policy on {} rejects",
                        s.neighbor, export, r.name
                    ),
                )
                .with_related(RuleId::object(ObjectKind::RouteMap, export));
                out.push(witnessed(ns, d, rejected)?);
            }
        }

        // L007: per bound map, the union of everything that can reach it:
        // the offers into its import bindings, `r`'s reach into its export
        // bindings.
        let mut bindings: Vec<(&str, Ref)> = offers
            .iter()
            .filter_map(|&(s, _, x)| Some((s.import_policy.as_deref()?, x)))
            .collect();
        if r.sessions.iter().any(|s| s.export_policy.is_some()) {
            let reach = self.reach(ns, r, None)?;
            let exports = r.sessions.iter().filter_map(|s| s.export_policy.as_deref());
            bindings.extend(exports.map(|e| (e, reach)));
        }
        let mut contexts: BTreeMap<&str, Ref> = BTreeMap::new();
        for (name, x) in bindings {
            let e = contexts.entry(name).or_insert(Ref::FALSE);
            *e = ns.space_mut().manager().or(*e, x);
        }
        for (name, context) in contexts {
            let Some((map, key)) = self.policy(r, name) else {
                continue;
            };
            let fires = ns.fire_sets(&r.config, map, key)?;
            for (stanza, &fire) in map.stanzas.iter().zip(&fires) {
                // A locally dead rule is L001/L004 territory.
                if fire == Ref::FALSE || ns.space_mut().manager().and(fire, context) != Ref::FALSE {
                    continue;
                }
                let d = Diagnostic::new(
                    LintCode::DeadByUpstream,
                    RuleId::route_map_stanza(&map.name, stanza.seq),
                    format!(
                        "rule matches routes, but none of them can ever reach {} \
                         through its neighbors' filters",
                        r.name
                    ),
                );
                out.push(witnessed(ns, d, fire)?);
            }
        }
        Ok(out)
    }

    /// L008: Gao–Rexford valley-free violations. Taint enters wherever a
    /// provider or peer session imports routes, spreads over internal
    /// sessions to a fixed point, and leaks if it can exit through any
    /// *other* provider/peer session.
    fn lint_route_leaks(
        &self,
        ns: &mut NetworkSpace,
    ) -> Result<Vec<(String, Diagnostic)>, AnalysisError> {
        let mut out = Vec::new();
        let net = self.net();
        // Entry points in deterministic order. Only configured routers
        // are ours to lint: a configless router stands for the outside
        // world, and flagging "the world" for not filtering would drown
        // every report in noise.
        let entries = net
            .routers()
            .filter(|r| !self.is_world(&r.name))
            .flat_map(|r0| self.peers(r0).map(move |(s0, w0)| (r0, s0, w0)))
            .filter(|(_, s0, _)| s0.role.taints());
        for (r0, s0, w0) in entries {
            // What the provider/peer can put on our doorstep: anything it
            // likes (⊤) through its export policy, then through our import.
            let valid = ns.valid();
            let Some(taint0) = self.hop(ns, w0, r0, valid)? else {
                continue;
            };
            if taint0 == Ref::FALSE {
                continue;
            }
            // Propagate over internal sessions to a fixed point, keeping
            // the first path that tainted each router.
            let mut taint: BTreeMap<&str, (Ref, Vec<&str>)> = BTreeMap::new();
            taint.insert(&r0.name, (taint0, vec![&r0.name]));
            let mut queue = VecDeque::from([r0]);
            while let Some(a) = queue.pop_front() {
                let (region, path) = taint[a.name.as_str()].clone();
                let internal = self
                    .peers(a)
                    .filter(|(s, _)| s.role == SessionRole::Internal);
                for (_, b) in internal {
                    let Some(arrived) = self.hop(ns, a, b, region)? else {
                        continue;
                    };
                    if arrived == Ref::FALSE {
                        continue;
                    }
                    let entry = taint
                        .entry(&b.name)
                        .or_insert_with(|| (Ref::FALSE, [&path[..], &[&b.name]].concat()));
                    let grown = ns.space_mut().manager().or(entry.0, arrived);
                    if grown != entry.0 {
                        entry.0 = grown;
                        queue.push_back(b);
                    }
                }
            }
            // Any other provider/peer session reachable by the taint?
            for a in net.routers().filter(|a| !self.is_world(&a.name)) {
                let Some((region, path)) = taint.get(a.name.as_str()) else {
                    continue;
                };
                for (s, b) in self.peers(a).filter(|(s, _)| s.role.taints()) {
                    if a.name == r0.name && s.neighbor == s0.neighbor {
                        continue; // the entry session itself
                    }
                    let Some(leaked) = self.send(ns, a, b, *region)? else {
                        continue;
                    };
                    if leaked == Ref::FALSE {
                        continue;
                    }
                    let (anchor, map) = match (&s.export_policy, &s0.import_policy) {
                        (Some(e), _) => (a, e.clone()),
                        (None, Some(i)) => (r0, i.clone()),
                        (None, None) => (a, format!("<{}→{}>", a.name, s.neighbor)),
                    };
                    let d = Diagnostic::new(
                        LintCode::RouteLeak,
                        RuleId::object(ObjectKind::RouteMap, map),
                        format!(
                            "routes learned from {} {} at {} can re-export to {} {} \
                             (valley-free violation via {})",
                            s0.role.keyword(),
                            s0.neighbor,
                            r0.name,
                            s.role.keyword(),
                            s.neighbor,
                            path.join(" → "),
                        ),
                    );
                    out.push((anchor.name.clone(), witnessed(ns, d, leaked)?));
                }
            }
        }
        Ok(out)
    }

    /// L010: communities set by bound policies that no policy anywhere in
    /// the topology ever matches. Pure AST walk — no BDDs.
    fn lint_orphan_communities(&self) -> Vec<(String, Diagnostic)> {
        // Every route-map bound to some session, in router-name then
        // map-name order.
        let mut bound: Vec<(&Router, &RouteMap)> = Vec::new();
        for r in self.net().routers() {
            let names: BTreeSet<&String> = r
                .sessions
                .iter()
                .flat_map(|s| s.import_policy.iter().chain(&s.export_policy))
                .collect();
            bound.extend(
                names
                    .into_iter()
                    .filter_map(|n| Some((r, r.config.route_map(n)?))),
            );
        }
        // Every community-list pattern referenced by any bound map.
        let mut matchers = Vec::new();
        for &(r, map) in &bound {
            for stanza in &map.stanzas {
                for m in &stanza.matches {
                    let RouteMapMatch::Community(lists) = m else {
                        continue;
                    };
                    for l in lists {
                        if let Ok(cl) = r.config.community_list(l) {
                            matchers.extend(cl.entries.iter().map(|e| &e.regex));
                        }
                    }
                }
            }
        }
        // Every community set by a bound map, anchored at its stanza.
        let mut out = Vec::new();
        for &(r, map) in &bound {
            for stanza in &map.stanzas {
                let mut seen: BTreeSet<String> = BTreeSet::new();
                for set in &stanza.sets {
                    let (RouteMapSet::CommunityAdd(cs) | RouteMapSet::CommunityReplace(cs)) = set
                    else {
                        continue;
                    };
                    for c in cs {
                        let subject = c.subject();
                        if !seen.insert(subject.clone()) {
                            continue;
                        }
                        if matchers.iter().any(|m| m.matches(&subject)) {
                            continue;
                        }
                        out.push((
                            r.name.clone(),
                            Diagnostic::new(
                                LintCode::OrphanCommunity,
                                RuleId::route_map_stanza(&map.name, stanza.seq),
                                format!(
                                    "community {subject} is set here, but no policy \
                                     in the topology ever matches it"
                                ),
                            ),
                        ));
                    }
                }
            }
        }
        out
    }
}

/// `d` with a witness drawn from `region` attached, when there is one.
fn witnessed(
    ns: &mut NetworkSpace,
    d: Diagnostic,
    region: Ref,
) -> Result<Diagnostic, AnalysisError> {
    Ok(match ns.space_mut().witness(region)? {
        Some(w) => d.with_witness(w.to_string()),
        None => d,
    })
}
