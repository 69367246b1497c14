//! The lint passes: one symbolic pass over every first-match policy kind
//! (route-maps, ACLs, prefix lists), plus a pure AST reference walk.

use std::collections::{BTreeMap, BTreeSet};

use clarify_analysis::{
    acl_overlaps, stanza_pair_diff, AnalysisError, FirstMatchPolicy, PacketSpace, PrefixSpace,
    RouteSpace,
};
use clarify_bdd::Ref;
use clarify_netconfig::{Acl, Action, Config, ObjectKind, PrefixList, RouteMap, RuleId, SourceMap};
use clarify_nettypes::{BgpRoute, Packet, Prefix};

use crate::diagnostic::{Diagnostic, LintCode, LintReport};
use crate::incremental::{drive, SessionState};

/// `permit`/`deny` as a present-tense verb for diagnostic messages.
fn verb(a: Action) -> &'static str {
    match a {
        Action::Permit => "permits",
        Action::Deny => "denies",
    }
}

/// How one kind's diagnostics name things.
pub(crate) struct Nouns {
    /// One input the policy decides: `route`, `packet`, `prefix`.
    input: &'static str,
    /// Its plural.
    inputs: &'static str,
    /// One rule: `stanza` or `entry`.
    rule: &'static str,
    /// The whole object: `policy`, `filter` or `list`.
    object: &'static str,
    /// The L004 message.
    empty: &'static str,
}

/// A first-match policy kind the symbolic pass covers. The kind supplies
/// only what differs between kinds beyond its [`FirstMatchPolicy`]
/// encoding; [`lint_object`] runs the checks once for all of them.
pub(crate) trait LintKind: FirstMatchPolicy + Sync + Sized {
    /// The object kind, for content hashes and the cache.
    const KIND: ObjectKind;
    /// The span timing this kind's pass.
    const PASS: &'static str;
    /// How the diagnostics name things.
    const NOUNS: Nouns;
    /// Whether the kind's space depends on the atom environment (a change
    /// dirties every object of the kind).
    const USES_ATOMS: bool = false;

    /// The kind's objects in `cfg`, by name.
    fn objects(cfg: &Config) -> &BTreeMap<String, Self>;
    /// This kind's space in `session`, built on first use to encode every
    /// object of `cfg`: the one way a lint gets a space.
    fn session_space<'s>(
        session: &'s mut SessionState,
        cfg: &Config,
    ) -> Result<&'s mut Self::Space, AnalysisError>;
    /// The identity of rule `i` of the object named `name`.
    fn rule_id(&self, name: &str, i: usize) -> RuleId;
    /// The index of the rule that decides `input`, if any.
    fn deciding_rule(
        &self,
        name: &str,
        cfg: &Config,
        input: &Self::Input,
    ) -> Result<Option<usize>, AnalysisError>;
    /// Whether some input of `joint` is decided differently by rule `i`
    /// and, once rule `i` is deleted, by rule `k` (`None`: the implicit
    /// deny). `joint` is non-empty and within `valid`, so for a kind that
    /// only permits or denies, differing actions are enough: that is the
    /// default.
    fn decides_differently(
        &self,
        _name: &str,
        _space: &mut Self::Space,
        _cfg: &Config,
        _joint: Ref,
        i: usize,
        k: Option<usize>,
    ) -> Result<bool, AnalysisError> {
        Ok(self.action(i) != k.map_or(Action::Deny, |k| self.action(k)))
    }

    /// The lists the object's rules reference (route-maps only).
    fn references(&self) -> impl Iterator<Item = (ObjectKind, &str)> {
        std::iter::empty()
    }

    /// The L003 census: rule pairs `(i, j)`, `i < j`, in order, whose
    /// actions differ and whose match sets overlap without either
    /// containing the other. `valid_sets` are the rules' match sets within
    /// `valid`. The default decides it symbolically, skipping same-action
    /// pairs before any BDD work.
    fn conflicts(&self, space: &mut Self::Space, valid_sets: &[Ref]) -> Vec<(usize, usize)> {
        let mgr = Self::manager(space);
        let mut pairs = Vec::new();
        for (i, &vi) in valid_sets.iter().enumerate() {
            for (j, &vj) in valid_sets.iter().enumerate().skip(i + 1) {
                if self.action(i) != self.action(j)
                    && mgr.and(vi, vj) != Ref::FALSE
                    && !mgr.implies_true(vi, vj)
                    && !mgr.implies_true(vj, vi)
                {
                    pairs.push((i, j));
                }
            }
        }
        pairs
    }
}

impl LintKind for RouteMap {
    const KIND: ObjectKind = ObjectKind::RouteMap;
    const PASS: &'static str = "lint_route_maps";
    const NOUNS: Nouns = Nouns {
        input: "route",
        inputs: "routes",
        rule: "stanza",
        object: "policy",
        empty: "match condition is unsatisfiable; the stanza can never apply",
    };
    const USES_ATOMS: bool = true;

    fn objects(cfg: &Config) -> &BTreeMap<String, RouteMap> {
        &cfg.route_maps
    }
    /// Built from the atoms of the space an atom-environment change
    /// retired, if there was one.
    fn session_space<'s>(
        session: &'s mut SessionState,
        cfg: &Config,
    ) -> Result<&'s mut RouteSpace, AnalysisError> {
        let retained = &mut session.route_maps;
        match retained {
            Some(space) => Ok(space),
            None => {
                let atoms = session.route_atoms.take();
                Ok(retained.insert(RouteSpace::with_atoms(&[cfg], atoms)?))
            }
        }
    }
    fn rule_id(&self, name: &str, i: usize) -> RuleId {
        RuleId::route_map_stanza(name, self.stanzas[i].seq)
    }
    fn deciding_rule(
        &self,
        name: &str,
        cfg: &Config,
        route: &BgpRoute,
    ) -> Result<Option<usize>, AnalysisError> {
        let seq = cfg.eval_route_map(name, route)?.seq();
        Ok(seq.and_then(|seq| self.stanzas.iter().position(|s| s.seq == seq)))
    }
    /// The stanzas' one-region comparison, with the deleted policy's
    /// verdicts from the concrete evaluator skipping stanza `i`.
    fn decides_differently(
        &self,
        name: &str,
        space: &mut RouteSpace,
        cfg: &Config,
        joint: Ref,
        i: usize,
        k: Option<usize>,
    ) -> Result<bool, AnalysisError> {
        let (stanza, after) = (&self.stanzas[i], k.map(|k| &self.stanzas[k]));
        let diff = stanza_pair_diff(space, joint, Some(stanza), after, |route| {
            Ok((
                cfg.eval_route_map(name, route)?,
                cfg.eval_route_map_without(name, i, route)?,
            ))
        })?;
        Ok(diff.is_some())
    }
    fn references(&self) -> impl Iterator<Item = (ObjectKind, &str)> {
        self.stanzas.iter().flat_map(|s| s.references())
    }
}

impl LintKind for Acl {
    const KIND: ObjectKind = ObjectKind::Acl;
    const PASS: &'static str = "lint_acls";
    const NOUNS: Nouns = Nouns {
        input: "packet",
        inputs: "packets",
        rule: "entry",
        object: "filter",
        empty: "match condition is unsatisfiable; the entry can never apply",
    };

    fn objects(cfg: &Config) -> &BTreeMap<String, Acl> {
        &cfg.acls
    }
    fn session_space<'s>(
        session: &'s mut SessionState,
        _: &Config,
    ) -> Result<&'s mut PacketSpace, AnalysisError> {
        Ok(session.acls.get_or_insert_with(PacketSpace::new))
    }
    fn rule_id(&self, name: &str, i: usize) -> RuleId {
        RuleId::acl_entry(name, i)
    }
    fn deciding_rule(
        &self,
        _: &str,
        _: &Config,
        pkt: &Packet,
    ) -> Result<Option<usize>, AnalysisError> {
        Ok(self.eval(pkt).index)
    }
    /// ACLs keep the exact interval census: it needs no BDD work, and its
    /// `subset` flag is the syntactic containment of
    /// [`AclEntry::match_superset_of`](clarify_netconfig::AclEntry::match_superset_of).
    fn conflicts(&self, _: &mut PacketSpace, _: &[Ref]) -> Vec<(usize, usize)> {
        let census = acl_overlaps(self).pairs.into_iter();
        census
            .filter(|p| p.conflicting && !p.subset)
            .map(|p| (p.i, p.j))
            .collect()
    }
}

impl LintKind for PrefixList {
    const KIND: ObjectKind = ObjectKind::PrefixList;
    const PASS: &'static str = "lint_prefix_lists";
    const NOUNS: Nouns = Nouns {
        input: "prefix",
        inputs: "prefixes",
        rule: "entry",
        object: "list",
        empty: "matches no prefix; the entry can never apply",
    };

    fn objects(cfg: &Config) -> &BTreeMap<String, PrefixList> {
        &cfg.prefix_lists
    }
    fn session_space<'s>(
        session: &'s mut SessionState,
        _: &Config,
    ) -> Result<&'s mut PrefixSpace, AnalysisError> {
        Ok(session.prefix_lists.get_or_insert_with(PrefixSpace::new))
    }
    fn rule_id(&self, name: &str, i: usize) -> RuleId {
        RuleId::prefix_entry(name, self.entries[i].seq)
    }
    fn deciding_rule(
        &self,
        _: &str,
        _: &Config,
        p: &Prefix,
    ) -> Result<Option<usize>, AnalysisError> {
        Ok(self.entries.iter().position(|e| e.range.matches(p)))
    }
}

/// Runs every lint pass over one configuration.
///
/// Pass the [`SourceMap`] from [`Config::parse_with_spans`] to get source
/// lines on the diagnostics; `None` works too (identities alone still
/// pinpoint every rule).
///
/// Route-maps whose stanzas carry dangling list references get the
/// [`LintCode::DanglingReference`] error and are skipped by the symbolic
/// passes (their match conditions cannot be encoded).
pub fn lint_config(cfg: &Config, spans: Option<&SourceMap>) -> Result<LintReport, AnalysisError> {
    let _span = clarify_obs::span!("lint_config");
    Ok(drive(cfg, spans, None, None)?.0)
}

/// The AST walk: dangling references (error) and unused lists (note).
/// Returns the names of route-maps that cannot be analysed symbolically.
pub(crate) fn lint_references(cfg: &Config, out: &mut Vec<Diagnostic>) -> BTreeSet<String> {
    let mut broken = BTreeSet::new();
    let mut used: BTreeSet<(ObjectKind, &str)> = BTreeSet::new();
    for (map_name, map) in &cfg.route_maps {
        for stanza in &map.stanzas {
            for (kind, name) in stanza.references() {
                used.insert((kind, name));
                if cfg.defines(kind, name) {
                    continue;
                }
                broken.insert(map_name.clone());
                let kind = kind.keyword();
                out.push(
                    Diagnostic::new(
                        LintCode::DanglingReference,
                        RuleId::route_map_stanza(map_name, stanza.seq),
                        format!("references undefined {kind} '{name}'"),
                    )
                    .with_fix(format!(
                        "define {kind} {name} or drop the match clause naming it"
                    )),
                );
            }
        }
    }
    let prefix = cfg.prefix_lists.keys().map(|n| (ObjectKind::PrefixList, n));
    let as_path = cfg
        .as_path_lists
        .keys()
        .map(|n| (ObjectKind::AsPathList, n));
    let community = cfg
        .community_lists
        .keys()
        .map(|n| (ObjectKind::CommunityList, n));
    for (kind, name) in prefix.chain(as_path).chain(community) {
        if !used.contains(&(kind, name.as_str())) {
            out.push(
                Diagnostic::new(
                    LintCode::UnusedList,
                    RuleId::object(kind, name),
                    "defined but never referenced by a route-map",
                )
                .with_fix(format!(
                    "delete {} {name} if it is no longer needed",
                    kind.keyword()
                )),
            );
        }
    }
    broken
}

/// The symbolic checks on one object, in the order they are reported: L004
/// empty match and L001 shadowed rule in rule order, then L002 redundant
/// rule, then L003 conflicting overlap in `(i, j)` order. Each rule is
/// encoded once: the fire sets are the first-match fold over the match
/// sets.
pub(crate) fn lint_object<K: LintKind>(
    space: &mut K::Space,
    cfg: &Config,
    name: &str,
    obj: &K,
) -> Result<Vec<Diagnostic>, AnalysisError> {
    let nouns = &K::NOUNS;
    let valid = K::valid(space);
    let match_sets = obj.match_sets(space, cfg)?;
    let (fires, _) = K::fire_sets(space, &match_sets);
    let mut out = Vec::new();
    // Empty and shadowed rules. A rule with an empty match also has an
    // empty firing region; report it once, as empty.
    let mut valid_sets = Vec::with_capacity(match_sets.len());
    let mut dead = vec![false; match_sets.len()];
    for (i, &m) in match_sets.iter().enumerate() {
        let rule = obj.rule_id(name, i);
        let vm = K::manager(space).and(m, valid);
        valid_sets.push(vm);
        if vm == Ref::FALSE {
            dead[i] = true;
            let fix = format!("delete {}", rule.rule_label());
            out.push(Diagnostic::new(LintCode::EmptyMatch, rule, nouns.empty).with_fix(fix));
            continue;
        }
        if fires[i] == Ref::FALSE {
            dead[i] = true;
            // Some input matches the rule; find who steals it.
            let message = format!(
                "every {} it matches is decided by an earlier {}; it can never fire",
                nouns.input, nouns.rule
            );
            let mut d = Diagnostic::new(LintCode::ShadowedRule, rule.clone(), message);
            if let Some(input) = K::witness(space, vm)? {
                if let Some(k) = obj.deciding_rule(name, cfg, &input)? {
                    let by = obj.rule_id(name, k);
                    let (this, that) = (rule.rule_label(), by.rule_label());
                    d = d
                        .with_fix(format!("delete {this} or move it above {that}"))
                        .with_related(by);
                }
                d = d.with_witness(input.to_string());
            }
            out.push(d);
        }
    }
    // Redundant rules: they fire on some inputs, but deleting them changes
    // nothing observable (e.g. a deny rule falling through to the implicit
    // deny). Dead rules are trivially redundant — skip them.
    for i in (0..match_sets.len()).filter(|&i| !dead[i]) {
        if redundant(space, cfg, name, obj, &match_sets, fires[i], i)? {
            let rule = obj.rule_id(name, i);
            let fix = format!("delete {}", rule.rule_label());
            let message = format!(
                "deleting it leaves the {} behaviourally equivalent",
                nouns.object
            );
            out.push(Diagnostic::new(LintCode::RedundantRule, rule, message).with_fix(fix));
        }
    }
    // Conflicting overlaps (§3.2 non-trivial measure): differing actions,
    // neither match set contains the other.
    for (i, j) in obj.conflicts(space, &valid_sets) {
        let joint = K::manager(space).and(valid_sets[i], valid_sets[j]);
        let (earlier, later) = (obj.rule_id(name, i), obj.rule_id(name, j));
        let message = format!(
            "{} {} that {} ({}) also matches",
            verb(obj.action(j)),
            nouns.inputs,
            earlier.rule_label(),
            verb(obj.action(i))
        );
        let mut d =
            Diagnostic::new(LintCode::ConflictingOverlap, later, message).with_related(earlier);
        if let Some(input) = K::witness(space, joint)? {
            d = d.with_witness(input.to_string());
        }
        out.push(d);
    }
    Ok(out)
}

/// L002: whether deleting live rule `i`, whose firing region is `fire`,
/// leaves the object behaviourally equivalent. Only inputs in `fire` change
/// hands: those still unmatched before a later rule `k` that `k` matches go
/// to `k`, and the rest to the implicit deny. So the sweep walks the later
/// rules once, handing each its share `joint` of what is left, and stops
/// at the first share decided differently or once nothing is left.
fn redundant<K: LintKind>(
    space: &mut K::Space,
    cfg: &Config,
    name: &str,
    obj: &K,
    match_sets: &[Ref],
    fire: Ref,
    i: usize,
) -> Result<bool, AnalysisError> {
    let mut rest = fire;
    for (k, &m) in match_sets.iter().enumerate().skip(i + 1) {
        let joint = K::manager(space).and(rest, m);
        if joint != Ref::FALSE && obj.decides_differently(name, space, cfg, joint, i, Some(k))? {
            return Ok(false);
        }
        let mgr = K::manager(space);
        let nm = mgr.not(m);
        rest = mgr.and(rest, nm);
        if rest == Ref::FALSE {
            return Ok(true);
        }
    }
    Ok(!obj.decides_differently(name, space, cfg, rest, i, None)?)
}

/// The symbolic checks on `objects` (some of one kind's objects, in name
/// order), fanned out over `clarify-par` with one worker-local
/// [`SessionState`] per worker, whose space is built on its first object.
/// Diagnostics come back in input order, and canonicity makes the
/// worker-local spaces answer identically to one shared space.
pub(crate) fn lint_objects<K: LintKind>(
    cfg: &Config,
    objects: &[(&String, &K)],
) -> Result<Vec<Vec<Diagnostic>>, AnalysisError> {
    // `par_map_init` counts a map even over no items.
    if objects.is_empty() {
        return Ok(Vec::new());
    }
    let per_object =
        clarify_par::par_map_init(objects, SessionState::default, |state, _, &(name, obj)| {
            state.lint::<K>(cfg, name, obj)
        });
    per_object.into_iter().collect()
}
