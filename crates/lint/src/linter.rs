//! The lint passes: symbolic checks over route-maps, ACLs, and prefix
//! lists, plus a pure AST reference walk.

use std::collections::BTreeSet;

use clarify_analysis::{
    acl_overlaps, filters_equivalent, fire_sets_cached, policies_equivalent,
    prefix_lists_equivalent, route_map_overlaps, AnalysisError, FireSetCache, PacketSpace,
    PrefixSpace, RouteSpace,
};
use clarify_bdd::Ref;
use clarify_netconfig::{Action, Config, ObjectKind, RuleId, SourceMap};

use crate::diagnostic::{Diagnostic, LintCode, LintReport};

/// `permit`/`deny` as a present-tense verb for diagnostic messages.
fn verb(a: Action) -> &'static str {
    match a {
        Action::Permit => "permits",
        Action::Deny => "denies",
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
    let mut report = LintReport::default();
    let broken_maps = {
        let _pass = clarify_obs::span!("lint_references");
        lint_references(cfg, &mut report.diagnostics)
    };
    {
        let _pass = clarify_obs::span!("lint_route_maps");
        for (_, diags) in lint_route_maps(cfg, &broken_maps, None)? {
            report.diagnostics.extend(diags);
        }
    }
    {
        let _pass = clarify_obs::span!("lint_acls");
        for (_, diags) in lint_acls(cfg, None)? {
            report.diagnostics.extend(diags);
        }
    }
    {
        let _pass = clarify_obs::span!("lint_prefix_lists");
        for (_, diags) in lint_prefix_lists(cfg, None)? {
            report.diagnostics.extend(diags);
        }
    }
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
    Ok(report)
}

/// The AST walk: dangling references (error) and unused lists (note).
/// Returns the names of route-maps that cannot be analysed symbolically.
pub(crate) fn lint_references(cfg: &Config, out: &mut Vec<Diagnostic>) -> BTreeSet<String> {
    let mut broken = BTreeSet::new();
    let mut used_prefix: BTreeSet<&str> = BTreeSet::new();
    let mut used_as_path: BTreeSet<&str> = BTreeSet::new();
    let mut used_community: BTreeSet<&str> = BTreeSet::new();
    for (map_name, map) in &cfg.route_maps {
        for stanza in &map.stanzas {
            let refs = stanza.referenced_lists();
            let rule = RuleId::route_map_stanza(map_name, stanza.seq);
            let mut dangling: Vec<(&'static str, &str)> = Vec::new();
            for n in &refs.prefix {
                used_prefix.insert(n);
                if !cfg.prefix_lists.contains_key(*n) {
                    dangling.push(("prefix-list", n));
                }
            }
            for n in &refs.as_path {
                used_as_path.insert(n);
                if !cfg.as_path_lists.contains_key(*n) {
                    dangling.push(("as-path access-list", n));
                }
            }
            for n in &refs.community {
                used_community.insert(n);
                if !cfg.community_lists.contains_key(*n) {
                    dangling.push(("community-list", n));
                }
            }
            for (kind, name) in dangling {
                broken.insert(map_name.clone());
                out.push(
                    Diagnostic::new(
                        LintCode::DanglingReference,
                        rule.clone(),
                        format!("references undefined {kind} '{name}'"),
                    )
                    .with_fix(format!(
                        "define {kind} {name} or drop the match clause naming it"
                    )),
                );
            }
        }
    }
    let unused = |kind: ObjectKind, name: &str| {
        Diagnostic::new(
            LintCode::UnusedList,
            RuleId::object(kind, name),
            "defined but never referenced by a route-map".to_string(),
        )
        .with_fix(format!(
            "delete {} {name} if it is no longer needed",
            kind.keyword()
        ))
    };
    for name in cfg.prefix_lists.keys() {
        if !used_prefix.contains(name.as_str()) {
            out.push(unused(ObjectKind::PrefixList, name));
        }
    }
    for name in cfg.as_path_lists.keys() {
        if !used_as_path.contains(name.as_str()) {
            out.push(unused(ObjectKind::AsPathList, name));
        }
    }
    for name in cfg.community_lists.keys() {
        if !used_community.contains(name.as_str()) {
            out.push(unused(ObjectKind::CommunityList, name));
        }
    }
    broken
}

/// Symbolic route-map checks: empty match, shadowed stanza, redundant
/// stanza, conflicting overlap.
///
/// Each route-map's checks are independent, so the maps fan out over
/// `clarify-par` with one worker-local [`RouteSpace`] per worker.
/// Diagnostics come back in map iteration order (the `BTreeMap`'s sorted
/// order), exactly as the serial loop emitted them, and canonicity makes
/// the worker-local spaces answer identically to one shared space.
///
/// With `only = Some(names)` the pass is restricted to those maps — the
/// incremental driver's dirty subset. Returns one `(name, diagnostics)`
/// block per linted map, in map iteration order.
pub(crate) fn lint_route_maps(
    cfg: &Config,
    broken_maps: &BTreeSet<String>,
    only: Option<&BTreeSet<String>>,
) -> Result<Vec<(String, Vec<Diagnostic>)>, AnalysisError> {
    let maps: Vec<(&String, &clarify_netconfig::RouteMap)> = cfg
        .route_maps
        .iter()
        .filter(|(name, _)| !broken_maps.contains(*name))
        .filter(|(name, _)| only.is_none_or(|set| set.contains(*name)))
        .collect();
    if maps.is_empty() {
        return Ok(Vec::new());
    }
    let per_map = clarify_par::par_map_init(
        &maps,
        || None::<RouteSpace>,
        |worker_space, _, &(map_name, map)| -> Result<Vec<Diagnostic>, AnalysisError> {
            let space = match worker_space {
                Some(s) => s,
                None => worker_space.insert(RouteSpace::new(&[cfg])?),
            };
            let mut diags = Vec::new();
            lint_one_route_map(space, cfg, map_name, map, None, &mut diags)?;
            // Bound cache growth across a long object list: the memo
            // entries for this map's queries are dead weight for the next.
            space.manager().clear_op_caches();
            Ok(diags)
        },
    );
    maps.iter()
        .zip(per_map)
        .map(|(&(name, _), diags)| Ok((name.clone(), diags?)))
        .collect()
}

/// The per-object body of [`lint_route_maps`]: all checks for one map.
///
/// `fire_cache` routes the fire-set build through a keyed
/// [`FireSetCache`] (the `(RuleId, content-hash)` key makes reverted
/// edits hit older generations); `None` computes them directly, as the
/// parallel full pass does with its worker-local spaces.
pub(crate) fn lint_one_route_map(
    space: &mut RouteSpace,
    cfg: &Config,
    map_name: &str,
    map: &clarify_netconfig::RouteMap,
    fire_cache: Option<(&mut FireSetCache, u64)>,
    out: &mut Vec<Diagnostic>,
) -> Result<(), AnalysisError> {
    let valid = space.valid();
    {
        let match_sets = space.match_sets(cfg, map)?;
        let fires = match fire_cache {
            Some((cache, hash)) => fire_sets_cached(space, cache, cfg, map, hash)?.fires,
            None => space.fire_sets(cfg, map)?.0,
        };
        // Empty and shadowed stanzas. A stanza with an empty match also has
        // an empty firing region; report it once, as empty.
        let mut dead: BTreeSet<usize> = BTreeSet::new();
        for (i, stanza) in map.stanzas.iter().enumerate() {
            let rule = RuleId::route_map_stanza(map_name, stanza.seq);
            let vm = space.manager().and(match_sets[i], valid);
            if vm == Ref::FALSE {
                dead.insert(i);
                out.push(
                    Diagnostic::new(
                        LintCode::EmptyMatch,
                        rule,
                        "match condition is unsatisfiable; the stanza can never apply",
                    )
                    .with_fix(format!("delete stanza {}", stanza.seq)),
                );
                continue;
            }
            if fires[i] == Ref::FALSE {
                dead.insert(i);
                // Some route matches the stanza; find who steals it.
                let witness = space.witness(vm)?;
                let mut d = Diagnostic::new(
                    LintCode::ShadowedRule,
                    rule,
                    "every route it matches is decided by an earlier stanza; it can never fire",
                );
                if let Some(route) = witness {
                    let verdict = cfg.eval_route_map(map_name, &route)?;
                    if let Some(seq) = verdict.seq() {
                        d = d
                            .with_related(RuleId::route_map_stanza(map_name, seq))
                            .with_fix(format!(
                                "delete stanza {} or move it above stanza {seq}",
                                stanza.seq
                            ));
                    }
                    d = d.with_witness(route.to_string());
                }
                out.push(d);
            }
        }
        // Redundant stanzas: fire on some routes, but deleting them changes
        // nothing observable (e.g. a deny stanza falling through to the
        // implicit deny). Dead stanzas are trivially redundant — skip them.
        for (i, stanza) in map.stanzas.iter().enumerate() {
            if dead.contains(&i) {
                continue;
            }
            let mut modified = cfg.clone();
            modified
                .route_maps
                .get_mut(map_name)
                .expect("map exists")
                .stanzas
                .remove(i);
            if policies_equivalent(space, cfg, map_name, &modified, map_name)? {
                out.push(
                    Diagnostic::new(
                        LintCode::RedundantRule,
                        RuleId::route_map_stanza(map_name, stanza.seq),
                        "deleting it leaves the policy behaviourally equivalent",
                    )
                    .with_fix(format!("delete stanza {}", stanza.seq)),
                );
            }
        }
        // Conflicting overlaps (§3.2 non-trivial measure): differing
        // actions, neither match set contains the other.
        let overlaps = route_map_overlaps(space, cfg, map)?;
        for pair in overlaps.pairs.iter().filter(|p| p.conflicting && !p.subset) {
            let joint = space.manager().and(match_sets[pair.i], match_sets[pair.j]);
            let witness = space.witness(joint)?;
            let (si, sj) = (&map.stanzas[pair.i], &map.stanzas[pair.j]);
            let mut d = Diagnostic::new(
                LintCode::ConflictingOverlap,
                RuleId::route_map_stanza(map_name, sj.seq),
                format!(
                    "{} routes that stanza {} ({}) also matches",
                    verb(sj.action),
                    si.seq,
                    verb(si.action)
                ),
            )
            .with_related(RuleId::route_map_stanza(map_name, si.seq));
            if let Some(route) = witness {
                d = d.with_witness(route.to_string());
            }
            out.push(d);
        }
    }
    Ok(())
}

/// Symbolic ACL checks, mirroring the route-map pass over the packet
/// space. ACL overlap itself is decided with the exact interval census.
/// `only` restricts to a dirty subset, as in [`lint_route_maps`].
pub(crate) fn lint_acls(
    cfg: &Config,
    only: Option<&BTreeSet<String>>,
) -> Result<Vec<(String, Vec<Diagnostic>)>, AnalysisError> {
    let acls: Vec<(&String, &clarify_netconfig::Acl)> = cfg
        .acls
        .iter()
        .filter(|(name, _)| only.is_none_or(|set| set.contains(*name)))
        .collect();
    if acls.is_empty() {
        return Ok(Vec::new());
    }
    let per_acl = clarify_par::par_map_init(
        &acls,
        PacketSpace::new,
        |space, _, &(acl_name, acl)| -> Result<Vec<Diagnostic>, AnalysisError> {
            let mut diags = Vec::new();
            lint_one_acl(space, cfg, acl_name, acl, None, &mut diags)?;
            space.manager().clear_op_caches();
            Ok(diags)
        },
    );
    acls.iter()
        .zip(per_acl)
        .map(|(&(name, _), diags)| Ok((name.clone(), diags?)))
        .collect()
}

/// The per-object body of [`lint_acls`]: all checks for one ACL.
pub(crate) fn lint_one_acl(
    space: &mut PacketSpace,
    cfg: &Config,
    acl_name: &str,
    acl: &clarify_netconfig::Acl,
    fire_cache: Option<(&mut FireSetCache, u64)>,
    out: &mut Vec<Diagnostic>,
) -> Result<(), AnalysisError> {
    let valid = space.valid();
    {
        let match_sets = space.match_sets(acl);
        let fires = match fire_cache {
            Some((cache, hash)) => fire_sets_cached(space, cache, cfg, acl, hash)?.fires,
            None => space.fire_sets(acl).0,
        };
        let mut dead: BTreeSet<usize> = BTreeSet::new();
        for (i, entry) in acl.entries.iter().enumerate() {
            let rule = RuleId::acl_entry(acl_name, i);
            let vm = space.manager().and(match_sets[i], valid);
            if vm == Ref::FALSE {
                dead.insert(i);
                out.push(
                    Diagnostic::new(
                        LintCode::EmptyMatch,
                        rule,
                        "match condition is unsatisfiable; the entry can never apply",
                    )
                    .with_fix(format!("delete rule {i}")),
                );
                continue;
            }
            if fires[i] == Ref::FALSE {
                dead.insert(i);
                let mut d = Diagnostic::new(
                    LintCode::ShadowedRule,
                    rule,
                    "every packet it matches is decided by an earlier entry; it can never fire",
                );
                if let Some(pkt) = space.witness(vm) {
                    if let Ok(verdict) = cfg.eval_acl(acl_name, &pkt) {
                        if let Some(k) = verdict.index {
                            d = d
                                .with_related(RuleId::acl_entry(acl_name, k))
                                .with_fix(format!("delete rule {i} or move it above rule {k}"));
                        }
                    }
                    d = d.with_witness(pkt.to_string());
                }
                out.push(d);
            }
            let _ = entry;
        }
        for i in 0..acl.entries.len() {
            if dead.contains(&i) {
                continue;
            }
            let mut modified = acl.clone();
            modified.entries.remove(i);
            if filters_equivalent(space, acl, &modified) {
                out.push(
                    Diagnostic::new(
                        LintCode::RedundantRule,
                        RuleId::acl_entry(acl_name, i),
                        "deleting it leaves the filter behaviourally equivalent",
                    )
                    .with_fix(format!("delete rule {i}")),
                );
            }
        }
        let overlaps = acl_overlaps(acl);
        for pair in overlaps.pairs.iter().filter(|p| p.conflicting && !p.subset) {
            let joint = space.manager().and(match_sets[pair.i], match_sets[pair.j]);
            let (ei, ej) = (&acl.entries[pair.i], &acl.entries[pair.j]);
            let mut d = Diagnostic::new(
                LintCode::ConflictingOverlap,
                RuleId::acl_entry(acl_name, pair.j),
                format!(
                    "{} packets that rule {} ({}) also matches",
                    verb(ej.action),
                    pair.i,
                    verb(ei.action)
                ),
            )
            .with_related(RuleId::acl_entry(acl_name, pair.i));
            if let Some(pkt) = space.witness(joint) {
                d = d.with_witness(pkt.to_string());
            }
            out.push(d);
        }
    }
    Ok(())
}

/// Prefix-list checks over the standalone prefix space. `only` restricts
/// to a dirty subset, as in [`lint_route_maps`].
pub(crate) fn lint_prefix_lists(
    cfg: &Config,
    only: Option<&BTreeSet<String>>,
) -> Result<Vec<(String, Vec<Diagnostic>)>, AnalysisError> {
    let lists: Vec<(&String, &clarify_netconfig::PrefixList)> = cfg
        .prefix_lists
        .iter()
        .filter(|(name, _)| only.is_none_or(|set| set.contains(*name)))
        .collect();
    if lists.is_empty() {
        return Ok(Vec::new());
    }
    let per_list = clarify_par::par_map_init(
        &lists,
        PrefixSpace::new,
        |space, _, &(list_name, list)| -> Result<Vec<Diagnostic>, AnalysisError> {
            let mut diags = Vec::new();
            lint_one_prefix_list(space, cfg, list_name, list, None, &mut diags)?;
            space.manager().clear_op_caches();
            Ok(diags)
        },
    );
    lists
        .iter()
        .zip(per_list)
        .map(|(&(name, _), diags)| Ok((name.clone(), diags?)))
        .collect()
}

/// The per-object body of [`lint_prefix_lists`]: all checks for one list.
pub(crate) fn lint_one_prefix_list(
    space: &mut PrefixSpace,
    cfg: &Config,
    list_name: &str,
    list: &clarify_netconfig::PrefixList,
    fire_cache: Option<(&mut FireSetCache, u64)>,
    out: &mut Vec<Diagnostic>,
) -> Result<(), AnalysisError> {
    let valid = space.valid();
    {
        let match_sets = space.match_sets(list);
        let fires = match fire_cache {
            Some((cache, hash)) => fire_sets_cached(space, cache, cfg, list, hash)?.fires,
            None => space.fire_sets(list).0,
        };
        let mut dead: BTreeSet<usize> = BTreeSet::new();
        for (i, entry) in list.entries.iter().enumerate() {
            let rule = RuleId::prefix_entry(list_name, entry.seq);
            let vm = space.manager().and(match_sets[i], valid);
            if vm == Ref::FALSE {
                dead.insert(i);
                out.push(
                    Diagnostic::new(
                        LintCode::EmptyMatch,
                        rule,
                        "matches no prefix; the entry can never apply",
                    )
                    .with_fix(format!("delete seq {}", entry.seq)),
                );
                continue;
            }
            if fires[i] == Ref::FALSE {
                dead.insert(i);
                let mut d = Diagnostic::new(
                    LintCode::ShadowedRule,
                    rule,
                    "every prefix it matches is decided by an earlier entry; it can never fire",
                );
                if let Some(p) = space.witness(vm) {
                    if let Some(k) = first_matching_entry(list, &p) {
                        d = d
                            .with_related(RuleId::prefix_entry(list_name, list.entries[k].seq))
                            .with_fix(format!(
                                "delete seq {} or move it above seq {}",
                                entry.seq, list.entries[k].seq
                            ));
                    }
                    d = d.with_witness(p.to_string());
                }
                out.push(d);
            }
        }
        for (i, entry) in list.entries.iter().enumerate() {
            if dead.contains(&i) {
                continue;
            }
            let mut modified = list.clone();
            modified.entries.remove(i);
            if prefix_lists_equivalent(space, list, &modified)? {
                out.push(
                    Diagnostic::new(
                        LintCode::RedundantRule,
                        RuleId::prefix_entry(list_name, entry.seq),
                        "deleting it leaves the list behaviourally equivalent",
                    )
                    .with_fix(format!("delete seq {}", entry.seq)),
                );
            }
        }
        // Conflicting overlaps between entries of differing action, neither
        // containing the other.
        for i in 0..list.entries.len() {
            for j in (i + 1)..list.entries.len() {
                if list.entries[i].action == list.entries[j].action {
                    continue;
                }
                let (vi, vj) = (
                    space.manager().and(match_sets[i], valid),
                    space.manager().and(match_sets[j], valid),
                );
                let joint = space.manager().and(vi, vj);
                if joint == Ref::FALSE {
                    continue;
                }
                let subset =
                    space.manager().implies_true(vi, vj) || space.manager().implies_true(vj, vi);
                if subset {
                    continue;
                }
                let mut d = Diagnostic::new(
                    LintCode::ConflictingOverlap,
                    RuleId::prefix_entry(list_name, list.entries[j].seq),
                    format!(
                        "{} prefixes that seq {} ({}) also matches",
                        verb(list.entries[j].action),
                        list.entries[i].seq,
                        verb(list.entries[i].action)
                    ),
                )
                .with_related(RuleId::prefix_entry(list_name, list.entries[i].seq));
                if let Some(p) = space.witness(joint) {
                    d = d.with_witness(p.to_string());
                }
                out.push(d);
            }
        }
    }
    Ok(())
}

/// Index of the first entry matching `p` under first-match semantics.
fn first_matching_entry(
    list: &clarify_netconfig::PrefixList,
    p: &clarify_nettypes::Prefix,
) -> Option<usize> {
    list.entries.iter().position(|e| e.range.matches(p))
}
