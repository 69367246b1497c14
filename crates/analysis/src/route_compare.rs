//! Differential comparison of two route-maps — the engine behind the
//! disambiguator's questions (Batfish's `compareRoutePolicies`).

use std::collections::BTreeSet;
use std::net::Ipv4Addr;

use clarify_bdd::Ref;
use clarify_netconfig::{Action, Config, RouteMap, RouteMapStanza, RouteMapVerdict};
use clarify_nettypes::{BgpRoute, Community};

use crate::effect::{CommunityEffect, SetEffect};
use crate::error::AnalysisError;
use crate::first_match::FirstMatchPolicy;
use crate::route_space::{Field, RouteSpace};

/// One concrete behavioural difference between two policies.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RouteDiff {
    /// The input route exhibiting the difference.
    pub route: BgpRoute,
    /// Outcome under the first policy.
    pub a: RouteMapVerdict,
    /// Outcome under the second policy.
    pub b: RouteMapVerdict,
}

/// Finds up to `limit` concrete routes on which `map_a` (in `cfg_a`) and
/// `map_b` (in `cfg_b`) behave differently; both verdicts come from the
/// concrete reference evaluator, so every reported difference is real.
///
/// The two configurations must both be covered by `space` (built over
/// them). Permit/deny differences and differences in set-clause outcomes
/// on fields inside the symbolic space are found exactly; differences
/// confined to fields outside it (next hop, weight) are found by adjusting
/// the witness's free fields.
pub fn compare_route_policies(
    space: &mut RouteSpace,
    cfg_a: &Config,
    map_a: &str,
    cfg_b: &Config,
    map_b: &str,
    limit: usize,
) -> Result<Vec<RouteDiff>, AnalysisError> {
    let regions_a = regions(space, cfg_a, map_a)?;
    let regions_b = regions(space, cfg_b, map_b)?;

    let mut diffs: Vec<RouteDiff> = Vec::new();
    let mut seen_routes: BTreeSet<String> = BTreeSet::new();

    'pairs: for &(ra, sa) in &regions_a {
        for &(rb, sb) in &regions_b {
            if diffs.len() >= limit {
                break 'pairs;
            }
            let joint = space.manager().and(ra, rb);
            let diff = stanza_pair_diff(space, joint, sa, sb, |route| {
                Ok((
                    cfg_a.eval_route_map(map_a, route)?,
                    cfg_b.eval_route_map(map_b, route)?,
                ))
            })?;
            if let Some(diff) = diff {
                if seen_routes.insert(format!("{:?}", diff.route)) {
                    diffs.push(diff);
                }
            }
        }
    }
    Ok(diffs)
}

/// The first concrete difference on `joint` between two policies that
/// decide all of it by one stanza each: `a` in the first policy and `b`
/// in the second, `None` standing for the implicit deny. `eval` runs a
/// candidate route through both policies' concrete evaluators, so a
/// reported difference is real.
///
/// This is one region pair of [`compare_route_policies`]. It is also the
/// whole comparison for a one-stanza change, which can only change
/// behaviour on one such region: deleting a stanza (the lint's
/// redundancy check) or placing a new stanza above rather than below an
/// existing one (the disambiguator's questions).
pub fn stanza_pair_diff(
    space: &mut RouteSpace,
    joint: Ref,
    a: Option<&RouteMapStanza>,
    b: Option<&RouteMapStanza>,
    mut eval: impl FnMut(&BgpRoute) -> Result<(RouteMapVerdict, RouteMapVerdict), AnalysisError>,
) -> Result<Option<RouteDiff>, AnalysisError> {
    if joint == Ref::FALSE {
        return Ok(None);
    }
    let (oa, ob) = (Outcome::of(a), Outcome::of(b));
    // Narrow `joint` to inputs whose outcomes differ.
    let diff_region = match (&oa, &ob) {
        (Outcome::Deny, Outcome::Deny) => Ref::FALSE,
        (Outcome::Permit(_), Outcome::Deny) | (Outcome::Deny, Outcome::Permit(_)) => joint,
        (Outcome::Permit(ea), Outcome::Permit(eb)) => transform_diff_region(space, joint, ea, eb)?,
    };
    if diff_region == Ref::FALSE {
        return Ok(None);
    }
    // Candidate witnesses: the low- and high-branch extractions, each
    // optionally augmented with a community that neither effect mentions.
    // The augmentation matters when the two stanzas differ only in their
    // community *effect* (e.g. `set community c additive` vs replace): a
    // community-free witness makes both outputs coincide, and with no
    // community lists in either config the symbolic space cannot demand a
    // community by itself.
    let fresh = fresh_community(&oa, &ob);
    let mut candidates: Vec<BgpRoute> = Vec::new();
    for alt in [false, true] {
        let witness = if alt {
            space.witness_alt(diff_region)?
        } else {
            space.witness(diff_region)?
        };
        if let Some(mut route) = witness {
            adjust_free_fields(&mut route, &oa, &ob);
            if let Some(c) = fresh {
                let mut augmented = route.clone();
                augmented.communities.insert(c);
                candidates.push(augmented);
            }
            candidates.push(route);
        }
    }
    for route in candidates {
        let (va, vb) = eval(&route)?;
        // The symbolic region over-approximated on a field outside the
        // space when a candidate's verdicts coincide; try the next one.
        if !va.same_behaviour(&vb) {
            return Ok(Some(RouteDiff {
                route,
                a: va,
                b: vb,
            }));
        }
    }
    Ok(None)
}

/// Each stanza's firing region in route-map `name` of `cfg` with the
/// stanza, then the implicit deny's region.
fn regions<'c>(
    space: &mut RouteSpace,
    cfg: &'c Config,
    name: &str,
) -> Result<Vec<(Ref, Option<&'c RouteMapStanza>)>, AnalysisError> {
    let map = cfg.route_map(name).ok_or_else(|| {
        AnalysisError::Config(clarify_netconfig::ConfigError::NotFound {
            kind: "route-map",
            name: name.to_string(),
        })
    })?;
    let matches = map.match_sets(space, cfg)?;
    let (fires, implicit) = RouteMap::fire_sets(space, &matches);
    Ok(fires
        .into_iter()
        .zip(map.stanzas.iter().map(Some))
        .chain([(implicit, None)])
        .collect())
}

/// When the two outcomes are permits whose community effects differ,
/// returns a community that neither effect mentions (so adding it to a
/// witness exposes add-vs-replace differences). `None` when the community
/// effects agree or either side denies.
fn fresh_community(oa: &Outcome, ob: &Outcome) -> Option<Community> {
    let (Outcome::Permit(ea), Outcome::Permit(eb)) = (oa, ob) else {
        return None;
    };
    if ea.communities == eb.communities {
        return None;
    }
    let mut taken: BTreeSet<Community> = BTreeSet::new();
    for effect in [&ea.communities, &eb.communities] {
        if let CommunityEffect::Add(cs) | CommunityEffect::Replace(cs) = effect {
            taken.extend(cs);
        }
    }
    (0..)
        .map(|v| Community::new(65123, v))
        .find(|c| !taken.contains(c))
}

/// Outcome descriptor for one firing region: either a permit with its
/// stanza's `set` effect or a denial of any kind.
enum Outcome {
    Permit(SetEffect),
    Deny,
}

impl Outcome {
    /// The outcome of `stanza`, `None` being the implicit deny.
    fn of(stanza: Option<&RouteMapStanza>) -> Outcome {
        match stanza {
            Some(s) if s.action == Action::Permit => Outcome::Permit(SetEffect::of(&s.sets)),
            _ => Outcome::Deny,
        }
    }
}

/// For two permit effects on `joint`, the sub-region where their outputs
/// differ.
fn transform_diff_region(
    space: &mut RouteSpace,
    joint: Ref,
    ea: &SetEffect,
    eb: &SetEffect,
) -> Result<Ref, AnalysisError> {
    if ea == eb {
        return Ok(Ref::FALSE);
    }
    let mut acc = Ref::FALSE;
    // Fields inside the symbolic space: exact difference regions.
    acc = or_field_diff(space, acc, joint, Field::Metric, ea.metric, eb.metric)?;
    acc = or_field_diff(
        space,
        acc,
        joint,
        Field::LocalPref,
        ea.local_pref,
        eb.local_pref,
    )?;
    acc = or_field_diff(space, acc, joint, Field::Tag, ea.tag, eb.tag)?;
    // Fields outside the space: any disagreement differs on (almost)
    // every input; the caller fixes the witness's free fields so the
    // concrete check passes.
    if ea.weight != eb.weight || ea.next_hop != eb.next_hop {
        acc = space.manager().or(acc, joint);
    }
    // Communities: an effect difference is treated as a whole-region
    // difference; the concrete validation step discards the rare witness
    // on which the effects coincide.
    if ea.communities != eb.communities {
        acc = space.manager().or(acc, joint);
    }
    Ok(acc)
}

/// Adds to `acc` the sub-region of `joint` where setting `field` to
/// `va`/`vb` (None = leave unchanged) produces different outputs.
fn or_field_diff(
    space: &mut RouteSpace,
    acc: Ref,
    joint: Ref,
    field: Field,
    va: Option<u32>,
    vb: Option<u32>,
) -> Result<Ref, AnalysisError> {
    let region = match (va, vb) {
        (None, None) => Ref::FALSE,
        (Some(x), Some(y)) if x == y => Ref::FALSE,
        (Some(_), Some(_)) => joint,
        (Some(v), None) | (None, Some(v)) => {
            if v >= 1 << 16 {
                // The set value lies outside the 16-bit input space, so no
                // input can already carry it: the whole region differs.
                joint
            } else {
                // Differs unless the input already carries value v.
                let eq = space.field_eq(field, v)?;
                let ne = space.manager().not(eq);
                space.manager().and(joint, ne)
            }
        }
    };
    Ok(space.manager().or(acc, region))
}

/// Ensures the witness's fields outside the symbolic space actually
/// expose a set-clause disagreement.
fn adjust_free_fields(route: &mut BgpRoute, oa: &Outcome, ob: &Outcome) {
    let (Outcome::Permit(ea), Outcome::Permit(eb)) = (oa, ob) else {
        return;
    };
    if ea.next_hop != eb.next_hop {
        // Pick an input next hop unequal to whichever side sets one.
        let avoid = ea.next_hop.or(eb.next_hop);
        if let Some(v) = avoid {
            if route.next_hop == v {
                route.next_hop = if v == Ipv4Addr::new(0, 0, 0, 1) {
                    Ipv4Addr::new(0, 0, 0, 2)
                } else {
                    Ipv4Addr::new(0, 0, 0, 1)
                };
            }
        }
    }
    if ea.weight != eb.weight {
        let avoid = ea.weight.or(eb.weight);
        if let Some(v) = avoid {
            if route.weight == v {
                route.weight = if v == 0 { 1 } else { 0 };
            }
        }
    }
}

/// Whether two policies are behaviourally equivalent on every valid route.
pub fn policies_equivalent(
    space: &mut RouteSpace,
    cfg_a: &Config,
    map_a: &str,
    cfg_b: &Config,
    map_b: &str,
) -> Result<bool, AnalysisError> {
    Ok(compare_route_policies(space, cfg_a, map_a, cfg_b, map_b, 1)?.is_empty())
}
