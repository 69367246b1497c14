//! Differential comparison of two route-maps — the engine behind the
//! disambiguator's questions (Batfish's `compareRoutePolicies`).

use std::collections::BTreeSet;
use std::net::Ipv4Addr;

use clarify_bdd::Ref;
use clarify_netconfig::{Action, Config, RouteMapSet, RouteMapStanza, RouteMapVerdict};
use clarify_nettypes::{BgpRoute, Community};

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

/// The net effect of a stanza's community set clauses.
#[derive(Clone, Debug, PartialEq, Eq)]
enum CommEffect {
    None,
    Add(BTreeSet<Community>),
    Replace(BTreeSet<Community>),
}

/// The net effect of all set clauses in a stanza, field by field.
#[derive(Clone, Debug, PartialEq, Eq)]
struct Transform {
    metric: Option<u32>,
    local_pref: Option<u32>,
    tag: Option<u32>,
    weight: Option<u16>,
    next_hop: Option<Ipv4Addr>,
    communities: CommEffect,
}

fn transform_of(stanza: &RouteMapStanza) -> Transform {
    let mut t = Transform {
        metric: None,
        local_pref: None,
        tag: None,
        weight: None,
        next_hop: None,
        communities: CommEffect::None,
    };
    for s in &stanza.sets {
        match s {
            RouteMapSet::Metric(v) => t.metric = Some(*v),
            RouteMapSet::LocalPref(v) => t.local_pref = Some(*v),
            RouteMapSet::Tag(v) => t.tag = Some(*v),
            RouteMapSet::Weight(v) => t.weight = Some(*v),
            RouteMapSet::NextHop(ip) => t.next_hop = Some(*ip),
            RouteMapSet::CommunityAdd(cs) => {
                t.communities = match t.communities {
                    CommEffect::None => CommEffect::Add(cs.iter().copied().collect()),
                    CommEffect::Add(mut old) => {
                        old.extend(cs.iter().copied());
                        CommEffect::Add(old)
                    }
                    CommEffect::Replace(mut old) => {
                        old.extend(cs.iter().copied());
                        CommEffect::Replace(old)
                    }
                };
            }
            RouteMapSet::CommunityReplace(cs) => {
                t.communities = CommEffect::Replace(cs.iter().copied().collect());
            }
        }
    }
    t
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
    let rm_a = cfg_a
        .route_map(map_a)
        .ok_or_else(|| not_found(map_a))?
        .clone();
    let rm_b = cfg_b
        .route_map(map_b)
        .ok_or_else(|| not_found(map_b))?
        .clone();
    let (fires_a, implicit_a) = rm_a.fire_sets(space, cfg_a)?;
    let (fires_b, implicit_b) = rm_b.fire_sets(space, cfg_b)?;

    // Regions with their outcome descriptors. Implicit deny behaves like a
    // deny stanza.
    let mut regions_a: Vec<(Ref, Outcome)> = Vec::new();
    for (s, &f) in rm_a.stanzas.iter().zip(&fires_a) {
        regions_a.push((
            f,
            match s.action {
                Action::Permit => Outcome::Permit(s),
                Action::Deny => Outcome::Deny,
            },
        ));
    }
    regions_a.push((implicit_a, Outcome::Deny));
    let mut regions_b: Vec<(Ref, Outcome)> = Vec::new();
    for (s, &f) in rm_b.stanzas.iter().zip(&fires_b) {
        regions_b.push((
            f,
            match s.action {
                Action::Permit => Outcome::Permit(s),
                Action::Deny => Outcome::Deny,
            },
        ));
    }
    regions_b.push((implicit_b, Outcome::Deny));

    let mut diffs: Vec<RouteDiff> = Vec::new();
    let mut seen_routes: BTreeSet<String> = BTreeSet::new();

    'pairs: for (ra, oa) in &regions_a {
        for (rb, ob) in &regions_b {
            if diffs.len() >= limit {
                break 'pairs;
            }
            let joint = space.manager().and(*ra, *rb);
            if joint == Ref::FALSE {
                continue;
            }
            // Narrow `joint` to inputs whose outcomes differ.
            let diff_region = match (oa, ob) {
                (Outcome::Deny, Outcome::Deny) => Ref::FALSE,
                (Outcome::Permit(_), Outcome::Deny) | (Outcome::Deny, Outcome::Permit(_)) => joint,
                (Outcome::Permit(sa), Outcome::Permit(sb)) => {
                    transform_diff_region(space, joint, sa, sb)?
                }
            };
            if diff_region == Ref::FALSE {
                continue;
            }
            // Candidate witnesses: the low- and high-branch extractions,
            // each optionally augmented with a community that neither
            // transform mentions. The augmentation matters when the two
            // stanzas differ only in their community *effect* (e.g.
            // `set community c additive` vs replace): a community-free
            // witness makes both outputs coincide, and with no community
            // lists in either config the symbolic space cannot demand a
            // community by itself.
            let fresh = fresh_community(oa, ob);
            let mut candidates: Vec<BgpRoute> = Vec::new();
            for alt in [false, true] {
                let witness = if alt {
                    space.witness_alt(diff_region)?
                } else {
                    space.witness(diff_region)?
                };
                if let Some(mut route) = witness {
                    adjust_free_fields(&mut route, oa, ob);
                    if let Some(c) = fresh {
                        let mut augmented = route.clone();
                        augmented.communities.insert(c);
                        candidates.push(augmented);
                    }
                    candidates.push(route);
                }
            }
            for route in candidates {
                let va = cfg_a.eval_route_map(map_a, &route)?;
                let vb = cfg_b.eval_route_map(map_b, &route)?;
                if va.same_behaviour(&vb) {
                    // The symbolic region over-approximated on a field
                    // outside the space and this candidate coincided; try
                    // the next one, else skip the pair.
                    continue;
                }
                let key = format!("{route:?}");
                if seen_routes.insert(key) {
                    diffs.push(RouteDiff {
                        route,
                        a: va,
                        b: vb,
                    });
                }
                break;
            }
        }
    }
    Ok(diffs)
}

/// When the two outcomes are permit stanzas whose community effects
/// differ, returns a community that neither effect mentions (so adding it
/// to a witness exposes add-vs-replace differences). `None` when the
/// community effects agree or either side denies.
fn fresh_community(oa: &Outcome, ob: &Outcome) -> Option<Community> {
    let (Outcome::Permit(sa), Outcome::Permit(sb)) = (oa, ob) else {
        return None;
    };
    let ta = transform_of(sa);
    let tb = transform_of(sb);
    if ta.communities == tb.communities {
        return None;
    }
    let mentioned = |t: &Transform| -> BTreeSet<Community> {
        match &t.communities {
            CommEffect::None => BTreeSet::new(),
            CommEffect::Add(cs) | CommEffect::Replace(cs) => cs.clone(),
        }
    };
    let mut taken = mentioned(&ta);
    taken.extend(mentioned(&tb));
    (0..)
        .map(|v| Community::new(65123, v))
        .find(|c| !taken.contains(c))
}

/// Outcome descriptor for one firing region: either a permit stanza (whose
/// set clauses matter) or a denial of any kind.
enum Outcome<'s> {
    Permit(&'s RouteMapStanza),
    Deny,
}

/// For two permit stanzas firing on `joint`, the sub-region where their
/// outputs differ.
fn transform_diff_region(
    space: &mut RouteSpace,
    joint: Ref,
    sa: &RouteMapStanza,
    sb: &RouteMapStanza,
) -> Result<Ref, AnalysisError> {
    let ta = transform_of(sa);
    let tb = transform_of(sb);
    if ta == tb {
        return Ok(Ref::FALSE);
    }
    let mut acc = Ref::FALSE;
    // Fields inside the symbolic space: exact difference regions.
    acc = or_field_diff(space, acc, joint, Field::Metric, ta.metric, tb.metric)?;
    acc = or_field_diff(
        space,
        acc,
        joint,
        Field::LocalPref,
        ta.local_pref,
        tb.local_pref,
    )?;
    acc = or_field_diff(space, acc, joint, Field::Tag, ta.tag, tb.tag)?;
    // Fields outside the space: any disagreement differs on (almost)
    // every input; the caller fixes the witness's free fields so the
    // concrete check passes.
    if ta.weight != tb.weight || ta.next_hop != tb.next_hop {
        acc = space.manager().or(acc, joint);
    }
    // Communities: a syntactic effect difference is treated as a
    // whole-region difference; the concrete validation step discards
    // the rare witness on which the effects coincide.
    if ta.communities != tb.communities {
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
    let (ta, tb) = match (oa, ob) {
        (Outcome::Permit(sa), Outcome::Permit(sb)) => (transform_of(sa), transform_of(sb)),
        _ => return,
    };
    if ta.next_hop != tb.next_hop {
        // Pick an input next hop unequal to whichever side sets one.
        let avoid = ta.next_hop.or(tb.next_hop);
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
    if ta.weight != tb.weight {
        let avoid = ta.weight.or(tb.weight);
        if let Some(v) = avoid {
            if route.weight == v {
                route.weight = if v == 0 { 1 } else { 0 };
            }
        }
    }
}

fn not_found(name: &str) -> AnalysisError {
    AnalysisError::Config(clarify_netconfig::ConfigError::NotFound {
        kind: "route-map",
        name: name.to_string(),
    })
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
