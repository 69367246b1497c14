//! The net effect of a stanza's `set` clauses, the one place this crate
//! folds a `set` list.

use std::collections::BTreeSet;
use std::net::Ipv4Addr;

use clarify_netconfig::RouteMapSet;
use clarify_nettypes::Community;

/// What a `set` list does to a route's communities.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) enum CommunityEffect {
    /// The communities are left alone.
    Keep,
    /// These communities join the route's own.
    Add(BTreeSet<Community>),
    /// The route's communities become exactly these.
    Replace(BTreeSet<Community>),
}

/// The net effect of a list of `set` clauses applied in order: the last
/// write wins on each field, community adds accumulate, a replace resets
/// them, and an empty add does nothing. Two lists have equal effects
/// exactly when they rewrite every route the same way.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) struct SetEffect {
    pub(crate) metric: Option<u32>,
    pub(crate) local_pref: Option<u32>,
    pub(crate) tag: Option<u32>,
    pub(crate) weight: Option<u16>,
    pub(crate) next_hop: Option<Ipv4Addr>,
    pub(crate) communities: CommunityEffect,
}

impl SetEffect {
    /// Folds a clause list into its net effect.
    pub(crate) fn of(sets: &[RouteMapSet]) -> SetEffect {
        let mut e = SetEffect {
            metric: None,
            local_pref: None,
            tag: None,
            weight: None,
            next_hop: None,
            communities: CommunityEffect::Keep,
        };
        for s in sets {
            match s {
                RouteMapSet::Metric(v) => e.metric = Some(*v),
                RouteMapSet::LocalPref(v) => e.local_pref = Some(*v),
                RouteMapSet::Tag(v) => e.tag = Some(*v),
                RouteMapSet::Weight(v) => e.weight = Some(*v),
                RouteMapSet::NextHop(ip) => e.next_hop = Some(*ip),
                RouteMapSet::CommunityAdd(cs) if cs.is_empty() => {}
                RouteMapSet::CommunityAdd(cs) => match &mut e.communities {
                    CommunityEffect::Keep => {
                        e.communities = CommunityEffect::Add(cs.iter().copied().collect())
                    }
                    CommunityEffect::Add(old) | CommunityEffect::Replace(old) => {
                        old.extend(cs.iter().copied())
                    }
                },
                RouteMapSet::CommunityReplace(cs) => {
                    e.communities = CommunityEffect::Replace(cs.iter().copied().collect())
                }
            }
        }
        e
    }
}
