//! Reference (concrete) evaluation of route-maps and ACLs.
//!
//! This evaluator defines the ground-truth semantics the symbolic layer is
//! tested against: first matching rule wins, with an implicit trailing deny.

use clarify_nettypes::{BgpRoute, Packet};

use crate::ast::{Acl, Action, Config, RouteMapMatch, RouteMapSet, RouteMapStanza};
use crate::error::ConfigError;

/// Result of pushing a route through a route-map.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RouteMapVerdict {
    /// A permit stanza matched; contains the transformed route and the
    /// sequence number of the matching stanza.
    Permit {
        /// The route after set clauses were applied.
        route: BgpRoute,
        /// Sequence number of the deciding stanza.
        seq: u32,
    },
    /// A deny stanza matched.
    DenyBy {
        /// Sequence number of the deciding stanza.
        seq: u32,
    },
    /// No stanza matched: the implicit trailing deny applies.
    ImplicitDeny,
}

impl RouteMapVerdict {
    /// Whether the route was permitted.
    pub fn is_permit(&self) -> bool {
        matches!(self, RouteMapVerdict::Permit { .. })
    }

    /// The deciding stanza's sequence number, if an explicit stanza matched.
    pub fn seq(&self) -> Option<u32> {
        match self {
            RouteMapVerdict::Permit { seq, .. } | RouteMapVerdict::DenyBy { seq } => Some(*seq),
            RouteMapVerdict::ImplicitDeny => None,
        }
    }

    /// The outgoing route for permits.
    pub fn route(&self) -> Option<&BgpRoute> {
        match self {
            RouteMapVerdict::Permit { route, .. } => Some(route),
            _ => None,
        }
    }

    /// Whether two verdicts are the same externally visible behaviour:
    /// two permits agree when their output routes do, whichever stanzas
    /// decided them, and any two denials agree.
    pub fn same_behaviour(&self, other: &RouteMapVerdict) -> bool {
        self.route() == other.route()
    }
}

/// Result of pushing a packet through an ACL.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AclVerdict {
    /// The decision.
    pub action: Action,
    /// Index of the deciding entry, or `None` for the implicit deny.
    pub index: Option<usize>,
}

impl Config {
    /// Whether `stanza` (in this config's namespace) matches `route`.
    pub fn stanza_matches(
        &self,
        stanza: &RouteMapStanza,
        route: &BgpRoute,
    ) -> Result<bool, ConfigError> {
        for m in &stanza.matches {
            let ok = match m {
                RouteMapMatch::AsPath(names) => {
                    let subject = route.as_path.subject();
                    let mut any = false;
                    for n in names {
                        if self.as_path_list(n)?.permits_subject(&subject) {
                            any = true;
                            break;
                        }
                    }
                    any
                }
                RouteMapMatch::Community(names) => {
                    let mut any = false;
                    for n in names {
                        if self.community_list(n)?.permits(&route.communities) {
                            any = true;
                            break;
                        }
                    }
                    any
                }
                RouteMapMatch::PrefixList(names) => {
                    let mut any = false;
                    for n in names {
                        if self.prefix_list(n)?.permits(&route.network) {
                            any = true;
                            break;
                        }
                    }
                    any
                }
                RouteMapMatch::LocalPref(v) => route.local_pref == *v,
                RouteMapMatch::Metric(v) => route.metric == *v,
                RouteMapMatch::Tag(v) => route.tag == *v,
            };
            if !ok {
                return Ok(false);
            }
        }
        Ok(true)
    }

    /// Applies a stanza's set clauses to a route.
    pub fn apply_sets(stanza: &RouteMapStanza, route: &BgpRoute) -> BgpRoute {
        let mut out = route.clone();
        for s in &stanza.sets {
            match s {
                RouteMapSet::Metric(v) => out.metric = *v,
                RouteMapSet::LocalPref(v) => out.local_pref = *v,
                RouteMapSet::Weight(v) => out.weight = *v,
                RouteMapSet::Tag(v) => out.tag = *v,
                RouteMapSet::NextHop(ip) => out.next_hop = *ip,
                RouteMapSet::CommunityAdd(cs) => {
                    out.communities.extend(cs.iter().copied());
                }
                RouteMapSet::CommunityReplace(cs) => {
                    out.communities = cs.iter().copied().collect();
                }
            }
        }
        out
    }

    /// Evaluates the named route-map on a route.
    pub fn eval_route_map(
        &self,
        name: &str,
        route: &BgpRoute,
    ) -> Result<RouteMapVerdict, ConfigError> {
        let rm = self.route_map(name).ok_or_else(|| ConfigError::NotFound {
            kind: "route-map",
            name: name.to_string(),
        })?;
        for stanza in &rm.stanzas {
            if self.stanza_matches(stanza, route)? {
                return Ok(match stanza.action {
                    Action::Permit => RouteMapVerdict::Permit {
                        route: Config::apply_sets(stanza, route),
                        seq: stanza.seq,
                    },
                    Action::Deny => RouteMapVerdict::DenyBy { seq: stanza.seq },
                });
            }
        }
        Ok(RouteMapVerdict::ImplicitDeny)
    }

    /// Evaluates the named ACL on a packet.
    pub fn eval_acl(&self, name: &str, pkt: &Packet) -> Result<AclVerdict, ConfigError> {
        let acl = self.acl(name).ok_or_else(|| ConfigError::NotFound {
            kind: "access-list",
            name: name.to_string(),
        })?;
        Ok(acl.eval(pkt))
    }
}

impl Acl {
    /// Evaluates the ACL on a packet: the first matching entry decides,
    /// with an implicit trailing deny.
    pub fn eval(&self, pkt: &Packet) -> AclVerdict {
        let index = self.entries.iter().position(|e| e.matches(pkt));
        AclVerdict {
            action: index.map_or(Action::Deny, |i| self.entries[i].action),
            index,
        }
    }
}
