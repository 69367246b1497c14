//! Machine-readable stanza specifications and verification against them.
//!
//! After the LLM synthesizes a stanza, the pipeline extracts a JSON spec
//! from the user's prompt (§2.1 of the paper shows the format), the user
//! eyeballs the spec, and the synthesized stanza is *verified* against it
//! symbolically. This module defines that spec and the verifier.

use clarify_automata::Regex;
use clarify_bdd::Ref;
use clarify_netconfig::{Action, Config, RouteMapSet, RouteMapStanza};
use clarify_nettypes::{BgpRoute, PrefixRange};

use crate::error::AnalysisError;
use crate::route_space::RouteSpace;

/// A machine-readable specification of a single route-map stanza.
///
/// Mirrors the paper's JSON: an action, prefix constraints, community and
/// AS-path regexes, optional exact attribute matches, and the expected set
/// clauses.
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct StanzaSpec {
    /// Expected action (`true` in the paper's `"permit"` field).
    pub permit: bool,
    /// Prefix ranges the stanza must match (OR when several).
    pub prefixes: Vec<PrefixRange>,
    /// Community regexes (each must match some community of the route).
    pub communities: Vec<String>,
    /// AS-path regexes.
    pub as_paths: Vec<String>,
    /// Exact local-preference match, if any.
    pub local_pref: Option<u32>,
    /// Exact metric match, if any.
    pub metric: Option<u32>,
    /// Exact tag match, if any.
    pub tag: Option<u32>,
    /// Expected set clauses.
    pub sets: Vec<RouteMapSet>,
}

impl StanzaSpec {
    /// Renders the paper's JSON format, e.g.
    /// `{"permit": true, "prefix": ["100.0.0.0/16:16-23"], "community":
    /// "/_300:3_/", "set": {"metric": 55}}`.
    pub fn to_json(&self) -> String {
        let mut parts: Vec<String> = Vec::new();
        parts.push(format!("\"permit\": {}", self.permit));
        if !self.prefixes.is_empty() {
            let items: Vec<String> = self
                .prefixes
                .iter()
                .map(|r| {
                    format!(
                        "\"{}/{}:{}-{}\"",
                        r.prefix.addr(),
                        r.prefix.len(),
                        r.min_len,
                        r.max_len
                    )
                })
                .collect();
            parts.push(format!("\"prefix\": [{}]", items.join(", ")));
        }
        for c in &self.communities {
            parts.push(format!("\"community\": \"/{c}/\""));
        }
        for p in &self.as_paths {
            parts.push(format!("\"as-path\": \"/{p}/\""));
        }
        if let Some(v) = self.local_pref {
            parts.push(format!("\"local-preference\": {v}"));
        }
        if let Some(v) = self.metric {
            parts.push(format!("\"metric\": {v}"));
        }
        if let Some(v) = self.tag {
            parts.push(format!("\"tag\": {v}"));
        }
        if !self.sets.is_empty() {
            let items: Vec<String> = self
                .sets
                .iter()
                .map(|s| match s {
                    RouteMapSet::Metric(v) => format!("\"metric\": {v}"),
                    RouteMapSet::LocalPref(v) => format!("\"local-preference\": {v}"),
                    RouteMapSet::Weight(v) => format!("\"weight\": {v}"),
                    RouteMapSet::Tag(v) => format!("\"tag\": {v}"),
                    RouteMapSet::NextHop(ip) => format!("\"next-hop\": \"{ip}\""),
                    RouteMapSet::CommunityAdd(cs) => format!(
                        "\"community-add\": [{}]",
                        cs.iter()
                            .map(|c| format!("\"{c}\""))
                            .collect::<Vec<_>>()
                            .join(", ")
                    ),
                    RouteMapSet::CommunityReplace(cs) => format!(
                        "\"community\": [{}]",
                        cs.iter()
                            .map(|c| format!("\"{c}\""))
                            .collect::<Vec<_>>()
                            .join(", ")
                    ),
                })
                .collect();
            parts.push(format!("\"set\": {{{}}}", items.join(", ")));
        }
        format!("{{{}}}", parts.join(", "))
    }

    /// The regexes this spec mentions, for building a covering
    /// [`RouteSpace`]. Returns parse errors eagerly.
    pub fn regexes(&self) -> Result<(Vec<Regex>, Vec<Regex>), AnalysisError> {
        let comm = self
            .communities
            .iter()
            .map(|p| Regex::parse(p).map_err(|_| AnalysisError::UnknownPattern(p.clone())))
            .collect::<Result<Vec<_>, _>>()?;
        let path = self
            .as_paths
            .iter()
            .map(|p| Regex::parse(p).map_err(|_| AnalysisError::UnknownPattern(p.clone())))
            .collect::<Result<Vec<_>, _>>()?;
        Ok((comm, path))
    }

    /// Encodes the spec's match region in a route space whose universe
    /// includes the spec's regexes. In practice that space is built from
    /// the snippet configuration, whose lists carry the same regexes.
    pub fn encode_match(&self, space: &mut RouteSpace) -> Result<Ref, AnalysisError> {
        // Express the spec through a synthetic config + stanza so encoding
        // is shared with the normal path.
        let (cfg, stanza) = self.as_stanza("SPEC");
        space.encode_stanza_match(&cfg, &stanza)
    }

    /// Builds an equivalent synthetic config + stanza named `name`.
    pub fn as_stanza(&self, name: &str) -> (Config, RouteMapStanza) {
        use clarify_netconfig::{
            AsPathList, AsPathListEntry, CommunityList, CommunityListEntry, PrefixList,
            PrefixListEntry, RouteMapMatch,
        };
        let mut cfg = Config::new();
        let mut matches = Vec::new();
        if !self.prefixes.is_empty() {
            let pl = PrefixList {
                name: format!("{name}_PFX"),
                entries: self
                    .prefixes
                    .iter()
                    .enumerate()
                    .map(|(i, r)| PrefixListEntry {
                        seq: (i as u32 + 1) * 5,
                        action: Action::Permit,
                        range: *r,
                    })
                    .collect(),
            };
            matches.push(RouteMapMatch::PrefixList(vec![pl.name.clone()]));
            cfg.prefix_lists.insert(pl.name.clone(), pl);
        }
        for (k, pattern) in self.communities.iter().enumerate() {
            let cl = CommunityList {
                name: format!("{name}_COM{k}"),
                entries: vec![CommunityListEntry {
                    action: Action::Permit,
                    regex: Regex::parse(pattern).expect("validated by regexes()"),
                }],
            };
            matches.push(RouteMapMatch::Community(vec![cl.name.clone()]));
            cfg.community_lists.insert(cl.name.clone(), cl);
        }
        for (k, pattern) in self.as_paths.iter().enumerate() {
            let al = AsPathList {
                name: format!("{name}_ASP{k}"),
                entries: vec![AsPathListEntry {
                    action: Action::Permit,
                    regex: Regex::parse(pattern).expect("validated by regexes()"),
                }],
            };
            matches.push(RouteMapMatch::AsPath(vec![al.name.clone()]));
            cfg.as_path_lists.insert(al.name.clone(), al);
        }
        if let Some(v) = self.local_pref {
            matches.push(RouteMapMatch::LocalPref(v));
        }
        if let Some(v) = self.metric {
            matches.push(RouteMapMatch::Metric(v));
        }
        if let Some(v) = self.tag {
            matches.push(RouteMapMatch::Tag(v));
        }
        let stanza = RouteMapStanza {
            seq: 10,
            action: if self.permit {
                Action::Permit
            } else {
                Action::Deny
            },
            matches,
            sets: self.sets.clone(),
        };
        (cfg, stanza)
    }
}

/// Outcome of verifying a synthesized stanza against its spec.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SpecVerdict {
    /// The stanza's match set, action, and set clauses all agree.
    Verified,
    /// The stanza's action differs from the spec's.
    ActionMismatch,
    /// The match sets differ; carries a route in the symmetric difference
    /// and whether the *stanza* (as opposed to the spec) matches it.
    MatchMismatch {
        /// A route matched by exactly one of stanza/spec.
        witness: Box<BgpRoute>,
        /// True when the stanza matches the witness but the spec does not.
        stanza_matches: bool,
    },
    /// Set clauses disagree (compared as normalized per-field effects).
    SetMismatch,
}

/// Verifies that the single stanza of `snippet`'s route-map `map_name`
/// implements `spec`, using a fresh route space covering both.
pub fn verify_stanza_against_spec(
    snippet: &Config,
    map_name: &str,
    spec: &StanzaSpec,
) -> Result<SpecVerdict, AnalysisError> {
    let rm = snippet
        .route_map(map_name)
        .ok_or_else(|| {
            AnalysisError::Config(clarify_netconfig::ConfigError::NotFound {
                kind: "route-map",
                name: map_name.to_string(),
            })
        })?
        .clone();
    if rm.stanzas.len() != 1 {
        return Err(AnalysisError::Config(
            clarify_netconfig::ConfigError::InvalidEdit(format!(
                "snippet route-map '{map_name}' must have exactly one stanza"
            )),
        ));
    }
    let stanza = &rm.stanzas[0];
    let spec_action = if spec.permit {
        Action::Permit
    } else {
        Action::Deny
    };
    if stanza.action != spec_action {
        return Ok(SpecVerdict::ActionMismatch);
    }

    // Build a space covering the snippet's and the spec's regexes.
    let (spec_cfg, spec_stanza) = spec.as_stanza("SPEC");
    let mut space = RouteSpace::new(&[snippet, &spec_cfg])?;
    let stanza_set = space.encode_stanza_match(snippet, stanza)?;
    let spec_set = space.encode_stanza_match(&spec_cfg, &spec_stanza)?;
    let sym_diff = space.manager().xor(stanza_set, spec_set);
    if let Some(witness) = space.witness(sym_diff)? {
        let stanza_matches = snippet.stanza_matches(stanza, &witness)?;
        return Ok(SpecVerdict::MatchMismatch {
            witness: Box::new(witness),
            stanza_matches,
        });
    }

    // Compare set-clause effects by evaluating both stanzas as one-stanza
    // policies on a common matching route, plus a normalized syntactic
    // comparison for full coverage.
    if !sets_equivalent(&stanza.sets, &spec.sets) {
        return Ok(SpecVerdict::SetMismatch);
    }
    Ok(SpecVerdict::Verified)
}

/// Compares two set-clause lists by their net per-field effect.
fn sets_equivalent(a: &[RouteMapSet], b: &[RouteMapSet]) -> bool {
    use clarify_netconfig::RouteMapStanza;
    let norm = |sets: &[RouteMapSet]| -> RouteMapStanza {
        RouteMapStanza {
            seq: 10,
            action: Action::Permit,
            matches: Vec::new(),
            sets: sets.to_vec(),
        }
    };
    // Apply both to a probe route with distinctive values and compare, then
    // to a second probe to catch value-coincidences. The second probe's
    // pre-existing community must not appear in either clause list,
    // otherwise `CommunityAdd([c])` and `CommunityReplace([c])` coincide on
    // both probes even though they differ on any route carrying another
    // community — so pick one that neither list mentions.
    let mentioned: std::collections::BTreeSet<clarify_nettypes::Community> = a
        .iter()
        .chain(b)
        .flat_map(|s| match s {
            RouteMapSet::CommunityAdd(cs) | RouteMapSet::CommunityReplace(cs) => cs.clone(),
            _ => Vec::new(),
        })
        .collect();
    let fresh_comm = (0..)
        .map(|v| clarify_nettypes::Community::new(65123, v))
        .find(|c| !mentioned.contains(c))
        .expect("fewer than 2^16 communities are mentioned");
    let probes = [
        BgpRoute::with_defaults("10.0.0.0/8".parse().expect("static prefix")),
        {
            let mut r = BgpRoute::with_defaults("10.0.0.0/8".parse().expect("static prefix"));
            r.metric = 7777;
            r.local_pref = 8888;
            r.tag = 9999;
            r.weight = 1234;
            r.next_hop = std::net::Ipv4Addr::new(9, 9, 9, 9);
            r.communities.insert(fresh_comm);
            r
        },
    ];
    let sa = norm(a);
    let sb = norm(b);
    probes
        .iter()
        .all(|p| Config::apply_sets(&sa, p) == Config::apply_sets(&sb, p))
}
