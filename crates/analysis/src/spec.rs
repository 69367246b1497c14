//! Machine-readable stanza specifications and verification against them.
//!
//! After the LLM synthesizes a stanza, the pipeline extracts a JSON spec
//! from the user's prompt (§2.1 of the paper shows the format), the user
//! eyeballs the spec, and the synthesized stanza is *verified* against it
//! symbolically. This module defines that spec and the verifier.

use clarify_automata::Regex;
use clarify_netconfig::{Action, Config, RouteMapSet, RouteMapStanza};
use clarify_nettypes::{BgpRoute, Community, PrefixRange};
use clarify_obs::json::Value;

use crate::effect::SetEffect;
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
    /// Renders the paper's JSON format on one line, e.g.
    /// `{"permit": true, "prefix": ["100.0.0.0/16:16-23"], "community":
    /// "/_300:3_/", "set": {"metric": 55}}`. Each community and AS-path
    /// regex is its own (repeated) `community` / `as-path` member.
    pub fn to_json(&self) -> String {
        let mut fields = vec![("permit", Value::from(self.permit))];
        if !self.prefixes.is_empty() {
            let range = |r: &PrefixRange| {
                let (p, min, max) = (r.prefix, r.min_len, r.max_len);
                Value::from(format!("{}/{}:{min}-{max}", p.addr(), p.len()))
            };
            fields.push(("prefix", Value::array(self.prefixes.iter().map(range))));
        }
        let regex = |p: &String| Value::from(format!("/{p}/"));
        fields.extend(self.communities.iter().map(|c| ("community", regex(c))));
        fields.extend(self.as_paths.iter().map(|p| ("as-path", regex(p))));
        let exact = [
            ("local-preference", self.local_pref),
            ("metric", self.metric),
            ("tag", self.tag),
        ];
        fields.extend(exact.into_iter().filter_map(|(k, v)| Some((k, v?.into()))));
        if !self.sets.is_empty() {
            let communities =
                |cs: &[Community]| Value::array(cs.iter().map(|c| c.to_string().into()));
            let set = |s: &RouteMapSet| match s {
                RouteMapSet::Metric(v) => ("metric", (*v).into()),
                RouteMapSet::LocalPref(v) => ("local-preference", (*v).into()),
                RouteMapSet::Weight(v) => ("weight", (*v).into()),
                RouteMapSet::Tag(v) => ("tag", (*v).into()),
                RouteMapSet::NextHop(ip) => ("next-hop", ip.to_string().into()),
                RouteMapSet::CommunityAdd(cs) => ("community-add", communities(cs)),
                RouteMapSet::CommunityReplace(cs) => ("community", communities(cs)),
            };
            fields.push(("set", Value::object(self.sets.iter().map(set))));
        }
        Value::object(fields).to_string()
    }

    /// Builds an equivalent synthetic config + stanza named `name`, or
    /// [`AnalysisError::UnknownPattern`] for a regex that does not parse.
    pub fn as_stanza(&self, name: &str) -> Result<(Config, RouteMapStanza), AnalysisError> {
        use clarify_netconfig::{
            AsPathList, AsPathListEntry, CommunityList, CommunityListEntry, PrefixList,
            PrefixListEntry, RouteMapMatch,
        };
        let regex =
            |p: &String| Regex::parse(p).map_err(|_| AnalysisError::UnknownPattern(p.clone()));
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
                    regex: regex(pattern)?,
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
                    regex: regex(pattern)?,
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
        Ok((cfg, stanza))
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
    /// Set clauses disagree (compared by their net effect).
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
    let (spec_cfg, spec_stanza) = spec.as_stanza("SPEC")?;
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

    if SetEffect::of(&stanza.sets) != SetEffect::of(&spec.sets) {
        return Ok(SpecVerdict::SetMismatch);
    }
    Ok(SpecVerdict::Verified)
}
