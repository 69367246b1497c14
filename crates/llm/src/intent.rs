//! The constrained natural-language intent grammar.
//!
//! Real deployments constrain prompt phrasing through few-shot examples;
//! our simulated LLM makes that constraint explicit: an intent is parsed
//! from English by a deterministic grammar, and every intent renders back
//! to a canonical prompt ([`RouteMapIntent::render_prompt`]) in the same
//! style as the paper's example — parsing is the inverse of rendering,
//! which tests enforce by round-trip.

use std::net::Ipv4Addr;

use clarify_analysis::StanzaSpec;
use clarify_netconfig::{
    AclEntry, Action, AddrMatch, AsPathList, AsPathListEntry, CommunityList, CommunityListEntry,
    Config, PrefixList, PrefixListEntry, RouteMapMatch, RouteMapSet, RouteMapStanza,
};
use clarify_nettypes::{Community, PortRange, Prefix, PrefixRange, Protocol};

/// Why a prompt could not be understood.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct IntentError {
    /// Description of the unparseable part.
    pub message: String,
}

impl IntentError {
    fn new(message: impl Into<String>) -> Self {
        IntentError {
            message: message.into(),
        }
    }
}

impl std::fmt::Display for IntentError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.message)
    }
}

impl std::error::Error for IntentError {}

/// How a prompt constrains the mask length of a prefix.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PrefixConstraint {
    /// Only the exact prefix.
    Exact,
    /// `mask length less than or equal to N`.
    Le(u8),
    /// `mask length greater than or equal to N`.
    Ge(u8),
    /// `mask length between N and M`.
    Between(u8, u8),
}

/// One attribute assignment the new stanza should perform.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SetIntent {
    /// Set MED.
    Metric(u32),
    /// Set LOCAL_PREF.
    LocalPref(u32),
    /// Set Cisco weight.
    Weight(u16),
    /// Set the route tag.
    Tag(u32),
    /// Set the next hop.
    NextHop(Ipv4Addr),
    /// Add a community (additive).
    AddCommunity(Community),
}

/// A parsed route-map synthesis intent.
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct RouteMapIntent {
    /// Permit (true) or deny.
    pub permit: bool,
    /// Matched prefixes with their length constraints.
    pub prefixes: Vec<(Prefix, PrefixConstraint)>,
    /// Communities the route must carry (each matched via `_N:M_`).
    pub communities: Vec<Community>,
    /// Required originating AS (`_N$`).
    pub origin_as: Option<u32>,
    /// Required transit AS anywhere in the path (`_N_`).
    pub transit_as: Option<u32>,
    /// Exact local-preference match.
    pub match_local_pref: Option<u32>,
    /// Exact metric match.
    pub match_metric: Option<u32>,
    /// Exact tag match.
    pub match_tag: Option<u32>,
    /// Attribute assignments.
    pub sets: Vec<SetIntent>,
    /// True when the prompt said "all routes" (empty match section).
    pub match_all: bool,
}

/// Address side of an ACL intent.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AddrIntent {
    /// Any address.
    Any,
    /// One host.
    Host(Ipv4Addr),
    /// A subnet.
    Net(Prefix),
}

impl AddrIntent {
    fn to_match(self) -> AddrMatch {
        match self {
            AddrIntent::Any => AddrMatch::Any,
            AddrIntent::Host(h) => AddrMatch::Host(h),
            AddrIntent::Net(p) => AddrMatch::Net(p),
        }
    }
}

/// A parsed ACL synthesis intent.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AclIntent {
    /// Permit (true) or deny.
    pub permit: bool,
    /// Protocol to match (`Ip` = any).
    pub protocol: Protocol,
    /// Source address.
    pub src: AddrIntent,
    /// Destination address.
    pub dst: AddrIntent,
    /// Source-port constraint.
    pub src_ports: PortRange,
    /// Destination-port constraint.
    pub dst_ports: PortRange,
}

impl Default for AclIntent {
    fn default() -> Self {
        AclIntent {
            permit: true,
            protocol: Protocol::Ip,
            src: AddrIntent::Any,
            dst: AddrIntent::Any,
            src_ports: PortRange::ANY,
            dst_ports: PortRange::ANY,
        }
    }
}

// ---------------------------------------------------------------------
// Normalization
// ---------------------------------------------------------------------

/// Lowercases, fuses multi-word keywords, and splits into sentences of
/// tokens.
fn sentences(prompt: &str) -> Vec<Vec<String>> {
    let lower = prompt.to_lowercase();
    let fused = lower
        .replace("local preference", "local-preference")
        .replace("local-preference value", "local-preference")
        .replace("next hop", "next-hop")
        .replace("as path", "as-path")
        .replace("med value", "med");
    // Split into sentences at '.' followed by whitespace or end-of-input;
    // dots inside IP addresses are followed by digits and survive.
    let mut sents: Vec<String> = Vec::new();
    let mut cur = String::new();
    let chars: Vec<char> = fused.chars().collect();
    for (i, &c) in chars.iter().enumerate() {
        if c == '.' {
            let next = chars.get(i + 1);
            if next.is_none() || next.map(|n| n.is_whitespace()) == Some(true) {
                sents.push(std::mem::take(&mut cur));
                continue;
            }
        }
        cur.push(c);
    }
    if !cur.trim().is_empty() {
        sents.push(cur);
    }
    sents
        .into_iter()
        .map(|s| {
            s.split_whitespace()
                .map(|t| {
                    t.trim_matches(|c| matches!(c, ',' | ';' | '"' | '(' | ')'))
                        .to_string()
                })
                .filter(|t| !t.is_empty())
                .collect()
        })
        .filter(|v: &Vec<String>| !v.is_empty())
        .collect()
}

fn is_prefix_token(t: &str) -> Option<Prefix> {
    if t.contains('/') {
        t.parse().ok()
    } else {
        None
    }
}

fn is_community_token(t: &str) -> Option<Community> {
    if t.contains(':') {
        t.parse().ok()
    } else {
        None
    }
}

fn is_ip_token(t: &str) -> Option<Ipv4Addr> {
    t.parse().ok()
}

fn num(t: &str) -> Option<u32> {
    t.parse().ok()
}

/// True when the prompt describes packet filtering rather than routing
/// policy — the classifier the pipeline's first LLM call implements.
pub(crate) fn is_acl_prompt(prompt: &str) -> bool {
    let l = prompt.to_lowercase();
    ["packet", "access-list", "access list", "acl", "traffic"]
        .iter()
        .any(|k| l.contains(k))
}

fn parse_action(tokens: &[String]) -> Option<bool> {
    for t in tokens {
        match t.as_str() {
            "permits" | "permit" | "allows" | "allow" | "accepts" | "accept" => return Some(true),
            "denies" | "deny" | "blocks" | "block" | "rejects" | "reject" | "drops" | "drop" => {
                return Some(false)
            }
            _ => {}
        }
    }
    None
}

// ---------------------------------------------------------------------
// Route-map intent
// ---------------------------------------------------------------------

impl RouteMapIntent {
    /// Parses a route-map synthesis prompt written in the canonical
    /// constrained English (see [`RouteMapIntent::render_prompt`]).
    pub fn parse(prompt: &str) -> Result<RouteMapIntent, IntentError> {
        let sents = sentences(prompt);
        if sents.is_empty() {
            return Err(IntentError::new("empty prompt"));
        }
        let mut intent = RouteMapIntent::default();
        let mut action: Option<bool> = None;

        for tokens in &sents {
            let is_set_sentence = tokens.iter().any(|t| t == "set" || t == "setting")
                || tokens.iter().any(|t| t == "added" || t == "add");
            if action.is_none() {
                action = parse_action(tokens);
            }
            if is_set_sentence {
                Self::parse_sets(tokens, &mut intent)?;
            } else {
                Self::parse_matches(tokens, &mut intent)?;
            }
        }

        intent.permit =
            action.ok_or_else(|| IntentError::new("no permit/deny action in the prompt"))?;
        let empty_match = intent.prefixes.is_empty()
            && intent.communities.is_empty()
            && intent.origin_as.is_none()
            && intent.transit_as.is_none()
            && intent.match_local_pref.is_none()
            && intent.match_metric.is_none()
            && intent.match_tag.is_none();
        if empty_match && !intent.match_all {
            return Err(IntentError::new(
                "no match condition recognized (say 'all routes' for an unconditional stanza)",
            ));
        }
        Ok(intent)
    }

    fn parse_matches(tokens: &[String], intent: &mut RouteMapIntent) -> Result<(), IntentError> {
        // "all routes"
        for w in tokens.windows(2) {
            if w[0] == "all" && w[1] == "routes" {
                intent.match_all = true;
            }
        }
        let mut i = 0;
        while i < tokens.len() {
            let t = &tokens[i];
            if let Some(p) = is_prefix_token(t) {
                let constraint = Self::length_constraint(&tokens[i + 1..], p)?;
                intent.prefixes.push((p, constraint));
            } else if let Some(c) = is_community_token(t) {
                intent.communities.push(c);
            } else if t == "as" || t == "asn" {
                if let Some(n) = tokens.get(i + 1).and_then(|t| num(t)) {
                    // Look backwards for the verb.
                    let back: Vec<&str> = tokens[..i]
                        .iter()
                        .rev()
                        .take(4)
                        .map(|s| s.as_str())
                        .collect();
                    if back
                        .iter()
                        .any(|&w| w == "originating" || w == "originated" || w == "origin")
                    {
                        intent.origin_as = Some(n);
                    } else if back
                        .iter()
                        .any(|&w| w == "through" || w == "via" || w == "transiting")
                    {
                        intent.transit_as = Some(n);
                    } else {
                        return Err(IntentError::new(format!(
                            "AS {n} mentioned without 'originating from' or 'passing through'"
                        )));
                    }
                    i += 1;
                }
            } else if t == "local-preference" {
                if let Some(n) = next_number(&tokens[i + 1..]) {
                    intent.match_local_pref = Some(n);
                }
            } else if t == "metric" || t == "med" {
                if let Some(n) = next_number(&tokens[i + 1..]) {
                    intent.match_metric = Some(n);
                }
            } else if t == "tag" {
                if let Some(n) = next_number(&tokens[i + 1..]) {
                    intent.match_tag = Some(n);
                }
            }
            i += 1;
        }
        Ok(())
    }

    /// Parses the words after a prefix for a mask-length constraint.
    fn length_constraint(rest: &[String], p: Prefix) -> Result<PrefixConstraint, IntentError> {
        // Stop scanning at the next prefix token (a second clause).
        let window: Vec<&str> = rest
            .iter()
            .take_while(|t| is_prefix_token(t).is_none())
            .take(14)
            .map(|s| s.as_str())
            .collect();
        let joined = window.join(" ");
        if !joined.contains("mask length") && !joined.contains("or longer") {
            return Ok(PrefixConstraint::Exact);
        }
        if joined.contains("or longer") {
            return Ok(PrefixConstraint::Ge(p.len()));
        }
        let nums: Vec<u8> = window.iter().filter_map(|t| t.parse::<u8>().ok()).collect();
        if joined.contains("between") {
            if nums.len() >= 2 {
                return Ok(PrefixConstraint::Between(nums[0], nums[1]));
            }
            return Err(IntentError::new(
                "mask length between N and M: missing bounds",
            ));
        }
        if joined.contains("less than or equal to") || joined.contains("at most") {
            if let Some(&n) = nums.first() {
                return Ok(PrefixConstraint::Le(n));
            }
        }
        if joined.contains("greater than or equal to") || joined.contains("at least") {
            if let Some(&n) = nums.first() {
                return Ok(PrefixConstraint::Ge(n));
            }
        }
        if joined.contains("exactly") {
            if let Some(&n) = nums.first() {
                return Ok(PrefixConstraint::Between(n, n));
            }
        }
        Err(IntentError::new(format!(
            "unrecognized mask length constraint after {p}"
        )))
    }

    fn parse_sets(tokens: &[String], intent: &mut RouteMapIntent) -> Result<(), IntentError> {
        // "the community N:M should be added" / "add the community N:M"
        if tokens.iter().any(|t| t == "added" || t == "add") {
            for t in tokens {
                if let Some(c) = is_community_token(t) {
                    intent.sets.push(SetIntent::AddCommunity(c));
                }
            }
        }
        let has_set = tokens.iter().any(|t| t == "set" || t == "setting");
        if !has_set {
            return Ok(());
        }
        // The first field keyword anywhere in the sentence picks the
        // constructor; a numeric value follows "to".
        let value = |name: &str| {
            let to_pos = tokens
                .iter()
                .position(|t| t == "to")
                .ok_or_else(|| IntentError::new(format!("set {name} without 'to <value>'")))?;
            next_number(&tokens[to_pos + 1..])
                .ok_or_else(|| IntentError::new(format!("set {name} without a numeric value")))
        };
        let set = tokens.iter().find_map(|t| {
            Some(match t.as_str() {
                "med" | "metric" => value("metric").map(SetIntent::Metric),
                "local-preference" => value("local-preference").map(SetIntent::LocalPref),
                "weight" => value("weight").and_then(|v| {
                    u16::try_from(v)
                        .map(SetIntent::Weight)
                        .map_err(|_| IntentError::new(format!("weight {v} exceeds 65535")))
                }),
                "tag" => value("tag").map(SetIntent::Tag),
                "next-hop" => tokens
                    .iter()
                    .filter(|t| !t.contains('/'))
                    .find_map(|t| is_ip_token(t))
                    .map(SetIntent::NextHop)
                    .ok_or_else(|| IntentError::new("set next-hop without an address")),
                _ => return None,
            })
        });
        let set = set.ok_or_else(|| IntentError::new("'set' without a recognizable attribute"))?;
        intent.sets.push(set?);
        Ok(())
    }

    /// Renders the canonical prompt, the inverse of [`RouteMapIntent::parse`].
    ///
    /// Example output (matching the paper's §2.1 prompt):
    /// `Write a route-map stanza that permits routes containing the prefix
    /// 100.0.0.0/16 with mask length less than or equal to 23 and tagged
    /// with the community 300:3. Their MED value should be set to 55.`
    pub fn render_prompt(&self) -> String {
        let mut clauses: Vec<String> = Vec::new();
        for (p, c) in &self.prefixes {
            let mut s = format!("containing the prefix {p}");
            match c {
                PrefixConstraint::Exact => {}
                PrefixConstraint::Le(n) => {
                    s.push_str(&format!(" with mask length less than or equal to {n}"))
                }
                PrefixConstraint::Ge(n) if *n == p.len() => s.push_str(" or longer"),
                PrefixConstraint::Ge(n) => {
                    s.push_str(&format!(" with mask length greater than or equal to {n}"))
                }
                PrefixConstraint::Between(a, b) if a == b => {
                    s.push_str(&format!(" with mask length exactly {a}"))
                }
                PrefixConstraint::Between(a, b) => {
                    s.push_str(&format!(" with mask length between {a} and {b}"))
                }
            }
            clauses.push(s);
        }
        for c in &self.communities {
            clauses.push(format!("tagged with the community {c}"));
        }
        if let Some(n) = self.origin_as {
            clauses.push(format!("originating from AS {n}"));
        }
        if let Some(n) = self.transit_as {
            clauses.push(format!("passing through AS {n}"));
        }
        if let Some(n) = self.match_local_pref {
            clauses.push(format!("with local preference {n}"));
        }
        if let Some(n) = self.match_metric {
            clauses.push(format!("with metric {n}"));
        }
        if let Some(n) = self.match_tag {
            clauses.push(format!("with tag {n}"));
        }
        let action = if self.permit { "permits" } else { "denies" };
        let mut out = if clauses.is_empty() {
            format!("Write a route-map stanza that {action} all routes")
        } else {
            format!(
                "Write a route-map stanza that {action} routes {}",
                clauses.join(" and ")
            )
        };
        out.push('.');
        for s in &self.sets {
            let sentence = match s {
                SetIntent::Metric(v) => format!(" Their MED value should be set to {v}."),
                SetIntent::LocalPref(v) => {
                    format!(" Their local preference should be set to {v}.")
                }
                SetIntent::Weight(v) => format!(" Their weight should be set to {v}."),
                SetIntent::Tag(v) => format!(" Their tag should be set to {v}."),
                SetIntent::NextHop(ip) => format!(" Their next hop should be set to {ip}."),
                SetIntent::AddCommunity(c) => format!(" The community {c} should be added."),
            };
            out.push_str(&sentence);
        }
        out
    }

    fn prefix_ranges(&self) -> Result<Vec<PrefixRange>, IntentError> {
        self.prefixes
            .iter()
            .map(|(p, c)| {
                let (ge, le) = match c {
                    PrefixConstraint::Exact => (None, None),
                    PrefixConstraint::Le(n) => (None, Some(*n)),
                    PrefixConstraint::Ge(n) => (Some(*n), None),
                    PrefixConstraint::Between(a, b) => (Some(*a), Some(*b)),
                };
                PrefixRange::with_bounds(*p, ge, le).map_err(|e| IntentError::new(e.message))
            })
            .collect()
    }

    /// Synthesizes the snippet configuration the (perfect) LLM emits: one
    /// route-map with one stanza plus its ancillary lists, using the
    /// paper's naming style (`COM_LIST`, `PREFIX_100`, `SET_METRIC`).
    pub fn to_snippet(&self) -> Result<(Config, String), IntentError> {
        let mut cfg = Config::new();
        let mut matches: Vec<RouteMapMatch> = Vec::new();

        let ranges = self.prefix_ranges()?;
        if !ranges.is_empty() {
            let name = format!("PREFIX_{}", self.prefixes[0].0.addr().octets()[0]);
            let pl = PrefixList {
                name: name.clone(),
                entries: ranges
                    .iter()
                    .enumerate()
                    .map(|(i, r)| PrefixListEntry {
                        seq: (i as u32 + 1) * 10,
                        action: Action::Permit,
                        range: *r,
                    })
                    .collect(),
            };
            cfg.prefix_lists.insert(name.clone(), pl);
            matches.push(RouteMapMatch::PrefixList(vec![name]));
        }
        // One list (and one match clause) per community and per AS-path
        // pattern: "tagged with A and B" means the route carries both, and
        // distinct match clauses AND together while names within one
        // clause OR.
        for (k, c) in self.communities.iter().enumerate() {
            let name = list_name("COM_LIST", k);
            let cl = CommunityList {
                name: name.clone(),
                entries: vec![CommunityListEntry {
                    action: Action::Permit,
                    regex: clarify_automata::Regex::parse(&format!("_{c}_"))
                        .expect("community pattern is valid"),
                }],
            };
            cfg.community_lists.insert(name.clone(), cl);
            matches.push(RouteMapMatch::Community(vec![name]));
        }
        for (k, p) in self.as_path_patterns().iter().enumerate() {
            let name = list_name("AS_LIST", k);
            let al = AsPathList {
                name: name.clone(),
                entries: vec![AsPathListEntry {
                    action: Action::Permit,
                    regex: clarify_automata::Regex::parse(p).expect("as-path pattern is valid"),
                }],
            };
            cfg.as_path_lists.insert(name.clone(), al);
            matches.push(RouteMapMatch::AsPath(vec![name]));
        }
        if let Some(v) = self.match_local_pref {
            matches.push(RouteMapMatch::LocalPref(v));
        }
        if let Some(v) = self.match_metric {
            matches.push(RouteMapMatch::Metric(v));
        }
        if let Some(v) = self.match_tag {
            matches.push(RouteMapMatch::Tag(v));
        }

        let map_name = self.map_name();
        let stanza = RouteMapStanza {
            seq: 10,
            action: if self.permit {
                Action::Permit
            } else {
                Action::Deny
            },
            matches,
            sets: self.route_map_sets(),
        };
        cfg.route_maps.insert(
            map_name.clone(),
            clarify_netconfig::RouteMap {
                name: map_name.clone(),
                stanzas: vec![stanza],
            },
        );
        Ok((cfg, map_name))
    }

    /// The route-map name the synthesizer chooses, in the paper's style.
    pub fn map_name(&self) -> String {
        if let Some(s) = self.sets.first() {
            return match s {
                SetIntent::Metric(_) => "SET_METRIC".to_string(),
                SetIntent::LocalPref(_) => "SET_LOCALPREF".to_string(),
                SetIntent::Weight(_) => "SET_WEIGHT".to_string(),
                SetIntent::Tag(_) => "SET_TAG".to_string(),
                SetIntent::NextHop(_) => "SET_NEXTHOP".to_string(),
                SetIntent::AddCommunity(_) => "ADD_COMMUNITY".to_string(),
            };
        }
        if self.permit {
            "PERMIT_ROUTES".to_string()
        } else {
            "DENY_ROUTES".to_string()
        }
    }

    /// The machine-readable spec the extractor emits for this intent.
    pub fn to_spec(&self) -> Result<StanzaSpec, IntentError> {
        Ok(StanzaSpec {
            permit: self.permit,
            prefixes: self.prefix_ranges()?,
            communities: self.communities.iter().map(|c| format!("_{c}_")).collect(),
            as_paths: self.as_path_patterns(),
            local_pref: self.match_local_pref,
            metric: self.match_metric,
            tag: self.match_tag,
            sets: self.route_map_sets(),
        })
    }

    /// The AS-path patterns a route must match, each a constraint of its
    /// own: the originating AS, then the transit AS.
    fn as_path_patterns(&self) -> Vec<String> {
        let origin = self.origin_as.map(|n| format!("_{n}$"));
        let transit = self.transit_as.map(|n| format!("_{n}_"));
        origin.into_iter().chain(transit).collect()
    }

    /// The stanza's `set` clauses in intent order, with every added
    /// community in one trailing additive clause.
    fn route_map_sets(&self) -> Vec<RouteMapSet> {
        let mut sets: Vec<RouteMapSet> = Vec::new();
        let mut added: Vec<Community> = Vec::new();
        for s in &self.sets {
            match s {
                SetIntent::Metric(v) => sets.push(RouteMapSet::Metric(*v)),
                SetIntent::LocalPref(v) => sets.push(RouteMapSet::LocalPref(*v)),
                SetIntent::Weight(v) => sets.push(RouteMapSet::Weight(*v)),
                SetIntent::Tag(v) => sets.push(RouteMapSet::Tag(*v)),
                SetIntent::NextHop(ip) => sets.push(RouteMapSet::NextHop(*ip)),
                SetIntent::AddCommunity(c) => added.push(*c),
            }
        }
        if !added.is_empty() {
            sets.push(RouteMapSet::CommunityAdd(added));
        }
        sets
    }
}

/// The name of the `k`-th list the synthesizer defines from `base`:
/// `COM_LIST`, `COM_LIST2`, `COM_LIST3`, …
fn list_name(base: &str, k: usize) -> String {
    if k == 0 {
        base.to_string()
    } else {
        format!("{base}{}", k + 1)
    }
}

fn next_number(rest: &[String]) -> Option<u32> {
    rest.iter().take(4).find_map(|t| num(t))
}

// ---------------------------------------------------------------------
// ACL intent
// ---------------------------------------------------------------------

impl AclIntent {
    /// Parses an ACL synthesis prompt.
    pub fn parse(prompt: &str) -> Result<AclIntent, IntentError> {
        let sents = sentences(prompt);
        let tokens: Vec<String> = sents.into_iter().flatten().collect();
        if tokens.is_empty() {
            return Err(IntentError::new("empty prompt"));
        }
        let mut intent = AclIntent {
            permit: parse_action(&tokens)
                .ok_or_else(|| IntentError::new("no permit/deny action in the prompt"))?,
            ..Default::default()
        };
        for t in &tokens {
            match t.as_str() {
                "tcp" => intent.protocol = Protocol::Tcp,
                "udp" => intent.protocol = Protocol::Udp,
                "icmp" => intent.protocol = Protocol::Icmp,
                _ => {}
            }
        }
        let mut i = 0;
        while i < tokens.len() {
            match tokens[i].as_str() {
                "from" => {
                    let (a, used) = Self::parse_addr(&tokens[i + 1..])?;
                    intent.src = a;
                    i += used;
                }
                "to" if i + 1 < tokens.len() && tokens[i + 1] != "port" => {
                    // A "to" inside "ports 80 to 443" never reaches here:
                    // parse_ports consumes the whole range. Anything else
                    // after "to" must be an address; a typo becoming a
                    // silent `any` would be a permissive filter.
                    let (a, used) = Self::parse_addr(&tokens[i + 1..])?;
                    intent.dst = a;
                    i += used;
                }
                "source" | "destination"
                    if tokens.get(i + 1).map(|t| t.starts_with("port")) == Some(true) =>
                {
                    let (range, used) = Self::parse_ports(&tokens[i + 2..])?;
                    if tokens[i] == "source" {
                        intent.src_ports = range;
                    } else {
                        intent.dst_ports = range;
                    }
                    i += 1 + used;
                }
                _ => {}
            }
            i += 1;
        }
        if intent.protocol == Protocol::Icmp
            && (!intent.src_ports.is_any() || !intent.dst_ports.is_any())
        {
            return Err(IntentError::new("ICMP rules cannot constrain ports"));
        }
        Ok(intent)
    }

    fn parse_addr(rest: &[String]) -> Result<(AddrIntent, usize), IntentError> {
        match rest.first().map(|s| s.as_str()) {
            Some("any") => Ok((AddrIntent::Any, 1)),
            Some("host") => {
                let ip = rest
                    .get(1)
                    .and_then(|t| is_ip_token(t))
                    .ok_or_else(|| IntentError::new("'host' without an address"))?;
                Ok((AddrIntent::Host(ip), 2))
            }
            Some("the") if rest.get(1).map(|s| s.as_str()) == Some("subnet") => {
                let p = rest
                    .get(2)
                    .and_then(|t| is_prefix_token(t))
                    .ok_or_else(|| IntentError::new("'the subnet' without a prefix"))?;
                Ok((AddrIntent::Net(p), 3))
            }
            Some(t) => {
                if let Some(p) = is_prefix_token(t) {
                    Ok((AddrIntent::Net(p), 1))
                } else if let Some(ip) = is_ip_token(t) {
                    Ok((AddrIntent::Host(ip), 1))
                } else {
                    Err(IntentError::new(format!("unrecognized address '{t}'")))
                }
            }
            None => Err(IntentError::new("missing address after from/to")),
        }
    }

    fn parse_ports(rest: &[String]) -> Result<(PortRange, usize), IntentError> {
        let lo = rest
            .first()
            .and_then(|t| t.parse::<u16>().ok())
            .ok_or_else(|| IntentError::new("port without a number"))?;
        if rest.get(1).map(|s| s.as_str()) == Some("to") {
            let hi = rest
                .get(2)
                .and_then(|t| t.parse::<u16>().ok())
                .ok_or_else(|| IntentError::new("port range without an upper bound"))?;
            if lo > hi {
                return Err(IntentError::new("inverted port range"));
            }
            Ok((PortRange::new(lo, hi), 3))
        } else {
            Ok((PortRange::eq(lo), 1))
        }
    }

    /// Renders the canonical ACL prompt.
    pub fn render_prompt(&self) -> String {
        let action = if self.permit { "permits" } else { "denies" };
        let proto = match self.protocol {
            Protocol::Ip => "".to_string(),
            p => format!("{p} "),
        };
        let addr = |a: &AddrIntent| match a {
            AddrIntent::Any => "any".to_string(),
            AddrIntent::Host(ip) => format!("host {ip}"),
            AddrIntent::Net(p) => format!("the subnet {p}"),
        };
        let mut out = format!(
            "Write an access-list rule that {action} {proto}packets from {} to {}",
            addr(&self.src),
            addr(&self.dst)
        );
        let mut port_clauses = Vec::new();
        if !self.src_ports.is_any() {
            port_clauses.push(if self.src_ports.lo == self.src_ports.hi {
                format!("source port {}", self.src_ports.lo)
            } else {
                format!(
                    "source ports {} to {}",
                    self.src_ports.lo, self.src_ports.hi
                )
            });
        }
        if !self.dst_ports.is_any() {
            port_clauses.push(if self.dst_ports.lo == self.dst_ports.hi {
                format!("destination port {}", self.dst_ports.lo)
            } else {
                format!(
                    "destination ports {} to {}",
                    self.dst_ports.lo, self.dst_ports.hi
                )
            });
        }
        if !port_clauses.is_empty() {
            out.push_str(&format!(" with {}", port_clauses.join(" and ")));
        }
        out.push('.');
        out
    }

    /// The ACL entry the (perfect) LLM synthesizes for this intent.
    pub fn to_entry(&self) -> AclEntry {
        AclEntry {
            action: if self.permit {
                Action::Permit
            } else {
                Action::Deny
            },
            protocol: self.protocol,
            src: self.src.to_match(),
            src_ports: self.src_ports,
            dst: self.dst.to_match(),
            dst_ports: self.dst_ports,
        }
    }
}
