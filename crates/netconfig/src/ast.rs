//! Abstract syntax of the supported IOS subset.

use std::collections::BTreeMap;
use std::net::Ipv4Addr;

use clarify_automata::Regex;
use clarify_nettypes::{Community, PortRange, Prefix, PrefixRange, Protocol};

use crate::error::ConfigError;
use crate::span::ObjectKind;

/// Permit or deny — the action of every kind of rule.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Action {
    /// Accept the route / packet.
    Permit,
    /// Reject the route / packet.
    Deny,
}

impl Action {
    /// IOS keyword.
    pub fn keyword(&self) -> &'static str {
        match self {
            Action::Permit => "permit",
            Action::Deny => "deny",
        }
    }
}

impl std::fmt::Display for Action {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.keyword())
    }
}

/// One `ip prefix-list NAME seq N (permit|deny) PFX [ge N] [le N]` line.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PrefixListEntry {
    /// Sequence number (IOS assigns 5, 10, 15… when omitted).
    pub seq: u32,
    /// Entry action.
    pub action: Action,
    /// The prefix/length-range this entry matches.
    pub range: PrefixRange,
}

/// An ordered prefix list; first matching entry decides, default deny.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PrefixList {
    /// List name.
    pub name: String,
    /// Entries in sequence order.
    pub entries: Vec<PrefixListEntry>,
}

impl PrefixList {
    /// Whether the list *permits* the given prefix (used by
    /// `match ip address prefix-list`).
    pub fn permits(&self, prefix: &Prefix) -> bool {
        for e in &self.entries {
            if e.range.matches(prefix) {
                return e.action == Action::Permit;
            }
        }
        false
    }
}

/// One `ip as-path access-list NAME (permit|deny) REGEX` line.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AsPathListEntry {
    /// Entry action.
    pub action: Action,
    /// Cisco-style regex evaluated against the rendered AS path.
    pub regex: Regex,
}

/// An ordered AS-path access list.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AsPathList {
    /// List name.
    pub name: String,
    /// Entries in file order.
    pub entries: Vec<AsPathListEntry>,
}

impl AsPathList {
    /// First-match evaluation against the rendered path (e.g. `"10 32"`).
    pub fn permits_subject(&self, subject: &str) -> bool {
        for e in &self.entries {
            if e.regex.matches(subject) {
                return e.action == Action::Permit;
            }
        }
        false
    }
}

/// One `ip community-list expanded NAME (permit|deny) REGEX` line.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CommunityListEntry {
    /// Entry action.
    pub action: Action,
    /// Regex evaluated against each community rendered as `N:M`.
    pub regex: Regex,
}

/// An ordered expanded community list.
///
/// An entry matches a route when its regex matches **any one** of the
/// route's communities (the CommunityVar model Batfish uses); the first
/// matching entry's action decides.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CommunityList {
    /// List name.
    pub name: String,
    /// Entries in file order.
    pub entries: Vec<CommunityListEntry>,
}

impl CommunityList {
    /// First-match evaluation against a set of communities.
    pub fn permits(&self, communities: &std::collections::BTreeSet<Community>) -> bool {
        for e in &self.entries {
            let dfa = e.regex.dfa();
            if communities.iter().any(|c| dfa.matches(&c.subject())) {
                return e.action == Action::Permit;
            }
        }
        false
    }
}

/// A route-map `match` clause. Multiple names on one line OR together;
/// distinct clauses in a stanza AND together.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RouteMapMatch {
    /// `match as-path NAME...`
    AsPath(Vec<String>),
    /// `match community NAME...`
    Community(Vec<String>),
    /// `match ip address prefix-list NAME...`
    PrefixList(Vec<String>),
    /// `match local-preference N`
    LocalPref(u32),
    /// `match metric N`
    Metric(u32),
    /// `match tag N`
    Tag(u32),
}

/// A route-map `set` clause, applied when a permit stanza matches.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RouteMapSet {
    /// `set metric N`
    Metric(u32),
    /// `set local-preference N`
    LocalPref(u32),
    /// `set weight N`
    Weight(u16),
    /// `set tag N`
    Tag(u32),
    /// `set ip next-hop A.B.C.D`
    NextHop(Ipv4Addr),
    /// `set community C... additive` — adds to the existing set.
    CommunityAdd(Vec<Community>),
    /// `set community C...` — replaces the existing set.
    CommunityReplace(Vec<Community>),
}

/// One numbered stanza of a route-map.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RouteMapStanza {
    /// Sequence number; stanzas are evaluated in ascending order.
    pub seq: u32,
    /// Stanza action when it matches.
    pub action: Action,
    /// Conjunction of match clauses (empty = match everything).
    pub matches: Vec<RouteMapMatch>,
    /// Set clauses applied on permit.
    pub sets: Vec<RouteMapSet>,
}

impl RouteMapStanza {
    /// A stanza matching every route.
    pub fn match_all(seq: u32, action: Action) -> RouteMapStanza {
        RouteMapStanza {
            seq,
            action,
            matches: Vec::new(),
            sets: Vec::new(),
        }
    }

    /// The ancillary lists this stanza references, as `(kind, name)`:
    /// every prefix-list reference, then every as-path one, then every
    /// community one, each group in match-clause order.
    pub fn references(&self) -> impl Iterator<Item = (ObjectKind, &str)> {
        [
            ObjectKind::PrefixList,
            ObjectKind::AsPathList,
            ObjectKind::CommunityList,
        ]
        .into_iter()
        .flat_map(move |kind| {
            self.matches.iter().flat_map(move |m| {
                let names: &[String] = match (kind, m) {
                    (ObjectKind::PrefixList, RouteMapMatch::PrefixList(ns))
                    | (ObjectKind::AsPathList, RouteMapMatch::AsPath(ns))
                    | (ObjectKind::CommunityList, RouteMapMatch::Community(ns)) => ns,
                    _ => &[],
                };
                names.iter().map(move |n| (kind, n.as_str()))
            })
        })
    }
}

/// A named route-map: an ordered list of stanzas with an implicit trailing
/// deny-everything.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RouteMap {
    /// Route-map name.
    pub name: String,
    /// Stanzas in ascending sequence order.
    pub stanzas: Vec<RouteMapStanza>,
}

impl RouteMap {
    /// A route-map with no stanzas (denies everything).
    pub fn empty(name: impl Into<String>) -> RouteMap {
        RouteMap {
            name: name.into(),
            stanzas: Vec::new(),
        }
    }

    /// The stanza with the given sequence number.
    pub fn stanza(&self, seq: u32) -> Option<&RouteMapStanza> {
        self.stanzas.iter().find(|s| s.seq == seq)
    }
}

/// Source or destination address match of an ACL entry.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AddrMatch {
    /// `any`
    Any,
    /// `host A.B.C.D`
    Host(Ipv4Addr),
    /// A prefix (parsed from `addr wildcard` with a contiguous wildcard, or
    /// written in CIDR form).
    Net(Prefix),
}

impl AddrMatch {
    /// Whether a concrete address satisfies the match.
    pub fn matches(&self, addr: Ipv4Addr) -> bool {
        match self {
            AddrMatch::Any => true,
            AddrMatch::Host(h) => *h == addr,
            AddrMatch::Net(p) => p.contains_addr(addr),
        }
    }

    /// The equivalent prefix (hosts become /32, any becomes /0).
    pub fn as_prefix(&self) -> Prefix {
        match self {
            AddrMatch::Any => Prefix::DEFAULT,
            AddrMatch::Host(h) => Prefix::new(*h, 32),
            AddrMatch::Net(p) => *p,
        }
    }
}

/// One entry of an extended ACL.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AclEntry {
    /// Entry action.
    pub action: Action,
    /// Protocol match (`ip` = any).
    pub protocol: Protocol,
    /// Source address match.
    pub src: AddrMatch,
    /// Source port range (`ANY` when unspecified).
    pub src_ports: PortRange,
    /// Destination address match.
    pub dst: AddrMatch,
    /// Destination port range (`ANY` when unspecified).
    pub dst_ports: PortRange,
}

impl AclEntry {
    /// Whether a concrete packet matches this entry.
    pub fn matches(&self, pkt: &clarify_nettypes::Packet) -> bool {
        self.protocol.matches(pkt.protocol)
            && self.src.matches(pkt.src_ip)
            && self.dst.matches(pkt.dst_ip)
            && self.src_ports.contains(pkt.src_port)
            && self.dst_ports.contains(pkt.dst_port)
    }

    /// Whether this entry's match set is a superset of `other`'s
    /// (used to filter the "trivial subset" overlaps of §3.2).
    pub fn match_superset_of(&self, other: &AclEntry) -> bool {
        let proto_ok = self.protocol == Protocol::Ip || self.protocol == other.protocol;
        proto_ok
            && self.src.as_prefix().covers(&other.src.as_prefix())
            && self.dst.as_prefix().covers(&other.dst.as_prefix())
            && self.src_ports.lo <= other.src_ports.lo
            && self.src_ports.hi >= other.src_ports.hi
            && self.dst_ports.lo <= other.dst_ports.lo
            && self.dst_ports.hi >= other.dst_ports.hi
    }
}

/// A named extended ACL with the implicit trailing deny.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Acl {
    /// ACL name.
    pub name: String,
    /// Entries in file order.
    pub entries: Vec<AclEntry>,
}

/// A device configuration namespace: every named object on one router.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Config {
    /// Route-maps by name (sorted for deterministic printing).
    pub route_maps: BTreeMap<String, RouteMap>,
    /// Extended ACLs by name.
    pub acls: BTreeMap<String, Acl>,
    /// Prefix lists by name.
    pub prefix_lists: BTreeMap<String, PrefixList>,
    /// AS-path access lists by name.
    pub as_path_lists: BTreeMap<String, AsPathList>,
    /// Expanded community lists by name.
    pub community_lists: BTreeMap<String, CommunityList>,
}

impl Config {
    /// An empty configuration.
    pub fn new() -> Config {
        Config::default()
    }

    /// Looks up a route-map.
    pub fn route_map(&self, name: &str) -> Option<&RouteMap> {
        self.route_maps.get(name)
    }

    /// Looks up an ACL.
    pub fn acl(&self, name: &str) -> Option<&Acl> {
        self.acls.get(name)
    }

    /// Looks up a prefix list, with a typed error for dangling references.
    pub fn prefix_list(&self, name: &str) -> Result<&PrefixList, ConfigError> {
        self.prefix_lists
            .get(name)
            .ok_or_else(|| ConfigError::UnknownList {
                kind: "prefix-list",
                name: name.to_string(),
            })
    }

    /// Looks up an AS-path list.
    pub fn as_path_list(&self, name: &str) -> Result<&AsPathList, ConfigError> {
        self.as_path_lists
            .get(name)
            .ok_or_else(|| ConfigError::UnknownList {
                kind: "as-path access-list",
                name: name.to_string(),
            })
    }

    /// Looks up a community list.
    pub fn community_list(&self, name: &str) -> Result<&CommunityList, ConfigError> {
        self.community_lists
            .get(name)
            .ok_or_else(|| ConfigError::UnknownList {
                kind: "community-list",
                name: name.to_string(),
            })
    }

    /// Whether an object of `kind` named `name` exists.
    pub fn defines(&self, kind: ObjectKind, name: &str) -> bool {
        match kind {
            ObjectKind::RouteMap => self.route_maps.contains_key(name),
            ObjectKind::Acl => self.acls.contains_key(name),
            ObjectKind::PrefixList => self.prefix_lists.contains_key(name),
            ObjectKind::AsPathList => self.as_path_lists.contains_key(name),
            ObjectKind::CommunityList => self.community_lists.contains_key(name),
        }
    }

    /// Checks that every list referenced from route-maps exists.
    pub fn validate(&self) -> Result<(), ConfigError> {
        let stanzas = self.route_maps.values().flat_map(|rm| &rm.stanzas);
        for (kind, name) in stanzas.flat_map(RouteMapStanza::references) {
            if !self.defines(kind, name) {
                let kind = kind.keyword();
                let name = name.to_string();
                return Err(ConfigError::UnknownList { kind, name });
            }
        }
        Ok(())
    }

    /// Merges another configuration's objects into this one. Name clashes
    /// are an error — the insertion engine freshens names *before* merging.
    pub fn merge(&mut self, other: Config) -> Result<(), ConfigError> {
        fn merge_map<V>(
            dst: &mut BTreeMap<String, V>,
            src: BTreeMap<String, V>,
            kind: &'static str,
        ) -> Result<(), ConfigError> {
            for (k, v) in src {
                if dst.contains_key(&k) {
                    return Err(ConfigError::DuplicateName { kind, name: k });
                }
                dst.insert(k, v);
            }
            Ok(())
        }
        merge_map(&mut self.route_maps, other.route_maps, "route-map")?;
        merge_map(&mut self.acls, other.acls, "access-list")?;
        merge_map(&mut self.prefix_lists, other.prefix_lists, "prefix-list")?;
        merge_map(
            &mut self.as_path_lists,
            other.as_path_lists,
            "as-path access-list",
        )?;
        merge_map(
            &mut self.community_lists,
            other.community_lists,
            "community-list",
        )?;
        Ok(())
    }
}
