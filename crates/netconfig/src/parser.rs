//! Line-oriented parser for the supported IOS subset.

use std::net::Ipv4Addr;
use std::str::FromStr;

use clarify_automata::Regex;
use clarify_nettypes::{Community, ParseError, PortRange, Prefix, PrefixRange, Protocol};

use crate::ast::{
    Acl, AclEntry, Action, AddrMatch, AsPathList, AsPathListEntry, CommunityList,
    CommunityListEntry, Config, PrefixList, PrefixListEntry, RouteMap, RouteMapMatch, RouteMapSet,
    RouteMapStanza,
};
use crate::error::ConfigError;
use crate::span::{ObjectKind, RuleId, SourceMap};

impl Config {
    /// Parses a configuration from IOS-style text.
    ///
    /// Supported statements: `ip prefix-list`, `ip as-path access-list`,
    /// `ip community-list expanded`, `route-map` (with `match`/`set`
    /// continuation lines), and `ip access-list extended` (with
    /// `permit`/`deny` continuation lines). Comment lines starting with `!`
    /// and blank lines are ignored. Indentation is not significant; a
    /// continuation block ends at the next top-level statement.
    pub fn parse(text: &str) -> Result<Config, ConfigError> {
        let mut spans = SourceMap::new();
        parse_impl(text, &mut spans)
    }

    /// Like [`Config::parse`], but also returns a [`SourceMap`] recording
    /// the one-based source line of every rule, for diagnostics that want
    /// to point back into the original text.
    pub fn parse_with_spans(text: &str) -> Result<(Config, SourceMap), ConfigError> {
        let mut spans = SourceMap::new();
        let cfg = parse_impl(text, &mut spans)?;
        Ok((cfg, spans))
    }
}

fn parse_impl(text: &str, spans: &mut SourceMap) -> Result<Config, ConfigError> {
    let mut cfg = Config::new();
    // (route-map name, stanza, header line) currently being filled.
    let mut open_stanza: Option<(String, RouteMapStanza, u32)> = None;
    // ACL currently being filled, if any.
    let mut open_acl: Option<String> = None;

    let close_stanza = |cfg: &mut Config,
                        open: &mut Option<(String, RouteMapStanza, u32)>,
                        spans: &mut SourceMap|
     -> Result<(), ConfigError> {
        if let Some((name, stanza, header_line)) = open.take() {
            let rm = cfg
                .route_maps
                .entry(name.clone())
                .or_insert_with(|| RouteMap::empty(name.clone()));
            if rm.stanzas.iter().any(|s| s.seq == stanza.seq) {
                return Err(ConfigError::DuplicateName {
                    kind: "route-map stanza",
                    name: format!("{} {}", rm.name, stanza.seq),
                });
            }
            spans.record(RuleId::object(ObjectKind::RouteMap, &name), header_line);
            spans.record(RuleId::route_map_stanza(&name, stanza.seq), header_line);
            rm.stanzas.push(stanza);
            rm.stanzas.sort_by_key(|s| s.seq);
        }
        Ok(())
    };

    for (lineno, raw) in text.lines().enumerate() {
        let line = lineno + 1;
        let words: Vec<&str> = raw.split_whitespace().collect();
        if words.is_empty() || words[0].starts_with('!') {
            continue;
        }
        let err = |message: String| ConfigError::Syntax { line, message };

        match words.as_slice() {
            // ---- route-map header --------------------------------
            // The sequence number may be omitted; IOS then assigns
            // 10, 20, 30, … after the map's current highest.
            ["route-map", name, action] | ["route-map", name, action, _] => {
                close_stanza(&mut cfg, &mut open_stanza, spans)?;
                open_acl = None;
                let action = parse_action(action).map_err(&err)?;
                let seq: u32 = match words.get(3) {
                    Some(seq) => seq
                        .parse()
                        .map_err(|_| err(format!("bad sequence number '{seq}'")))?,
                    None => cfg
                        .route_maps
                        .get(*name)
                        .and_then(|rm| rm.stanzas.last().map(|s| s.seq + 10))
                        .unwrap_or(10),
                };
                open_stanza = Some((
                    name.to_string(),
                    RouteMapStanza {
                        seq,
                        action,
                        matches: Vec::new(),
                        sets: Vec::new(),
                    },
                    line as u32,
                ));
            }
            // ---- match / set continuation lines ------------------
            ["match", rest @ ..] => {
                let (_, stanza, _) = open_stanza
                    .as_mut()
                    .ok_or_else(|| err("'match' outside a route-map stanza".into()))?;
                stanza.matches.push(parse_match(rest).map_err(&err)?);
            }
            ["set", rest @ ..] => {
                let (_, stanza, _) = open_stanza
                    .as_mut()
                    .ok_or_else(|| err("'set' outside a route-map stanza".into()))?;
                stanza.sets.push(parse_set(rest).map_err(&err)?);
            }
            // ---- prefix list -------------------------------------
            ["ip", "prefix-list", name, rest @ ..] => {
                close_stanza(&mut cfg, &mut open_stanza, spans)?;
                open_acl = None;
                let entry = parse_prefix_list_entry(rest, &cfg, name).map_err(&err)?;
                let pl = cfg
                    .prefix_lists
                    .entry(name.to_string())
                    .or_insert_with(|| PrefixList {
                        name: name.to_string(),
                        entries: Vec::new(),
                    });
                if pl.entries.iter().any(|e| e.seq == entry.seq) {
                    return Err(ConfigError::DuplicateName {
                        kind: "prefix-list entry",
                        name: format!("{name} seq {}", entry.seq),
                    });
                }
                spans.record(RuleId::object(ObjectKind::PrefixList, *name), line as u32);
                spans.record(RuleId::prefix_entry(*name, entry.seq), line as u32);
                pl.entries.push(entry);
                pl.entries.sort_by_key(|e| e.seq);
            }
            // ---- as-path list ------------------------------------
            ["ip", "as-path", "access-list", name, action, regex @ ..] => {
                close_stanza(&mut cfg, &mut open_stanza, spans)?;
                open_acl = None;
                let action = parse_action(action).map_err(&err)?;
                let pattern = regex.join(" ");
                if pattern.is_empty() {
                    return Err(err("as-path access-list missing regex".into()));
                }
                let regex =
                    Regex::parse(&pattern).map_err(|e| err(format!("bad as-path regex: {e}")))?;
                let entries = &mut cfg
                    .as_path_lists
                    .entry(name.to_string())
                    .or_insert_with(|| AsPathList {
                        name: name.to_string(),
                        entries: Vec::new(),
                    })
                    .entries;
                spans.record(RuleId::object(ObjectKind::AsPathList, *name), line as u32);
                spans.record(RuleId::as_path_entry(*name, entries.len()), line as u32);
                entries.push(AsPathListEntry { action, regex });
            }
            // ---- standard community list --------------------------
            // Desugared to the equivalent expanded entry `_N:M_`.
            // Conjunctive entries (several communities on one line)
            // are not supported; write one entry per community or use
            // several match clauses.
            ["ip", "community-list", "standard", name, action, comms @ ..] => {
                close_stanza(&mut cfg, &mut open_stanza, spans)?;
                open_acl = None;
                let action = parse_action(action).map_err(&err)?;
                if comms.len() != 1 {
                    return Err(err(
                        "standard community-list entries must name exactly one community \
                         (conjunctive entries are unsupported; use separate match clauses)"
                            .into(),
                    ));
                }
                let community: Community =
                    comms[0]
                        .parse()
                        .map_err(|e: clarify_nettypes::ParseError| {
                            err(format!("bad community: {}", e.message))
                        })?;
                let regex =
                    Regex::parse(&format!("_{community}_")).expect("community pattern is valid");
                let entries = &mut cfg
                    .community_lists
                    .entry(name.to_string())
                    .or_insert_with(|| CommunityList {
                        name: name.to_string(),
                        entries: Vec::new(),
                    })
                    .entries;
                spans.record(
                    RuleId::object(ObjectKind::CommunityList, *name),
                    line as u32,
                );
                spans.record(RuleId::community_entry(*name, entries.len()), line as u32);
                entries.push(CommunityListEntry { action, regex });
            }
            // ---- community list ----------------------------------
            ["ip", "community-list", "expanded", name, action, regex @ ..] => {
                close_stanza(&mut cfg, &mut open_stanza, spans)?;
                open_acl = None;
                let action = parse_action(action).map_err(&err)?;
                let pattern = regex.join(" ");
                if pattern.is_empty() {
                    return Err(err("community-list missing regex".into()));
                }
                let regex =
                    Regex::parse(&pattern).map_err(|e| err(format!("bad community regex: {e}")))?;
                let entries = &mut cfg
                    .community_lists
                    .entry(name.to_string())
                    .or_insert_with(|| CommunityList {
                        name: name.to_string(),
                        entries: Vec::new(),
                    })
                    .entries;
                spans.record(
                    RuleId::object(ObjectKind::CommunityList, *name),
                    line as u32,
                );
                spans.record(RuleId::community_entry(*name, entries.len()), line as u32);
                entries.push(CommunityListEntry { action, regex });
            }
            // ---- extended ACL header -----------------------------
            ["ip", "access-list", "extended", name] => {
                close_stanza(&mut cfg, &mut open_stanza, spans)?;
                cfg.acls.entry(name.to_string()).or_insert_with(|| Acl {
                    name: name.to_string(),
                    entries: Vec::new(),
                });
                spans.record(RuleId::object(ObjectKind::Acl, *name), line as u32);
                open_acl = Some(name.to_string());
            }
            // ---- ACL entries (inside an open ACL) ----------------
            [action @ ("permit" | "deny"), rest @ ..] => {
                let acl_name = open_acl
                    .clone()
                    .ok_or_else(|| err("permit/deny outside an access-list".into()))?;
                let action = parse_action(action).map_err(&err)?;
                let entry = parse_acl_entry(action, rest).map_err(&err)?;
                let entries = &mut cfg
                    .acls
                    .get_mut(&acl_name)
                    .expect("open ACL exists")
                    .entries;
                spans.record(RuleId::acl_entry(&acl_name, entries.len()), line as u32);
                entries.push(entry);
            }
            _ => {
                return Err(err(format!("unrecognised statement '{}'", words.join(" "))));
            }
        }
    }
    close_stanza(&mut cfg, &mut open_stanza, spans)?;
    Ok(cfg)
}

fn parse_action(word: &str) -> Result<Action, String> {
    match word {
        "permit" => Ok(Action::Permit),
        "deny" => Ok(Action::Deny),
        other => Err(format!("expected permit/deny, found '{other}'")),
    }
}

fn parse_prefix_list_entry(
    rest: &[&str],
    cfg: &Config,
    name: &str,
) -> Result<PrefixListEntry, String> {
    let mut rest = rest;
    // Optional `seq N`; IOS auto-assigns in steps of 5 when omitted.
    let seq = if rest.first() == Some(&"seq") {
        let n: u32 = rest
            .get(1)
            .ok_or("seq missing number")?
            .parse()
            .map_err(|_| "bad seq number".to_string())?;
        rest = &rest[2..];
        n
    } else {
        cfg.prefix_lists
            .get(name)
            .and_then(|pl| pl.entries.last().map(|e| e.seq + 5))
            .unwrap_or(5)
    };
    let action = parse_action(rest.first().ok_or("missing action")?)?;
    let range_text = rest[1..].join(" ");
    let range: PrefixRange = range_text
        .parse()
        .map_err(|e: clarify_nettypes::ParseError| e.message)?;
    Ok(PrefixListEntry { seq, action, range })
}

/// Parses one `match` clause as its [`Display`](std::fmt::Display) prints
/// it, e.g. `match metric 55`.
impl FromStr for RouteMapMatch {
    type Err = ParseError;

    fn from_str(s: &str) -> Result<RouteMapMatch, ParseError> {
        match s.split_whitespace().collect::<Vec<_>>().as_slice() {
            ["match", rest @ ..] => parse_match(rest),
            _ => Err(format!("expected a match clause, found '{s}'")),
        }
        .map_err(|message| ParseError { message })
    }
}

/// Parses one `set` clause as its [`Display`](std::fmt::Display) prints
/// it, e.g. `set community 300:3 additive`.
impl FromStr for RouteMapSet {
    type Err = ParseError;

    fn from_str(s: &str) -> Result<RouteMapSet, ParseError> {
        match s.split_whitespace().collect::<Vec<_>>().as_slice() {
            ["set", rest @ ..] => parse_set(rest),
            _ => Err(format!("expected a set clause, found '{s}'")),
        }
        .map_err(|message| ParseError { message })
    }
}

fn parse_match(rest: &[&str]) -> Result<RouteMapMatch, String> {
    match rest {
        ["as-path", names @ ..] if !names.is_empty() => Ok(RouteMapMatch::AsPath(
            names.iter().map(|s| s.to_string()).collect(),
        )),
        ["community", names @ ..] if !names.is_empty() => Ok(RouteMapMatch::Community(
            names.iter().map(|s| s.to_string()).collect(),
        )),
        ["ip", "address", "prefix-list", names @ ..] if !names.is_empty() => Ok(
            RouteMapMatch::PrefixList(names.iter().map(|s| s.to_string()).collect()),
        ),
        ["local-preference", v] => Ok(RouteMapMatch::LocalPref(
            v.parse().map_err(|_| "bad local-preference value")?,
        )),
        ["metric", v] => Ok(RouteMapMatch::Metric(
            v.parse().map_err(|_| "bad metric value")?,
        )),
        ["tag", v] => Ok(RouteMapMatch::Tag(v.parse().map_err(|_| "bad tag value")?)),
        other => Err(format!("unsupported match clause '{}'", other.join(" "))),
    }
}

fn parse_set(rest: &[&str]) -> Result<RouteMapSet, String> {
    match rest {
        ["metric", v] => Ok(RouteMapSet::Metric(
            v.parse().map_err(|_| "bad metric value")?,
        )),
        ["local-preference", v] => Ok(RouteMapSet::LocalPref(
            v.parse().map_err(|_| "bad local-preference value")?,
        )),
        ["weight", v] => Ok(RouteMapSet::Weight(
            v.parse().map_err(|_| "bad weight value")?,
        )),
        ["tag", v] => Ok(RouteMapSet::Tag(v.parse().map_err(|_| "bad tag value")?)),
        ["ip", "next-hop", ip] => Ok(RouteMapSet::NextHop(
            ip.parse::<Ipv4Addr>().map_err(|_| "bad next-hop address")?,
        )),
        ["community", rest @ ..] if !rest.is_empty() => {
            let (comms, additive) = match rest.split_last() {
                Some((&"additive", init)) => (init, true),
                _ => (rest, false),
            };
            if comms.is_empty() {
                return Err("set community needs at least one community".into());
            }
            let parsed: Result<Vec<Community>, _> =
                comms.iter().map(|c| c.parse::<Community>()).collect();
            let parsed = parsed.map_err(|e| e.message)?;
            Ok(if additive {
                RouteMapSet::CommunityAdd(parsed)
            } else {
                RouteMapSet::CommunityReplace(parsed)
            })
        }
        other => Err(format!("unsupported set clause '{}'", other.join(" "))),
    }
}

/// Parses `PROTO SRC [ports] DST [ports]`.
fn parse_acl_entry(action: Action, rest: &[&str]) -> Result<AclEntry, String> {
    let mut it = rest.iter().copied().peekable();
    let protocol: Protocol = it
        .next()
        .ok_or("missing protocol")?
        .parse()
        .map_err(|e: clarify_nettypes::ParseError| e.message)?;
    let src = parse_addr(&mut it)?;
    let src_ports = parse_ports(&mut it, protocol)?;
    let dst = parse_addr(&mut it)?;
    let dst_ports = parse_ports(&mut it, protocol)?;
    if let Some(extra) = it.next() {
        return Err(format!("trailing token '{extra}' in ACL entry"));
    }
    Ok(AclEntry {
        action,
        protocol,
        src,
        src_ports,
        dst,
        dst_ports,
    })
}

fn parse_addr<'a>(
    it: &mut std::iter::Peekable<impl Iterator<Item = &'a str>>,
) -> Result<AddrMatch, String> {
    match it.next().ok_or("missing address")? {
        "any" => Ok(AddrMatch::Any),
        "host" => {
            let ip: Ipv4Addr = it
                .next()
                .ok_or("host missing address")?
                .parse()
                .map_err(|_| "bad host address".to_string())?;
            Ok(AddrMatch::Host(ip))
        }
        tok if tok.contains('/') => {
            let p: Prefix = tok
                .parse()
                .map_err(|e: clarify_nettypes::ParseError| e.message)?;
            Ok(AddrMatch::Net(p))
        }
        tok => {
            // `addr wildcard` form; the wildcard must be contiguous.
            let addr: Ipv4Addr = tok.parse().map_err(|_| format!("bad address '{tok}'"))?;
            let wc: Ipv4Addr = it
                .next()
                .ok_or("address missing wildcard mask")?
                .parse()
                .map_err(|_| "bad wildcard mask".to_string())?;
            let wc = u32::from(wc);
            let mask = !wc;
            // A contiguous wildcard's complement is a left-aligned mask.
            let len = mask.leading_ones() as u8;
            if mask != Prefix::new(Ipv4Addr::new(255, 255, 255, 255), len).addr_u32() {
                return Err(format!("non-contiguous wildcard mask {wc:#010x}"));
            }
            Ok(AddrMatch::Net(Prefix::new(addr, len)))
        }
    }
}

fn parse_ports<'a>(
    it: &mut std::iter::Peekable<impl Iterator<Item = &'a str>>,
    protocol: Protocol,
) -> Result<PortRange, String> {
    let allowed = matches!(protocol, Protocol::Tcp | Protocol::Udp);
    match it.peek().copied() {
        Some("eq") => {
            it.next();
            if !allowed {
                return Err("port match on non-TCP/UDP protocol".into());
            }
            let p: u16 = it
                .next()
                .ok_or("eq missing port")?
                .parse()
                .map_err(|_| "bad port".to_string())?;
            Ok(PortRange::eq(p))
        }
        Some("range") => {
            it.next();
            if !allowed {
                return Err("port match on non-TCP/UDP protocol".into());
            }
            let lo: u16 = it
                .next()
                .ok_or("range missing low port")?
                .parse()
                .map_err(|_| "bad port".to_string())?;
            let hi: u16 = it
                .next()
                .ok_or("range missing high port")?
                .parse()
                .map_err(|_| "bad port".to_string())?;
            if lo > hi {
                return Err(format!("inverted port range {lo} {hi}"));
            }
            Ok(PortRange::new(lo, hi))
        }
        Some("gt") => {
            it.next();
            if !allowed {
                return Err("port match on non-TCP/UDP protocol".into());
            }
            let p: u16 = it
                .next()
                .ok_or("gt missing port")?
                .parse()
                .map_err(|_| "bad port".to_string())?;
            if p == u16::MAX {
                return Err("gt 65535 matches nothing".into());
            }
            Ok(PortRange::new(p + 1, u16::MAX))
        }
        Some("lt") => {
            it.next();
            if !allowed {
                return Err("port match on non-TCP/UDP protocol".into());
            }
            let p: u16 = it
                .next()
                .ok_or("lt missing port")?
                .parse()
                .map_err(|_| "bad port".to_string())?;
            if p == 0 {
                return Err("lt 0 matches nothing".into());
            }
            Ok(PortRange::new(0, p - 1))
        }
        _ => Ok(PortRange::ANY),
    }
}
