//! Random first-match policies, as configuration text, for differential
//! tests of the symbolic analyses: route-maps whose stanzas use every kind
//! of `match` and `set` clause over a fixed pool of community, AS-path and
//! prefix lists ([`LISTS`]), ACLs, and prefix lists.
//!
//! Values come from small pools, so `set` clauses often restate what a
//! stanza matches and rules often cover one another: the cases a
//! redundancy or placement verdict can get wrong. The all-zeros choice
//! stream gives the simplest one-rule policy of each kind.

use clarify_rng::Rng;

use crate::Source;

/// The lists every generated route-map may reference. `C4` matches only
/// communities past 65535, so no route can carry one.
pub const LISTS: &str = "\
ip community-list expanded C1 permit _1:1_
ip community-list expanded C2 permit _[12]:2_
ip community-list expanded C3 deny _1:1_
ip community-list expanded C3 permit _[12]:[12]_
ip community-list expanded C4 permit _7[0-9][0-9][0-9][0-9]:1_
ip as-path access-list A1 permit _32$
ip as-path access-list A2 deny ^100_
ip as-path access-list A2 permit _32_
ip prefix-list P1 seq 5 permit 10.0.0.0/8 le 24
ip prefix-list P2 seq 5 deny 10.1.0.0/16 le 32
ip prefix-list P2 seq 10 permit 10.0.0.0/8 ge 16 le 32
";

fn action(g: &mut Source) -> &'static str {
    g.pick(&["permit", "deny"])
}

/// One `match` clause over the fixed pools.
fn route_map_match(g: &mut Source) -> String {
    match g.gen_range(0u8..6) {
        0 => format!("match metric {}", g.pick(&[0, 5, 7])),
        1 => format!("match tag {}", g.pick(&[0, 3])),
        2 => format!("match local-preference {}", g.pick(&[100, 200])),
        3 => format!("match community {}", g.pick(&["C1", "C2", "C3", "C4"])),
        4 => format!("match as-path {}", g.pick(&["A1", "A2"])),
        _ => format!("match ip address prefix-list {}", g.pick(&["P1", "P2"])),
    }
}

/// One `set` clause of any kind, values past 16 bits included.
fn route_map_set(g: &mut Source) -> String {
    match g.gen_range(0u8..7) {
        0 => format!("set metric {}", g.pick(&[5, 7, 70000])),
        1 => format!("set local-preference {}", g.pick(&[100, 200])),
        2 => format!("set tag {}", g.pick(&[3, 70000])),
        3 => format!("set weight {}", g.pick(&[0, 100])),
        4 => format!("set ip next-hop {}", g.pick(&["0.0.0.1", "192.0.2.1"])),
        5 => format!(
            "set community {} additive",
            g.pick(&["1:1", "2:2", "1:1 2:2"])
        ),
        _ => format!("set community {}", g.pick(&["1:1", "2:2", "1:1 2:2"])),
    }
}

/// One stanza of route-map `name`, numbered `seq`.
pub fn route_map_stanza(g: &mut Source, name: &str, seq: u32) -> String {
    let mut text = format!("route-map {name} {} {seq}\n", action(g));
    for clause in g
        .vec(0, 2, route_map_match)
        .into_iter()
        .chain(g.vec(0, 3, route_map_set))
    {
        text.push_str(&format!(" {clause}\n"));
    }
    text
}

/// Route-map `name` with one to `max` stanzas. It references [`LISTS`].
pub fn route_map(g: &mut Source, name: &str, max: usize) -> String {
    let n = g.gen_range(1..=max);
    (1..=n as u32)
        .map(|i| route_map_stanza(g, name, i * 10))
        .collect()
}

/// One extended ACL entry line (indented, newline-terminated).
pub fn acl_entry(g: &mut Source) -> String {
    let proto = g.pick(&["ip", "tcp", "udp"]);
    let src = g.pick(&["any", "10.0.0.0/16", "10.1.0.0/16", "host 10.0.0.1"]);
    let dst = g.pick(&["any", "20.0.0.0/16"]);
    let ports = if proto == "ip" {
        ""
    } else {
        g.pick(&["", " eq 22", " eq 80", " range 20 100"])
    };
    format!(" {} {proto} {src} {dst}{ports}\n", action(g))
}

/// Extended ACL `name` with one to `max` entries.
pub fn acl(g: &mut Source, name: &str, max: usize) -> String {
    let n = g.gen_range(1..=max);
    let entries: String = (0..n).map(|_| acl_entry(g)).collect();
    format!("ip access-list extended {name}\n{entries}")
}

/// One entry line of prefix list `name`, numbered `seq`.
pub fn prefix_list_entry(g: &mut Source, name: &str, seq: u32) -> String {
    let (prefix, len) = g.pick(&[
        ("10.0.0.0", 8u8),
        ("10.1.0.0", 16),
        ("10.0.0.0", 9),
        ("192.168.0.0", 16),
        ("0.0.0.0", 0),
    ]);
    let range = match g.gen_range(0u8..3) {
        0 => String::new(),
        1 => format!(" le {}", (len + 8).min(32)),
        _ => format!(" ge {} le 32", len + 1),
    };
    let action = action(g);
    format!("ip prefix-list {name} seq {seq} {action} {prefix}/{len}{range}\n")
}

/// Prefix list `name` with one to `max` entries.
pub fn prefix_list(g: &mut Source, name: &str, max: usize) -> String {
    let n = g.gen_range(1..=max);
    (1..=n as u32)
        .map(|i| prefix_list_entry(g, name, i * 5))
        .collect()
}
