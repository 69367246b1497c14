use clarify_nettypes::{BgpRoute, Community, Packet, Prefix, Protocol};
use std::net::Ipv4Addr;

use crate::{
    insert_acl_entry, insert_route_map_stanza, AclEntry, Action, AddrMatch, Config, ConfigError,
    RouteMapVerdict,
};

/// The paper's §2 running example: route-map ISP_OUT with lists D0/D1.
pub(crate) const ISP_OUT: &str = "\
ip as-path access-list D0 permit _32$
ip prefix-list D1 seq 10 permit 10.0.0.0/8 le 24
ip prefix-list D1 seq 20 permit 20.0.0.0/16 le 32
ip prefix-list D1 seq 30 permit 1.0.0.0/20 ge 24
route-map ISP_OUT deny 10
 match as-path D0
route-map ISP_OUT deny 20
 match ip address prefix-list D1
route-map ISP_OUT permit 30
 match local-preference 300
";

/// The LLM-synthesized snippet from §2.1.
pub(crate) const SNIPPET: &str = "\
ip community-list expanded COM_LIST permit _300:3_
ip prefix-list PREFIX_100 permit 100.0.0.0/16 le 23
route-map SET_METRIC permit 10
 match community COM_LIST
 match ip address prefix-list PREFIX_100
 set metric 55
";

fn pfx(s: &str) -> Prefix {
    s.parse().unwrap()
}

fn com(s: &str) -> Community {
    s.parse().unwrap()
}

#[test]
fn parse_paper_config() {
    let cfg = Config::parse(ISP_OUT).unwrap();
    assert_eq!(cfg.route_maps.len(), 1);
    let rm = cfg.route_map("ISP_OUT").unwrap();
    assert_eq!(rm.stanzas.len(), 3);
    assert_eq!(rm.stanzas[0].seq, 10);
    assert_eq!(rm.stanzas[0].action, Action::Deny);
    assert_eq!(cfg.prefix_lists["D1"].entries.len(), 3);
    assert_eq!(cfg.as_path_lists["D0"].entries.len(), 1);
    cfg.validate().unwrap();
}

#[test]
fn eval_deny_by_as_path() {
    let cfg = Config::parse(ISP_OUT).unwrap();
    // Route originating from AS 32 hits stanza 10.
    let r = BgpRoute::with_defaults(pfx("99.0.0.0/16")).path(&[10, 32]);
    let v = cfg.eval_route_map("ISP_OUT", &r).unwrap();
    assert_eq!(v, RouteMapVerdict::DenyBy { seq: 10 });
}

#[test]
fn eval_deny_by_prefix_list() {
    let cfg = Config::parse(ISP_OUT).unwrap();
    let r = BgpRoute::with_defaults(pfx("10.1.0.0/16")).path(&[7]);
    let v = cfg.eval_route_map("ISP_OUT", &r).unwrap();
    assert_eq!(v, RouteMapVerdict::DenyBy { seq: 20 });
}

#[test]
fn eval_permit_by_local_pref() {
    let cfg = Config::parse(ISP_OUT).unwrap();
    let r = BgpRoute::with_defaults(pfx("99.0.0.0/16"))
        .path(&[7])
        .lp(300);
    let v = cfg.eval_route_map("ISP_OUT", &r).unwrap();
    assert!(v.is_permit());
    assert_eq!(v.seq(), Some(30));
}

#[test]
fn eval_implicit_deny() {
    let cfg = Config::parse(ISP_OUT).unwrap();
    // local-pref 100 (default) matches nothing.
    let r = BgpRoute::with_defaults(pfx("99.0.0.0/16")).path(&[7]);
    let v = cfg.eval_route_map("ISP_OUT", &r).unwrap();
    assert_eq!(v, RouteMapVerdict::ImplicitDeny);
}

#[test]
fn eval_first_match_wins_over_later() {
    let cfg = Config::parse(ISP_OUT).unwrap();
    // Matches both stanza 10 (as-path 32) and stanza 30 (lp 300): 10 wins.
    let r = BgpRoute::with_defaults(pfx("99.0.0.0/16"))
        .path(&[32])
        .lp(300);
    assert_eq!(
        cfg.eval_route_map("ISP_OUT", &r).unwrap(),
        RouteMapVerdict::DenyBy { seq: 10 }
    );
}

#[test]
fn verdicts_compare_by_behaviour() {
    let route = BgpRoute::with_defaults(pfx("99.0.0.0/16"));
    let permit = |route: &BgpRoute, seq| RouteMapVerdict::Permit {
        route: route.clone(),
        seq,
    };
    // Permits by their output route, whichever stanza decided them.
    assert!(permit(&route, 10).same_behaviour(&permit(&route, 20)));
    assert!(!permit(&route, 10).same_behaviour(&permit(&route.clone().med(5), 10)));
    // Any two denials agree; a denial never equals a permit.
    let deny = RouteMapVerdict::DenyBy { seq: 10 };
    assert!(deny.same_behaviour(&RouteMapVerdict::ImplicitDeny));
    assert!(!deny.same_behaviour(&permit(&route, 10)));
    assert!(!permit(&route, 10).same_behaviour(&RouteMapVerdict::ImplicitDeny));
}

#[test]
fn snippet_sets_metric() {
    let cfg = Config::parse(SNIPPET).unwrap();
    let r = BgpRoute::with_defaults(pfx("100.0.0.0/16")).community(com("300:3"));
    let v = cfg.eval_route_map("SET_METRIC", &r).unwrap();
    let out = v.route().expect("permitted");
    assert_eq!(out.metric, 55);
    // Mask length 24 exceeds `le 23`.
    let r = BgpRoute::with_defaults(pfx("100.0.1.0/24")).community(com("300:3"));
    assert_eq!(
        cfg.eval_route_map("SET_METRIC", &r).unwrap(),
        RouteMapVerdict::ImplicitDeny
    );
    // Missing community.
    let r = BgpRoute::with_defaults(pfx("100.0.0.0/16"));
    assert_eq!(
        cfg.eval_route_map("SET_METRIC", &r).unwrap(),
        RouteMapVerdict::ImplicitDeny
    );
}

#[test]
fn multiple_names_in_match_or_together() {
    let text = "\
ip prefix-list A seq 5 permit 10.0.0.0/8
ip prefix-list B seq 5 permit 20.0.0.0/8
route-map RM permit 10
 match ip address prefix-list A B
";
    let cfg = Config::parse(text).unwrap();
    for p in ["10.0.0.0/8", "20.0.0.0/8"] {
        let r = BgpRoute::with_defaults(pfx(p));
        assert!(cfg.eval_route_map("RM", &r).unwrap().is_permit(), "{p}");
    }
    let r = BgpRoute::with_defaults(pfx("30.0.0.0/8"));
    assert!(!cfg.eval_route_map("RM", &r).unwrap().is_permit());
}

#[test]
fn deny_entries_in_lists() {
    let text = "\
ip prefix-list PL seq 5 deny 10.1.0.0/16
ip prefix-list PL seq 10 permit 10.0.0.0/8 le 32
route-map RM permit 10
 match ip address prefix-list PL
";
    let cfg = Config::parse(text).unwrap();
    let denied = BgpRoute::with_defaults(pfx("10.1.0.0/16"));
    assert!(!cfg.eval_route_map("RM", &denied).unwrap().is_permit());
    let permitted = BgpRoute::with_defaults(pfx("10.2.0.0/16"));
    assert!(cfg.eval_route_map("RM", &permitted).unwrap().is_permit());
}

#[test]
fn set_clauses_apply_in_order() {
    let text = "\
route-map RM permit 10
 set metric 5
 set local-preference 200
 set community 65000:1 additive
 set weight 7
 set tag 9
 set ip next-hop 192.0.2.1
";
    let cfg = Config::parse(text).unwrap();
    let r = BgpRoute::with_defaults(pfx("10.0.0.0/8")).community(com("300:3"));
    let out = cfg
        .eval_route_map("RM", &r)
        .unwrap()
        .route()
        .unwrap()
        .clone();
    assert_eq!(out.metric, 5);
    assert_eq!(out.local_pref, 200);
    assert_eq!(out.weight, 7);
    assert_eq!(out.tag, 9);
    assert_eq!(out.next_hop, Ipv4Addr::new(192, 0, 2, 1));
    assert!(
        out.communities.contains(&com("300:3")),
        "additive keeps old"
    );
    assert!(out.communities.contains(&com("65000:1")));
}

#[test]
fn set_community_replace_drops_old() {
    let text = "\
route-map RM permit 10
 set community 65000:1
";
    let cfg = Config::parse(text).unwrap();
    let r = BgpRoute::with_defaults(pfx("10.0.0.0/8")).community(com("300:3"));
    let out = cfg
        .eval_route_map("RM", &r)
        .unwrap()
        .route()
        .unwrap()
        .clone();
    assert!(!out.communities.contains(&com("300:3")));
    assert!(out.communities.contains(&com("65000:1")));
}

#[test]
fn empty_stanza_matches_everything() {
    let cfg = Config::parse("route-map RM deny 10\n").unwrap();
    let r = BgpRoute::with_defaults(pfx("10.0.0.0/8"));
    assert_eq!(
        cfg.eval_route_map("RM", &r).unwrap(),
        RouteMapVerdict::DenyBy { seq: 10 }
    );
}

#[test]
fn parse_errors_carry_line_numbers() {
    let e = Config::parse("route-map RM permit 10\nbogus line here\n").unwrap_err();
    match e {
        ConfigError::Syntax { line, .. } => assert_eq!(line, 2),
        other => panic!("unexpected error {other:?}"),
    }
    let e = Config::parse("match as-path D0\n").unwrap_err();
    assert!(matches!(e, ConfigError::Syntax { line: 1, .. }));
    let e = Config::parse("route-map RM permit ten\n").unwrap_err();
    assert!(matches!(e, ConfigError::Syntax { .. }));
}

#[test]
fn duplicate_stanza_seq_rejected() {
    let text = "route-map RM permit 10\nroute-map RM deny 10\n";
    assert!(matches!(
        Config::parse(text),
        Err(ConfigError::DuplicateName { .. })
    ));
}

#[test]
fn validate_catches_dangling_reference() {
    let cfg = Config::parse("route-map RM permit 10\n match as-path NOPE\n").unwrap();
    assert!(matches!(
        cfg.validate(),
        Err(ConfigError::UnknownList { name, .. }) if name == "NOPE"
    ));
}

#[test]
fn references_walk_prefix_then_as_path_then_community_lists() {
    let cfg = Config::parse(
        "route-map RM permit 10\n match community C\n match as-path A\n \
         match ip address prefix-list P1 P2\n",
    )
    .unwrap();
    let refs: Vec<_> = cfg.route_map("RM").unwrap().stanzas[0]
        .references()
        .collect();
    assert_eq!(
        refs,
        [
            (crate::ObjectKind::PrefixList, "P1"),
            (crate::ObjectKind::PrefixList, "P2"),
            (crate::ObjectKind::AsPathList, "A"),
            (crate::ObjectKind::CommunityList, "C"),
        ]
    );
    // `validate` reports the first dangling one in that order.
    assert!(matches!(
        cfg.validate(),
        Err(ConfigError::UnknownList { kind: "prefix-list", name }) if name == "P1"
    ));
}

#[test]
fn eval_missing_route_map_errors() {
    let cfg = Config::new();
    let r = BgpRoute::with_defaults(pfx("10.0.0.0/8"));
    assert!(matches!(
        cfg.eval_route_map("NOPE", &r),
        Err(ConfigError::NotFound { .. })
    ));
}

#[test]
fn print_parse_roundtrip() {
    for text in [ISP_OUT, SNIPPET] {
        let cfg = Config::parse(text).unwrap();
        let printed = cfg.to_string();
        let reparsed = Config::parse(&printed).unwrap_or_else(|e| panic!("{e}\n{printed}"));
        assert_eq!(cfg, reparsed, "round-trip failed for:\n{printed}");
    }
}

#[test]
fn acl_parse_and_eval() {
    let text = "\
ip access-list extended EDGE_IN
 permit tcp host 1.1.1.1 host 2.2.2.2 eq 443
 deny ip 10.0.0.0 0.255.255.255 any
 permit udp any eq 53 any
 deny tcp any any range 8000 8100
 permit ip any any
";
    let cfg = Config::parse(text).unwrap();
    let acl = cfg.acl("EDGE_IN").unwrap();
    assert_eq!(acl.entries.len(), 5);

    let p = Packet::tcp(
        Ipv4Addr::new(1, 1, 1, 1),
        5555,
        Ipv4Addr::new(2, 2, 2, 2),
        443,
    );
    let v = cfg.eval_acl("EDGE_IN", &p).unwrap();
    assert_eq!(v.action, Action::Permit);
    assert_eq!(v.index, Some(0));

    let p = Packet::tcp(Ipv4Addr::new(10, 9, 8, 7), 1, Ipv4Addr::new(2, 2, 2, 2), 80);
    assert_eq!(cfg.eval_acl("EDGE_IN", &p).unwrap().index, Some(1));

    let p = Packet {
        src_ip: Ipv4Addr::new(3, 3, 3, 3),
        dst_ip: Ipv4Addr::new(4, 4, 4, 4),
        protocol: Protocol::Udp,
        src_port: 53,
        dst_port: 9,
    };
    assert_eq!(cfg.eval_acl("EDGE_IN", &p).unwrap().index, Some(2));

    let p = Packet::tcp(
        Ipv4Addr::new(3, 3, 3, 3),
        9,
        Ipv4Addr::new(4, 4, 4, 4),
        8050,
    );
    let v = cfg.eval_acl("EDGE_IN", &p).unwrap();
    assert_eq!(v.action, Action::Deny);
    assert_eq!(v.index, Some(3));
}

#[test]
fn acl_implicit_deny() {
    let cfg = Config::parse("ip access-list extended A\n permit tcp any any eq 80\n").unwrap();
    let p = Packet::tcp(Ipv4Addr::new(1, 1, 1, 1), 1, Ipv4Addr::new(2, 2, 2, 2), 81);
    let v = cfg.eval_acl("A", &p).unwrap();
    assert_eq!(v.action, Action::Deny);
    assert_eq!(v.index, None);
}

#[test]
fn acl_rejects_noncontiguous_wildcard() {
    let text = "ip access-list extended A\n permit ip 10.0.0.0 0.255.0.255 any\n";
    assert!(matches!(
        Config::parse(text),
        Err(ConfigError::Syntax { .. })
    ));
}

#[test]
fn acl_port_on_icmp_rejected() {
    let text = "ip access-list extended A\n permit icmp any eq 1 any\n";
    assert!(Config::parse(text).is_err());
}

#[test]
fn acl_gt_lt_ports() {
    let text = "\
ip access-list extended A
 permit tcp any gt 1023 any
 permit udp any any lt 1024
";
    let cfg = Config::parse(text).unwrap();
    let acl = cfg.acl("A").unwrap();
    assert_eq!(acl.entries[0].src_ports.lo, 1024);
    assert_eq!(acl.entries[0].src_ports.hi, u16::MAX);
    assert_eq!(acl.entries[1].dst_ports.hi, 1023);
}

#[test]
fn acl_roundtrip() {
    let text = "\
ip access-list extended EDGE_IN
 permit tcp host 1.1.1.1 host 2.2.2.2 eq 443
 deny ip 10.0.0.0/8 any
 permit udp any eq 53 any
";
    let cfg = Config::parse(text).unwrap();
    let printed = cfg.to_string();
    assert_eq!(Config::parse(&printed).unwrap(), cfg);
}

#[test]
fn entry_superset_detection() {
    let cfg = Config::parse(
        "ip access-list extended A\n deny ip any any\n permit tcp host 1.1.1.1 host 2.2.2.2\n",
    )
    .unwrap();
    let acl = cfg.acl("A").unwrap();
    assert!(acl.entries[0].match_superset_of(&acl.entries[1]));
    assert!(!acl.entries[1].match_superset_of(&acl.entries[0]));
}

#[test]
fn insert_at_top_matches_figure_2a() {
    let base = Config::parse(ISP_OUT).unwrap();
    let snippet = Config::parse(SNIPPET).unwrap();
    let (cfg, report) =
        insert_route_map_stanza(&base, "ISP_OUT", &snippet, "SET_METRIC", 0).unwrap();
    let rm = cfg.route_map("ISP_OUT").unwrap();
    assert_eq!(rm.stanzas.len(), 4);
    // Figure 2(a): new stanza first, renumbered 10/20/30/40.
    assert_eq!(
        rm.stanzas.iter().map(|s| s.seq).collect::<Vec<_>>(),
        vec![10, 20, 30, 40]
    );
    assert_eq!(rm.stanzas[0].action, Action::Permit);
    assert_eq!(report.new_seq, 10);
    assert_eq!(report.position, 0);
    // Lists renamed to the D-convention: D2 and D3 are the fresh names
    // (D0, D1 are taken by the base config).
    let renamed: Vec<&str> = report.renames.iter().map(|(_, n)| n.as_str()).collect();
    assert_eq!(renamed, vec!["D2", "D3"]);
    cfg.validate().unwrap();

    // Behaviour: the §2.2 differential route now gets metric 55.
    let r = BgpRoute::with_defaults(pfx("100.0.0.0/16"))
        .path(&[32])
        .community(com("300:3"));
    let v = cfg.eval_route_map("ISP_OUT", &r).unwrap();
    assert_eq!(v.route().unwrap().metric, 55);
}

#[test]
fn insert_at_bottom_matches_figure_2b() {
    let base = Config::parse(ISP_OUT).unwrap();
    let snippet = Config::parse(SNIPPET).unwrap();
    let (cfg, _) = insert_route_map_stanza(&base, "ISP_OUT", &snippet, "SET_METRIC", 3).unwrap();
    let rm = cfg.route_map("ISP_OUT").unwrap();
    assert_eq!(rm.stanzas[3].action, Action::Permit);
    assert!(!rm.stanzas[3].sets.is_empty());
    // Figure 2(b) / OPTION 2: the differential route is denied because
    // stanza 10 (as-path 32) fires first.
    let r = BgpRoute::with_defaults(pfx("100.0.0.0/16"))
        .path(&[32])
        .community(com("300:3"));
    assert_eq!(
        cfg.eval_route_map("ISP_OUT", &r).unwrap(),
        RouteMapVerdict::DenyBy { seq: 10 }
    );
}

#[test]
fn insert_positions_are_validated() {
    let base = Config::parse(ISP_OUT).unwrap();
    let snippet = Config::parse(SNIPPET).unwrap();
    assert!(matches!(
        insert_route_map_stanza(&base, "ISP_OUT", &snippet, "SET_METRIC", 5),
        Err(ConfigError::InvalidEdit(_))
    ));
    assert!(matches!(
        insert_route_map_stanza(&base, "NOPE", &snippet, "SET_METRIC", 0),
        Err(ConfigError::NotFound { .. })
    ));
    assert!(matches!(
        insert_route_map_stanza(&base, "ISP_OUT", &snippet, "NOPE", 0),
        Err(ConfigError::NotFound { .. })
    ));
}

#[test]
fn insert_rejects_multi_stanza_snippet() {
    let base = Config::parse(ISP_OUT).unwrap();
    let snippet = Config::parse("route-map S permit 10\nroute-map S permit 20\n").unwrap();
    assert!(matches!(
        insert_route_map_stanza(&base, "ISP_OUT", &snippet, "S", 0),
        Err(ConfigError::InvalidEdit(_))
    ));
}

#[test]
fn insert_preserves_base_behaviour_elsewhere() {
    let base = Config::parse(ISP_OUT).unwrap();
    let snippet = Config::parse(SNIPPET).unwrap();
    for pos in 0..=3 {
        let (cfg, _) =
            insert_route_map_stanza(&base, "ISP_OUT", &snippet, "SET_METRIC", pos).unwrap();
        // A route the snippet does not match behaves exactly as before.
        let r = BgpRoute::with_defaults(pfx("10.1.0.0/16")).path(&[7]);
        let before = base.eval_route_map("ISP_OUT", &r).unwrap();
        let after = cfg.eval_route_map("ISP_OUT", &r).unwrap();
        assert_eq!(before.is_permit(), after.is_permit(), "position {pos}");
    }
}

#[test]
fn insert_acl_entry_positions() {
    let base =
        Config::parse("ip access-list extended A\n permit tcp any any eq 80\n deny ip any any\n")
            .unwrap();
    let entry = AclEntry {
        action: Action::Permit,
        protocol: Protocol::Udp,
        src: AddrMatch::Any,
        src_ports: clarify_nettypes::PortRange::ANY,
        dst: AddrMatch::Any,
        dst_ports: clarify_nettypes::PortRange::eq(53),
    };
    let cfg = insert_acl_entry(&base, "A", entry.clone(), 1).unwrap();
    assert_eq!(cfg.acl("A").unwrap().entries.len(), 3);
    assert_eq!(cfg.acl("A").unwrap().entries[1], entry);
    assert!(insert_acl_entry(&base, "A", entry.clone(), 9).is_err());
    assert!(insert_acl_entry(&base, "B", entry, 0).is_err());
}

#[test]
fn prefix_list_auto_seq() {
    let text = "\
ip prefix-list PL permit 10.0.0.0/8
ip prefix-list PL permit 20.0.0.0/8
";
    let cfg = Config::parse(text).unwrap();
    let seqs: Vec<u32> = cfg.prefix_lists["PL"]
        .entries
        .iter()
        .map(|e| e.seq)
        .collect();
    assert_eq!(seqs, vec![5, 10]);
}

#[test]
fn comments_and_blank_lines_ignored() {
    let text = "! a comment\n\nroute-map RM permit 10\n!\n set metric 1\n";
    let cfg = Config::parse(text).unwrap();
    assert_eq!(cfg.route_map("RM").unwrap().stanzas[0].sets.len(), 1);
}

mod properties {
    use super::*;
    use crate::{PrefixList, PrefixListEntry};
    use clarify_nettypes::PrefixRange;
    use clarify_testkit::{gens, prop_assert_eq, property, Rng, Source};

    fn arb_prefix(g: &mut Source) -> Prefix {
        let addr = g.gen_range(0u32..=u32::MAX);
        let len = g.gen_range(0u8..=32);
        Prefix::from_u32(addr, len)
    }

    property! {
        /// Printing any parsed-then-printed config is a fixpoint.
        fn print_is_fixpoint(seed in gens::ints(0u32..1000)) {
            // Build a small config from the seed deterministically.
            let lp = 100 + seed % 400;
            let text = format!(
                "ip prefix-list P seq 5 permit 10.{}.0.0/16\nroute-map R permit 10\n match ip address prefix-list P\n set local-preference {lp}\n",
                seed % 256,
            );
            let cfg = Config::parse(&text).unwrap();
            let once = cfg.to_string();
            let twice = Config::parse(&once).unwrap().to_string();
            prop_assert_eq!(once, twice);
        }

        /// Prefix-list evaluation agrees with direct range matching when
        /// all entries are permits.
        fn prefix_list_permit_only(prefixes in gens::vec_of(arb_prefix, 1, 5), probe in arb_prefix) {
            let entries: Vec<PrefixListEntry> = prefixes
                .iter()
                .enumerate()
                .map(|(i, p)| PrefixListEntry {
                    seq: (i as u32 + 1) * 5,
                    action: Action::Permit,
                    range: PrefixRange::exact(*p),
                })
                .collect();
            let pl = PrefixList { name: "P".into(), entries };
            let direct = prefixes.contains(&probe);
            prop_assert_eq!(pl.permits(&probe), direct);
        }
    }
}

#[test]
fn insert_prefix_list_entry_renumbers() {
    use crate::{insert_prefix_list_entry, PrefixListEntry};
    use clarify_nettypes::PrefixRange;
    let base = Config::parse(
        "ip prefix-list PL seq 10 permit 10.0.0.0/8 le 24\nip prefix-list PL seq 20 deny 20.0.0.0/8\n",
    )
    .unwrap();
    let entry = PrefixListEntry {
        seq: 0,
        action: Action::Deny,
        range: "10.1.0.0/16 le 32".parse::<PrefixRange>().unwrap(),
    };
    let cfg = insert_prefix_list_entry(&base, "PL", entry.clone(), 0).unwrap();
    let pl = &cfg.prefix_lists["PL"];
    assert_eq!(pl.entries.len(), 3);
    assert_eq!(pl.entries[0].range, entry.range);
    assert_eq!(
        pl.entries.iter().map(|e| e.seq).collect::<Vec<_>>(),
        vec![5, 10, 15]
    );
    assert!(insert_prefix_list_entry(&base, "PL", entry.clone(), 5).is_err());
    assert!(insert_prefix_list_entry(&base, "NOPE", entry, 0).is_err());
}

#[test]
fn standard_community_list_desugars_to_expanded() {
    let text = "\
ip community-list standard ALLOW permit 300:3
ip community-list standard ALLOW deny 65000:1
route-map RM permit 10
 match community ALLOW
";
    let cfg = Config::parse(text).unwrap();
    let cl = &cfg.community_lists["ALLOW"];
    assert_eq!(cl.entries.len(), 2);
    assert_eq!(cl.entries[0].regex.pattern(), "_300:3_");
    let tagged = BgpRoute::with_defaults(pfx("10.0.0.0/8")).community(com("300:3"));
    assert!(cfg.eval_route_map("RM", &tagged).unwrap().is_permit());
    let denied = BgpRoute::with_defaults(pfx("10.0.0.0/8")).community(com("65000:1"));
    assert!(!cfg.eval_route_map("RM", &denied).unwrap().is_permit());
    let untagged = BgpRoute::with_defaults(pfx("10.0.0.0/8"));
    assert!(!cfg.eval_route_map("RM", &untagged).unwrap().is_permit());
    // Round-trips via the expanded form.
    let printed = cfg.to_string();
    assert!(printed.contains("ip community-list expanded ALLOW permit _300:3_"));
    assert_eq!(Config::parse(&printed).unwrap(), cfg);
}

#[test]
fn standard_community_list_rejects_conjunctive_entries() {
    let text = "ip community-list standard X permit 300:3 300:4\n";
    assert!(matches!(
        Config::parse(text),
        Err(ConfigError::Syntax { .. })
    ));
    let text = "ip community-list standard X permit\n";
    assert!(Config::parse(text).is_err());
    let text = "ip community-list standard X permit nonsense\n";
    assert!(Config::parse(text).is_err());
}

mod robustness {
    use super::*;
    use clarify_testkit::{gens, prop_assert_eq, property};

    property! {
        /// The parser never panics on arbitrary printable input — it either
        /// parses or returns a positioned error.
        fn parser_never_panics(input in gens::ascii_string_with_newlines(300)) cases 256 {
            let _ = Config::parse(&input);
        }

        /// Keyword-shaped garbage also never panics (denser coverage of
        /// the statement dispatch than uniform noise).
        fn parser_never_panics_on_keyword_soup(
            words in gens::vec_of(
                gens::sampled(vec![
                    "route-map", "ip", "prefix-list", "access-list",
                    "extended", "as-path", "community-list", "expanded",
                    "standard", "match", "set", "permit", "deny",
                    "seq", "le", "ge", "eq", "range", "host",
                    "any", "tcp", "udp", "10.0.0.0/8", "1.2.3.4",
                    "10", "300:3", "_32$", "RM", "\n",
                ]),
                0, 39,
            )
        ) cases 256 {
            let text = words.join(" ");
            let _ = Config::parse(&text);
        }

        /// Whatever parses, prints, and re-parses is stable (idempotent
        /// canonical form) — on keyword soup that happens to be valid.
        fn print_parse_idempotent_on_valid_soup(
            words in gens::vec_of(
                gens::sampled(vec![
                    "ip prefix-list P seq 5 permit 10.0.0.0/8 le 24\n",
                    "ip prefix-list Q seq 5 deny 20.0.0.0/8\n",
                    "ip as-path access-list A permit _32$\n",
                    "ip community-list expanded C permit _300:3_\n",
                    "route-map R1 permit 10\n match ip address prefix-list P\n",
                    "route-map R2 deny 10\n set metric 5\n",
                    "ip access-list extended ACL\n permit tcp any any eq 80\n",
                ]),
                1, 5,
            )
        ) cases 256 {
            let text: String = words.concat();
            if let Ok(cfg) = Config::parse(&text) {
                let printed = cfg.to_string();
                let reparsed = Config::parse(&printed).expect("canonical form parses");
                prop_assert_eq!(&cfg, &reparsed);
                prop_assert_eq!(printed.clone(), reparsed.to_string());
            }
        }
    }
}

#[test]
fn route_map_auto_sequence_numbers() {
    let text = "\
route-map RM permit
 match tag 1
route-map RM deny
 match tag 2
route-map RM permit 55
route-map RM deny
";
    let cfg = Config::parse(text).unwrap();
    let seqs: Vec<u32> = cfg
        .route_map("RM")
        .unwrap()
        .stanzas
        .iter()
        .map(|s| s.seq)
        .collect();
    assert_eq!(seqs, vec![10, 20, 55, 65]);
}

#[test]
fn config_merge_detects_clashes() {
    let mut a = Config::parse("ip prefix-list P seq 5 permit 10.0.0.0/8\n").unwrap();
    let b = Config::parse("ip prefix-list Q seq 5 permit 20.0.0.0/8\nroute-map RM permit 10\n")
        .unwrap();
    a.merge(b).unwrap();
    assert!(a.prefix_lists.contains_key("P"));
    assert!(a.prefix_lists.contains_key("Q"));
    assert!(a.route_maps.contains_key("RM"));
    // Clashing names are rejected.
    let clash = Config::parse("ip prefix-list P seq 5 permit 30.0.0.0/8\n").unwrap();
    assert!(matches!(
        a.merge(clash),
        Err(ConfigError::DuplicateName { .. })
    ));
}

#[test]
fn parse_with_spans_records_rule_lines() {
    use crate::{ObjectKind, RuleId};
    let (cfg, spans) = Config::parse_with_spans(ISP_OUT).unwrap();
    assert_eq!(cfg, Config::parse(ISP_OUT).unwrap());
    // ISP_OUT layout: as-path line 1, prefix-list seqs 10/20/30 on lines
    // 2-4, route-map stanza headers on lines 5, 7, 9.
    assert_eq!(spans.line(&RuleId::as_path_entry("D0", 0)), Some(1));
    assert_eq!(spans.line(&RuleId::prefix_entry("D1", 10)), Some(2));
    assert_eq!(spans.line(&RuleId::prefix_entry("D1", 30)), Some(4));
    assert_eq!(
        spans.line(&RuleId::route_map_stanza("ISP_OUT", 10)),
        Some(5)
    );
    assert_eq!(
        spans.line(&RuleId::route_map_stanza("ISP_OUT", 30)),
        Some(9)
    );
    // Object headers point at their first occurrence.
    assert_eq!(
        spans.line(&RuleId::object(ObjectKind::RouteMap, "ISP_OUT")),
        Some(5)
    );
    assert_eq!(
        spans.line(&RuleId::object(ObjectKind::PrefixList, "D1")),
        Some(2)
    );
    // Unknown rules have no span.
    assert_eq!(spans.line(&RuleId::route_map_stanza("ISP_OUT", 99)), None);
    assert!(!spans.is_empty());
}

#[test]
fn acl_spans_and_rule_id_display() {
    use crate::RuleId;
    let text = "\
ip access-list extended EDGE_IN
 permit tcp any host 10.0.0.1 eq 443
 deny ip any any
";
    let (_, spans) = Config::parse_with_spans(text).unwrap();
    assert_eq!(spans.line(&RuleId::acl_entry("EDGE_IN", 0)), Some(2));
    assert_eq!(spans.line(&RuleId::acl_entry("EDGE_IN", 1)), Some(3));
    assert_eq!(
        RuleId::acl_entry("EDGE_IN", 1).to_string(),
        "access-list EDGE_IN rule 1"
    );
    assert_eq!(
        RuleId::route_map_stanza("ISP_OUT", 20).to_string(),
        "route-map ISP_OUT stanza 20"
    );
    assert_eq!(
        RuleId::prefix_entry("D1", 10).to_string(),
        "prefix-list D1 seq 10"
    );
}
