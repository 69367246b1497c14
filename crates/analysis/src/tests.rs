use clarify_bdd::Ref;
use clarify_netconfig::{insert_route_map_stanza, Action, Config, RouteMap, RouteMapSet};
use clarify_nettypes::{BgpRoute, Community, Packet, Prefix, Protocol};
use std::net::Ipv4Addr;

use crate::{
    acl_overlaps, compare_route_policies, overlaps, policies_equivalent, search,
    verify_stanza_against_spec, witnesses, AnalysisError, FirstMatchPolicy, PacketSpace,
    RouteSpace, SpecVerdict, StanzaSpec,
};

const ISP_OUT: &str = "\
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

const SNIPPET: &str = "\
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

/// The permit set of route-map `name` in `cfg`.
fn permit_set(space: &mut RouteSpace, cfg: &Config, name: &str) -> Result<Ref, AnalysisError> {
    cfg.route_map(name).unwrap().permit_set(space, cfg)
}

#[test]
fn route_space_builds_for_paper_configs() {
    let base = Config::parse(ISP_OUT).unwrap();
    let snip = Config::parse(SNIPPET).unwrap();
    let space = RouteSpace::new(&[&base, &snip]).unwrap();
    // One community pattern -> 2 atoms (in/out); one as-path pattern -> 2.
    assert_eq!(space.num_community_atoms(), 2);
    assert_eq!(space.num_path_atoms(), 2);
}

/// Thirteen independent transit patterns (`_100_` … `_112_`) split the
/// AS-path universe into 8192 atoms, past `ATOM_LIMIT`: the build stops
/// with a typed error, without building the space.
#[test]
fn route_space_refuses_more_atoms_than_the_limit() {
    let lists: String = (100..113)
        .map(|asn| format!("ip as-path access-list T{asn} permit _{asn}_\n"))
        .collect();
    let cfg = Config::parse(&lists).unwrap();
    assert!(matches!(
        RouteSpace::new(&[&cfg]),
        Err(AnalysisError::AtomLimitExceeded)
    ));
}

#[test]
fn permit_set_agrees_with_concrete_eval_on_probes() {
    let base = Config::parse(ISP_OUT).unwrap();
    let mut space = RouteSpace::new(&[&base]).unwrap();
    let permits = permit_set(&mut space, &base, "ISP_OUT").unwrap();
    let probes = vec![
        BgpRoute::with_defaults(pfx("99.0.0.0/16")).path(&[10, 32]),
        BgpRoute::with_defaults(pfx("10.1.0.0/16")).path(&[7]),
        BgpRoute::with_defaults(pfx("99.0.0.0/16"))
            .path(&[7])
            .lp(300),
        BgpRoute::with_defaults(pfx("99.0.0.0/16")).path(&[7]),
        BgpRoute::with_defaults(pfx("20.0.0.0/16"))
            .path(&[7])
            .lp(300),
        BgpRoute::with_defaults(pfx("1.0.1.0/24"))
            .path(&[32, 7])
            .lp(300),
    ];
    for r in probes {
        let point = space.encode_route(&r).unwrap();
        let inside = space.manager().implies_true(point, permits);
        let concrete = base.eval_route_map("ISP_OUT", &r).unwrap().is_permit();
        assert_eq!(inside, concrete, "route {r:?}");
    }
}

#[test]
fn search_route_policies_finds_witnesses() {
    let base = Config::parse(ISP_OUT).unwrap();
    let mut space = RouteSpace::new(&[&base]).unwrap();
    let map = base.route_map("ISP_OUT").unwrap();
    let permitted = search(&mut space, &base, map, Action::Permit, None)
        .unwrap()
        .expect("some route is permitted");
    assert!(base
        .eval_route_map("ISP_OUT", &permitted)
        .unwrap()
        .is_permit());
    assert_eq!(permitted.local_pref, 300, "only lp-300 routes pass");

    let denied = search(&mut space, &base, map, Action::Deny, None)
        .unwrap()
        .expect("some route is denied");
    assert!(!base.eval_route_map("ISP_OUT", &denied).unwrap().is_permit());
}

#[test]
fn search_with_constraint() {
    let base = Config::parse(ISP_OUT).unwrap();
    let mut space = RouteSpace::new(&[&base]).unwrap();
    // Constrain to the D1 prefix space and ask for a permit: stanza 20
    // denies D1 prefixes, but lp-300 routes outside D1's length bounds
    // can still pass. 10.0.0.0/8 le 24 leaves /25../32 free.
    let range: clarify_nettypes::PrefixRange = "10.0.0.0/8 ge 25".parse().unwrap();
    let c = space.encode_prefix_range(&range);
    let map = base.route_map("ISP_OUT").unwrap();
    let r = search(&mut space, &base, map, Action::Permit, Some(c))
        .unwrap()
        .expect("permitted /25+ route under 10/8 exists");
    assert!(range.matches(&r.network));
    assert!(base.eval_route_map("ISP_OUT", &r).unwrap().is_permit());
}

#[test]
fn witness_route_roundtrips_through_encoding() {
    let base = Config::parse(ISP_OUT).unwrap();
    let snip = Config::parse(SNIPPET).unwrap();
    let mut space = RouteSpace::new(&[&base, &snip]).unwrap();
    let set = permit_set(&mut space, &snip, "SET_METRIC").unwrap();
    let w = space.witness(set).unwrap().expect("nonempty");
    // The witness must concretely match the snippet stanza.
    let v = snip.eval_route_map("SET_METRIC", &w).unwrap();
    assert!(v.is_permit());
    assert_eq!(v.route().unwrap().metric, 55);
    // And its encoding lies inside the symbolic set.
    let point = space.encode_route(&w).unwrap();
    assert!(space.manager().implies_true(point, set));
}

#[test]
fn compare_reproduces_paper_differential_example() {
    // Insert the snippet at top (Figure 2a) and at bottom (Figure 2b);
    // compare the two resulting policies as the disambiguator does.
    let base = Config::parse(ISP_OUT).unwrap();
    let snip = Config::parse(SNIPPET).unwrap();
    let (cfg_top, _) = insert_route_map_stanza(&base, "ISP_OUT", &snip, "SET_METRIC", 0).unwrap();
    let (cfg_bot, _) = insert_route_map_stanza(&base, "ISP_OUT", &snip, "SET_METRIC", 3).unwrap();
    let mut space = RouteSpace::new(&[&cfg_top, &cfg_bot]).unwrap();
    let diffs =
        compare_route_policies(&mut space, &cfg_top, "ISP_OUT", &cfg_bot, "ISP_OUT", 8).unwrap();
    assert!(!diffs.is_empty(), "the two placements differ");
    // Every reported difference is concretely real, and at least one looks
    // like the paper's: matched by the new stanza under (a), denied under (b).
    let mut saw_paper_shape = false;
    for d in &diffs {
        // Every reported diff is a real behavioural difference.
        assert!(!d.a.same_behaviour(&d.b), "non-difference reported: {d:?}");
        if let Some(route) = d.a.route() {
            if route.metric == 55 && !d.b.is_permit() {
                saw_paper_shape = true;
                // The differential input carries community 300:3 and sits
                // under 100.0.0.0/16 with length <= 23.
                assert!(d.route.communities.contains(&com("300:3")));
                assert!(pfx("100.0.0.0/16").covers(&d.route.network));
                assert!(d.route.network.len() <= 23);
            }
        }
    }
    assert!(
        saw_paper_shape,
        "paper's OPTION1/OPTION2 shape found: {diffs:?}"
    );
}

#[test]
fn equivalent_policies_have_no_diffs() {
    let base = Config::parse(ISP_OUT).unwrap();
    let mut space = RouteSpace::new(&[&base]).unwrap();
    assert!(policies_equivalent(&mut space, &base, "ISP_OUT", &base, "ISP_OUT").unwrap());
}

#[test]
fn insertion_between_non_overlapping_stanzas_is_equivalent() {
    // The snippet does not overlap stanzas 20/30 in a way that placement
    // between them matters: positions 1 and 2 both sit after the as-path
    // deny and before/after the D1 deny. D1 does not cover 100.0.0.0/16,
    // and the lp-300 stanza only fires on lp 300... but the snippet also
    // matches lp-300 routes, so 2 vs 3 differs. Positions 1 and 2 are
    // equivalent because the snippet's match set is disjoint from D1.
    let base = Config::parse(ISP_OUT).unwrap();
    let snip = Config::parse(SNIPPET).unwrap();
    let (cfg1, _) = insert_route_map_stanza(&base, "ISP_OUT", &snip, "SET_METRIC", 1).unwrap();
    let (cfg2, _) = insert_route_map_stanza(&base, "ISP_OUT", &snip, "SET_METRIC", 2).unwrap();
    let mut space = RouteSpace::new(&[&cfg1, &cfg2]).unwrap();
    assert!(policies_equivalent(&mut space, &cfg1, "ISP_OUT", &cfg2, "ISP_OUT").unwrap());
}

#[test]
fn compare_detects_set_clause_differences() {
    let a = Config::parse("route-map RM permit 10\n set metric 55\n").unwrap();
    let b = Config::parse("route-map RM permit 10\n set metric 66\n").unwrap();
    let mut space = RouteSpace::new(&[&a, &b]).unwrap();
    let diffs = compare_route_policies(&mut space, &a, "RM", &b, "RM", 4).unwrap();
    assert!(!diffs.is_empty());
    let d = &diffs[0];
    assert_eq!(d.a.route().unwrap().metric, 55);
    assert_eq!(d.b.route().unwrap().metric, 66);
}

#[test]
fn compare_set_vs_unset_metric_excludes_coinciding_inputs() {
    let a = Config::parse("route-map RM permit 10\n set metric 55\n").unwrap();
    let b = Config::parse("route-map RM permit 10\n").unwrap();
    let mut space = RouteSpace::new(&[&a, &b]).unwrap();
    let diffs = compare_route_policies(&mut space, &a, "RM", &b, "RM", 4).unwrap();
    assert!(!diffs.is_empty());
    for d in &diffs {
        assert_ne!(d.route.metric, 55, "input metric 55 shows no difference");
    }
}

#[test]
fn compare_detects_next_hop_difference_outside_space() {
    let a = Config::parse("route-map RM permit 10\n set ip next-hop 192.0.2.9\n").unwrap();
    let b = Config::parse("route-map RM permit 10\n").unwrap();
    let mut space = RouteSpace::new(&[&a, &b]).unwrap();
    let diffs = compare_route_policies(&mut space, &a, "RM", &b, "RM", 2).unwrap();
    assert!(!diffs.is_empty());
    let d = &diffs[0];
    assert_ne!(d.a.route().unwrap().next_hop, d.b.route().unwrap().next_hop);
}

#[test]
fn compare_detects_community_effect_difference() {
    let a = Config::parse("route-map RM permit 10\n set community 65000:1 additive\n").unwrap();
    let b = Config::parse("route-map RM permit 10\n").unwrap();
    let mut space = RouteSpace::new(&[&a, &b]).unwrap();
    let diffs = compare_route_policies(&mut space, &a, "RM", &b, "RM", 2).unwrap();
    assert!(!diffs.is_empty());
    let d = &diffs[0];
    assert!(d.a.route().unwrap().communities.contains(&com("65000:1")));
    assert!(!d.b.route().unwrap().communities.contains(&com("65000:1")));
}

#[test]
fn deny_by_different_stanzas_is_not_a_difference() {
    let a = Config::parse("route-map RM deny 10\n match local-preference 300\n").unwrap();
    let b = Config::parse("route-map RM deny 10\n match metric 5\n").unwrap();
    // Both deny everything (explicitly or implicitly): equivalent.
    let mut space = RouteSpace::new(&[&a, &b]).unwrap();
    assert!(policies_equivalent(&mut space, &a, "RM", &b, "RM").unwrap());
}

#[test]
fn value_too_large_is_reported() {
    let cfg = Config::parse("route-map RM permit 10\n match local-preference 100000\n").unwrap();
    let mut space = RouteSpace::new(&[&cfg]).unwrap();
    let err = permit_set(&mut space, &cfg, "RM").unwrap_err();
    assert!(matches!(err, AnalysisError::ValueTooLarge { .. }));
}

#[test]
fn route_map_overlap_census_on_paper_example() {
    // After inserting the snippet at the top (Figure 2a), the new stanza
    // overlaps the lp-300 stanza? No: the snippet has no lp constraint, so
    // a route with community 300:3, prefix in range, lp 300 matches both.
    let base = Config::parse(ISP_OUT).unwrap();
    let snip = Config::parse(SNIPPET).unwrap();
    let (cfg, _) = insert_route_map_stanza(&base, "ISP_OUT", &snip, "SET_METRIC", 0).unwrap();
    let mut space = RouteSpace::new(&[&cfg]).unwrap();
    let rm = cfg.route_map("ISP_OUT").unwrap().clone();
    let report = overlaps(&mut space, &cfg, &rm).unwrap();
    // New stanza (0) overlaps the as-path deny (1)? The snippet does not
    // constrain as-path, so yes. It is disjoint from the D1 deny (2).
    let pairs: Vec<(usize, usize)> = report.pairs.iter().map(|p| (p.i, p.j)).collect();
    assert!(pairs.contains(&(0, 1)), "{pairs:?}");
    assert!(!pairs.contains(&(0, 2)), "{pairs:?}");
    assert!(pairs.contains(&(0, 3)), "{pairs:?}");
    // Conflict flags: stanza 0 permits, stanza 1 denies.
    assert!(
        report
            .pairs
            .iter()
            .find(|p| (p.i, p.j) == (0, 1))
            .unwrap()
            .conflicting
    );
}

#[test]
fn acl_overlap_interval_and_symbolic_agree() {
    let text = "\
ip access-list extended EDGE
 permit tcp host 1.1.1.1 host 2.2.2.2 eq 443
 deny ip 10.0.0.0/8 any
 permit udp any eq 53 any
 deny tcp any any range 8000 8100
 permit ip any any
 deny udp 10.0.0.0/8 any eq 53
";
    let cfg = Config::parse(text).unwrap();
    let acl = cfg.acl("EDGE").unwrap();
    let fast = acl_overlaps(acl);
    let mut space = PacketSpace::new();
    let slow = overlaps(&mut space, &cfg, acl).unwrap();
    assert_eq!(fast.num_rules, slow.num_rules);
    let f: Vec<_> = fast
        .pairs
        .iter()
        .map(|p| (p.i, p.j, p.conflicting))
        .collect();
    let s: Vec<_> = slow
        .pairs
        .iter()
        .map(|p| (p.i, p.j, p.conflicting))
        .collect();
    assert_eq!(f, s);
}

#[test]
fn acl_overlap_subset_flag() {
    let text = "\
ip access-list extended A
 permit tcp host 1.1.1.1 host 2.2.2.2
 deny ip any any
";
    let cfg = Config::parse(text).unwrap();
    let report = acl_overlaps(cfg.acl("A").unwrap());
    assert_eq!(report.count(), 1);
    assert!(report.pairs[0].conflicting);
    assert!(report.pairs[0].subset, "host pair is a subset of any/any");
    assert_eq!(report.nontrivial_conflict_count(), 0);
}

#[test]
fn acl_no_overlap_when_disjoint() {
    let text = "\
ip access-list extended A
 permit tcp 10.0.0.0/8 any eq 80
 deny tcp 20.0.0.0/8 any eq 80
 permit udp 10.0.0.0/8 any eq 80
";
    let cfg = Config::parse(text).unwrap();
    let report = acl_overlaps(cfg.acl("A").unwrap());
    assert_eq!(report.count(), 0);
}

#[test]
fn search_filters_finds_packets() {
    let text = "\
ip access-list extended EDGE
 deny tcp any any eq 22
 permit tcp 10.0.0.0/8 any
";
    let cfg = Config::parse(text).unwrap();
    let acl = cfg.acl("EDGE").unwrap();
    let mut space = PacketSpace::new();
    let p = search(&mut space, &cfg, acl, Action::Permit, None)
        .unwrap()
        .expect("permitted packet exists");
    assert_eq!(cfg.eval_acl("EDGE", &p).unwrap().action, Action::Permit);
    assert!(pfx("10.0.0.0/8").contains_addr(p.src_ip));
    assert_ne!(p.dst_port, 22);

    // Constrained search: a denied packet destined to port 22.
    let c = {
        let dport: clarify_nettypes::PortRange = clarify_nettypes::PortRange::eq(22);
        let entry = clarify_netconfig::AclEntry {
            action: Action::Permit,
            protocol: Protocol::Tcp,
            src: clarify_netconfig::AddrMatch::Any,
            src_ports: clarify_nettypes::PortRange::ANY,
            dst: clarify_netconfig::AddrMatch::Any,
            dst_ports: dport,
        };
        space.encode_entry(&entry)
    };
    let p = search(&mut space, &cfg, acl, Action::Deny, Some(c))
        .unwrap()
        .expect("denied :22 packet exists");
    assert_eq!(p.dst_port, 22);
    assert_eq!(cfg.eval_acl("EDGE", &p).unwrap().action, Action::Deny);
}

#[test]
fn packet_space_point_membership() {
    let text = "ip access-list extended A\n permit tcp 10.0.0.0/8 any eq 80\n";
    let cfg = Config::parse(text).unwrap();
    let mut space = PacketSpace::new();
    let permit = cfg.acl("A").unwrap().permit_set(&mut space, &cfg).unwrap();
    let inside = Packet::tcp(Ipv4Addr::new(10, 1, 1, 1), 9, Ipv4Addr::new(2, 2, 2, 2), 80);
    let outside = Packet::tcp(Ipv4Addr::new(11, 1, 1, 1), 9, Ipv4Addr::new(2, 2, 2, 2), 80);
    let pi = space.encode_packet(&inside);
    let po = space.encode_packet(&outside);
    assert!(space.manager().implies_true(pi, permit));
    assert!(!space.manager().implies_true(po, permit));
}

#[test]
fn spec_verification_accepts_correct_snippet() {
    let snip = Config::parse(SNIPPET).unwrap();
    let spec = StanzaSpec {
        permit: true,
        prefixes: vec!["100.0.0.0/16 le 23".parse().unwrap()],
        communities: vec!["_300:3_".to_string()],
        sets: vec![RouteMapSet::Metric(55)],
        ..Default::default()
    };
    assert_eq!(
        verify_stanza_against_spec(&snip, "SET_METRIC", &spec).unwrap(),
        SpecVerdict::Verified
    );
}

#[test]
fn spec_verification_rejects_wrong_match() {
    let snip = Config::parse(SNIPPET).unwrap();
    let spec = StanzaSpec {
        permit: true,
        prefixes: vec!["100.0.0.0/16 le 22".parse().unwrap()], // 22, not 23
        communities: vec!["_300:3_".to_string()],
        sets: vec![RouteMapSet::Metric(55)],
        ..Default::default()
    };
    match verify_stanza_against_spec(&snip, "SET_METRIC", &spec).unwrap() {
        SpecVerdict::MatchMismatch {
            witness,
            stanza_matches,
        } => {
            assert!(stanza_matches, "stanza matches /23, spec does not");
            assert_eq!(witness.network.len(), 23);
        }
        other => panic!("expected MatchMismatch, got {other:?}"),
    }
}

#[test]
fn spec_verification_rejects_wrong_sets_and_action() {
    let snip = Config::parse(SNIPPET).unwrap();
    let mut spec = StanzaSpec {
        permit: true,
        prefixes: vec!["100.0.0.0/16 le 23".parse().unwrap()],
        communities: vec!["_300:3_".to_string()],
        sets: vec![RouteMapSet::Metric(66)],
        ..Default::default()
    };
    assert_eq!(
        verify_stanza_against_spec(&snip, "SET_METRIC", &spec).unwrap(),
        SpecVerdict::SetMismatch
    );
    spec.permit = false;
    assert_eq!(
        verify_stanza_against_spec(&snip, "SET_METRIC", &spec).unwrap(),
        SpecVerdict::ActionMismatch
    );
}

#[test]
fn spec_json_rendering_matches_paper_shape() {
    let spec = StanzaSpec {
        permit: true,
        prefixes: vec!["100.0.0.0/16 ge 16 le 23".parse().unwrap()],
        communities: vec!["_300:3_".to_string()],
        sets: vec![RouteMapSet::Metric(55)],
        ..Default::default()
    };
    let json = spec.to_json();
    assert!(json.contains("\"permit\": true"), "{json}");
    assert!(
        json.contains("\"prefix\": [\"100.0.0.0/16:16-23\"]"),
        "{json}"
    );
    assert!(json.contains("\"community\": \"/_300:3_/\""), "{json}");
    assert!(json.contains("\"set\": {\"metric\": 55}"), "{json}");

    // A regex escape (`\:` is valid Cisco syntax) is escaped in the JSON.
    let spec = StanzaSpec {
        communities: vec![r"_300\:3_".to_string()],
        ..Default::default()
    };
    let json = spec.to_json();
    clarify_obs::json::parse(&json).unwrap_or_else(|e| panic!("{e}: {json}"));
    assert!(json.contains(r#""community": "/_300\\:3_/""#), "{json}");
}

/// The community universe admits halves up to 99999. An atom that holds
/// only values past 65535 holds no community: no valid route is in it.
#[test]
fn community_atom_past_65535_holds_no_route() {
    let cfg = Config::parse(
        "ip community-list expanded BIG permit _7[0-9][0-9][0-9][0-9]:1_\n\
         route-map RM permit 10\n match community BIG\n",
    )
    .unwrap();
    let mut empty = cfg.clone();
    empty.route_maps.insert(
        "RM".to_string(),
        RouteMap {
            name: "RM".to_string(),
            stanzas: Vec::new(),
        },
    );
    let mut space = RouteSpace::new(&[&cfg]).unwrap();
    let equivalent = policies_equivalent(&mut space, &cfg, "RM", &empty, "RM");
    assert!(matches!(equivalent, Ok(true)), "{equivalent:?}");
}

/// An atom whose shortest string is past 65535 but that holds a community
/// decodes to one it holds.
#[test]
fn community_atom_witness_is_a_community_it_holds() {
    let cfg = Config::parse(
        "ip community-list expanded MIXED permit _(99999:1|65535:12)_\n\
         route-map RM permit 10\n match community MIXED\n",
    )
    .unwrap();
    let mut space = RouteSpace::new(&[&cfg]).unwrap();
    let map = cfg.route_map("RM").unwrap();
    let route = search(&mut space, &cfg, map, Action::Permit, None).unwrap();
    let communities = route.expect("the stanza permits a route").communities;
    assert_eq!(
        communities.into_iter().collect::<Vec<_>>(),
        [com("65535:12")]
    );
}

mod properties {
    use super::*;
    use clarify_testkit::{gens, prop_assert, prop_assert_eq, property, Rng, Source};

    fn arb_route(g: &mut Source) -> BgpRoute {
        let addr = g.gen_range(0u32..=u32::MAX);
        let len = g.gen_range(0u8..=32);
        let path = g.pick(&[
            vec![],
            vec![32u32],
            vec![10, 32],
            vec![32, 10],
            vec![7, 8, 9],
        ]);
        let comms = g.pick(&[
            vec![],
            vec!["300:3"],
            vec!["300:4", "300:3"],
            vec!["65000:9"],
        ]);
        let lp = g.pick(&[100u32, 300, 55]);
        let metric = g.gen_range(0u32..1024);
        let mut r = BgpRoute::with_defaults(Prefix::from_u32(addr, len))
            .path(&path)
            .lp(lp)
            .med(metric);
        for c in comms {
            r = r.community(c.parse().unwrap());
        }
        r
    }

    property! {
        /// The symbolic permit set agrees with the concrete evaluator on
        /// arbitrary routes for the paper's configs (both policies).
        fn symbolic_matches_concrete(r in arb_route) cases 64 {
            let base = Config::parse(ISP_OUT).unwrap();
            let snip = Config::parse(SNIPPET).unwrap();
            let mut space = RouteSpace::new(&[&base, &snip]).unwrap();
            for (cfg, map) in [(&base, "ISP_OUT"), (&snip, "SET_METRIC")] {
                let permits = permit_set(&mut space, cfg, map).unwrap();
                let point = space.encode_route(&r).unwrap();
                let sym = space.manager().implies_true(point, permits);
                let conc = cfg.eval_route_map(map, &r).unwrap().is_permit();
                prop_assert_eq!(sym, conc, "map {} route {:?}", map, r);
            }
        }

        /// compare_route_policies never reports a non-difference.
        fn diffs_are_real(pos_a in gens::ints(0usize..=3), pos_b in gens::ints(0usize..=3)) cases 64 {
            let base = Config::parse(ISP_OUT).unwrap();
            let snip = Config::parse(SNIPPET).unwrap();
            let (ca, _) = insert_route_map_stanza(&base, "ISP_OUT", &snip, "SET_METRIC", pos_a).unwrap();
            let (cb, _) = insert_route_map_stanza(&base, "ISP_OUT", &snip, "SET_METRIC", pos_b).unwrap();
            let mut space = RouteSpace::new(&[&ca, &cb]).unwrap();
            let diffs = compare_route_policies(&mut space, &ca, "ISP_OUT", &cb, "ISP_OUT", 16).unwrap();
            for d in &diffs {
                let va = ca.eval_route_map("ISP_OUT", &d.route).unwrap();
                let vb = cb.eval_route_map("ISP_OUT", &d.route).unwrap();
                prop_assert_eq!(&va, &d.a);
                prop_assert_eq!(&vb, &d.b);
                prop_assert!(!va.same_behaviour(&vb), "reported diff is not a diff: {:?}", d);
            }
            if pos_a == pos_b {
                prop_assert!(diffs.is_empty());
            }
        }

        /// Interval and symbolic ACL overlap analyses agree on random ACLs.
        fn acl_overlap_agreement(seed in gens::ints(0u64..200)) cases 64 {
            // Deterministic pseudo-random ACL from the seed.
            let mut x = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
            let mut next = || { x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407); (x >> 33) as u32 };
            let mut text = String::from("ip access-list extended R\n");
            for _ in 0..6 {
                let action = if next() % 2 == 0 { "permit" } else { "deny" };
                let proto = ["ip", "tcp", "udp"][(next() % 3) as usize];
                let src = match next() % 3 {
                    0 => "any".to_string(),
                    1 => format!("10.{}.0.0/16", next() % 4),
                    _ => format!("host 10.0.0.{}", next() % 4),
                };
                let dst = match next() % 2 {
                    0 => "any".to_string(),
                    _ => format!("20.{}.0.0/16", next() % 2),
                };
                let ports = if proto == "ip" { String::new() } else {
                    match next() % 3 {
                        0 => String::new(),
                        1 => format!(" eq {}", 20 + next() % 100),
                        _ => { let lo = next() % 1000; format!(" range {} {}", lo, lo + next() % 1000) }
                    }
                };
                text.push_str(&format!(" {action} {proto} {src} {dst}{ports}\n"));
            }
            let cfg = Config::parse(&text).unwrap();
            let acl = cfg.acl("R").unwrap();
            let fast = acl_overlaps(acl);
            let mut space = PacketSpace::new();
            let slow = overlaps(&mut space, &cfg, acl).unwrap();
            let f: Vec<_> = fast.pairs.iter().map(|p| (p.i, p.j, p.conflicting, p.subset)).collect();
            let s: Vec<_> = slow.pairs.iter().map(|p| (p.i, p.j, p.conflicting, p.subset)).collect();
            prop_assert_eq!(f, s, "ACL:\n{}", text);
        }
    }
}

mod filter_compare_tests {
    use super::*;
    use crate::{
        compare_filters, compare_prefix_lists, filters_equivalent, prefix_lists_equivalent,
        PrefixSpace,
    };
    use clarify_netconfig::PrefixList;

    fn acl(text: &str) -> clarify_netconfig::Acl {
        Config::parse(text)
            .unwrap()
            .acls
            .values()
            .next()
            .unwrap()
            .clone()
    }

    #[test]
    fn compare_filters_finds_real_packets() {
        let a = acl("ip access-list extended A\n permit tcp any any eq 80\n");
        let b = acl("ip access-list extended B\n permit tcp any any range 80 81\n");
        let mut space = PacketSpace::new();
        let diffs = compare_filters(&mut space, &a, &b, 4).unwrap();
        assert!(!diffs.is_empty());
        for d in &diffs {
            assert_eq!(d.packet.dst_port, 81, "only :81 differs");
            assert_ne!(d.a.action, d.b.action);
        }
    }

    #[test]
    fn compare_filters_equivalent_acls() {
        // Same language, different syntax: host form vs /32 prefix form.
        let a = acl("ip access-list extended A\n permit tcp host 1.1.1.1 any\n");
        let b = acl("ip access-list extended B\n permit tcp 1.1.1.1/32 any\n");
        let mut space = PacketSpace::new();
        assert!(filters_equivalent(&mut space, &a, &b));
    }

    #[test]
    fn compare_filters_yields_distinct_witnesses() {
        let a = acl("ip access-list extended A\n permit udp any any\n");
        let b = acl("ip access-list extended B\n deny ip any any\n");
        let mut space = PacketSpace::new();
        let diffs = compare_filters(&mut space, &a, &b, 5).unwrap();
        assert_eq!(diffs.len(), 5);
        let mut seen: Vec<_> = diffs.iter().map(|d| d.packet).collect();
        seen.dedup();
        assert_eq!(seen.len(), 5, "witnesses are pairwise distinct");
    }

    /// A one-witness ACL compare builds only the two permit sets, their
    /// XOR and the witness search: it never encodes and excludes the point
    /// of its last witness.
    #[test]
    fn one_witness_filter_compare_builds_no_exclusion() {
        let a =
            acl("ip access-list extended A\n permit tcp 10.0.0.0/8 any eq 80\n deny ip any any\n");
        let b = acl("ip access-list extended B\n permit tcp 10.0.0.0/8 any range 80 81\n");
        let mut space = PacketSpace::new();
        let diffs = compare_filters(&mut space, &a, &b, 1).unwrap();

        let mut reference = PacketSpace::new();
        let cfg = Config::new();
        let pa = a.permit_set(&mut reference, &cfg).unwrap();
        let pb = b.permit_set(&mut reference, &cfg).unwrap();
        let region = reference.manager().xor(pa, pb);
        let packet = reference.witness(region).expect("the ACLs differ");

        assert_eq!(diffs.len(), 1);
        assert_eq!(diffs[0].packet, packet);
        assert_eq!(
            space.manager().stats().nodes,
            reference.manager().stats().nodes
        );
    }

    /// The same for prefix lists.
    #[test]
    fn one_witness_prefix_list_compare_builds_no_exclusion() {
        let a = plist("ip prefix-list A seq 5 permit 10.0.0.0/8 le 24\n");
        let b = plist("ip prefix-list B seq 5 permit 10.0.0.0/8 le 23\n");
        let mut space = PrefixSpace::new();
        let diffs = compare_prefix_lists(&mut space, &a, &b, 1).unwrap();

        let mut reference = PrefixSpace::new();
        let cfg = Config::new();
        let pa = a.permit_set(&mut reference, &cfg).unwrap();
        let pb = b.permit_set(&mut reference, &cfg).unwrap();
        let region = reference.manager().xor(pa, pb);
        let prefix = reference.witness(region).expect("the lists differ");

        assert_eq!(diffs.len(), 1);
        assert_eq!(diffs[0].prefix, prefix);
        assert_eq!(
            space.manager().stats().nodes,
            reference.manager().stats().nodes
        );
    }

    fn plist(text: &str) -> PrefixList {
        Config::parse(text)
            .unwrap()
            .prefix_lists
            .values()
            .next()
            .unwrap()
            .clone()
    }

    #[test]
    fn prefix_space_matches_concrete_semantics() {
        let pl = plist(
            "ip prefix-list P seq 5 deny 10.1.0.0/16 le 24\nip prefix-list P seq 10 permit 10.0.0.0/8 le 32\n",
        );
        let mut space = PrefixSpace::new();
        let permit = pl.permit_set(&mut space, &Config::new()).unwrap();
        for p in [
            "10.1.0.0/16",
            "10.1.2.0/24",
            "10.1.2.0/25",
            "10.2.0.0/16",
            "11.0.0.0/8",
        ] {
            let prefix: Prefix = p.parse().unwrap();
            let point = space.encode_prefix(&prefix);
            let sym = space.manager().implies_true(point, permit);
            assert_eq!(sym, pl.permits(&prefix), "{p}");
        }
    }

    #[test]
    fn compare_prefix_lists_finds_differences() {
        let a = plist("ip prefix-list A seq 5 permit 10.0.0.0/8 le 24\n");
        let b = plist("ip prefix-list B seq 5 permit 10.0.0.0/8 le 23\n");
        let mut space = PrefixSpace::new();
        let diffs = compare_prefix_lists(&mut space, &a, &b, 3).unwrap();
        assert!(!diffs.is_empty());
        for d in &diffs {
            assert_eq!(d.prefix.len(), 24, "only /24s differ");
            assert!(d.a_permits && !d.b_permits);
        }
    }

    #[test]
    fn prefix_lists_equivalence() {
        let a = plist("ip prefix-list A seq 5 permit 10.0.0.0/8 le 32\n");
        let b = plist(
            "ip prefix-list B seq 5 permit 10.0.0.0/9 le 32\nip prefix-list B seq 10 permit 10.128.0.0/9 le 32\n",
        );
        let mut space = PrefixSpace::new();
        assert!(
            !prefix_lists_equivalent(&mut space, &a, &b).unwrap(),
            "10.0.0.0/8 itself is permitted by A only"
        );
        let c = plist(
            "ip prefix-list C seq 5 permit 10.0.0.0/9 le 32\nip prefix-list C seq 10 permit 10.128.0.0/9 le 32\nip prefix-list C seq 15 permit 10.0.0.0/8\n",
        );
        assert!(prefix_lists_equivalent(&mut space, &b, &c).is_ok());
        assert!(prefix_lists_equivalent(&mut space, &c, &c).unwrap());
    }
}

mod output_search_tests {
    use super::*;
    use crate::OutputConstraints;

    #[test]
    fn output_metric_constraint_finds_set_stanza() {
        let base = Config::parse(ISP_OUT).unwrap();
        let snip = Config::parse(SNIPPET).unwrap();
        let (cfg, _) = insert_route_map_stanza(&base, "ISP_OUT", &snip, "SET_METRIC", 0).unwrap();
        let mut space = RouteSpace::new(&[&cfg]).unwrap();
        // Require the input metric to differ so the pass-through lp-300
        // stanza cannot supply the witness: only the new set-metric stanza
        // can produce an output of 55 from an input of 0.
        let input_metric_0 = {
            use clarify_netconfig::RouteMapMatch;
            space
                .encode_match(&Config::new(), &RouteMapMatch::Metric(0))
                .unwrap()
        };
        let (input, output) = space
            .search_route_policies_out(
                &cfg,
                "ISP_OUT",
                Some(input_metric_0),
                &OutputConstraints {
                    metric: Some(55),
                    ..Default::default()
                },
            )
            .unwrap()
            .expect("a route leaves with metric 55");
        assert_eq!(output.metric, 55);
        assert_eq!(input.metric, 0);
        assert!(pfx("100.0.0.0/16").covers(&input.network), "{input:?}");
        assert!(input.communities.contains(&com("300:3")));
    }

    #[test]
    fn output_constraint_via_passthrough_field() {
        // The lp-300 stanza sets nothing: the output metric equals the
        // input metric, so asking for output metric 7 constrains the input.
        let base = Config::parse(ISP_OUT).unwrap();
        let mut space = RouteSpace::new(&[&base]).unwrap();
        let (input, output) = space
            .search_route_policies_out(
                &base,
                "ISP_OUT",
                None,
                &OutputConstraints {
                    metric: Some(7),
                    local_pref: Some(300),
                    ..Default::default()
                },
            )
            .unwrap()
            .expect("satisfiable");
        assert_eq!(input.metric, 7);
        assert_eq!(output.metric, 7);
        assert_eq!(output.local_pref, 300);
    }

    #[test]
    fn impossible_output_constraint_returns_none() {
        let base = Config::parse(ISP_OUT).unwrap();
        let snip = Config::parse(SNIPPET).unwrap();
        let (cfg, _) = insert_route_map_stanza(&base, "ISP_OUT", &snip, "SET_METRIC", 0).unwrap();
        let mut space = RouteSpace::new(&[&cfg]).unwrap();
        // Output metric 77 never occurs: the only metric-setting stanza
        // sets 55, and the lp-300 stanza requires... metric 77 IS possible
        // via passthrough there. Ask for an impossible combination instead:
        // metric 55 AND local-pref 42 (the snippet leaves lp at the input
        // value, so this needs an input with lp 42 — which is fine), so
        // tighten to a truly impossible one: set metric 55 and tag 9999
        // with an input constrained to tag 0.
        let tag0 = {
            use clarify_netconfig::RouteMapMatch;
            space
                .encode_match(&Config::new(), &RouteMapMatch::Tag(0))
                .unwrap()
        };
        let r = space
            .search_route_policies_out(
                &cfg,
                "ISP_OUT",
                Some(tag0),
                &OutputConstraints {
                    tag: Some(9999),
                    ..Default::default()
                },
            )
            .unwrap();
        assert!(r.is_none(), "{r:?}");
    }
}

mod chain_overlap_tests {
    use super::*;
    use crate::route_map_chain_overlaps;

    #[test]
    fn cross_map_overlaps_detected() {
        // Two maps applied in sequence to the same neighbor: IMPORT_A
        // denies a block; IMPORT_B permits a sub-block of it — a
        // cross-map conflicting overlap invisible to per-map analysis.
        let cfg = Config::parse(
            "ip prefix-list WIDE seq 5 permit 10.0.0.0/8 le 32\n\
             ip prefix-list NARROW seq 5 permit 10.7.0.0/16 le 32\n\
             ip prefix-list OTHER seq 5 permit 20.0.0.0/8 le 32\n\
             route-map IMPORT_A deny 10\n match ip address prefix-list WIDE\n\
             route-map IMPORT_A permit 20\n match ip address prefix-list OTHER\n\
             route-map IMPORT_B permit 10\n match ip address prefix-list NARROW\n",
        )
        .unwrap();
        let a = cfg.route_map("IMPORT_A").unwrap().clone();
        let b = cfg.route_map("IMPORT_B").unwrap().clone();
        let mut space = RouteSpace::new(&[&cfg]).unwrap();
        let pairs = route_map_chain_overlaps(&mut space, &cfg, &[&a, &b]).unwrap();
        // Intra-map: A's two stanzas are disjoint. Cross-map: A.0 (deny
        // 10/8) overlaps B.0 (permit 10.7/16) and conflicts.
        assert_eq!(pairs.len(), 1, "{pairs:?}");
        let p = pairs[0];
        assert_eq!((p.map_i, p.stanza_i, p.map_j, p.stanza_j), (0, 0, 1, 0));
        assert!(p.conflicting);
    }

    #[test]
    fn chain_includes_intra_map_pairs() {
        let cfg = Config::parse(
            "ip prefix-list WIDE seq 5 permit 10.0.0.0/8 le 32\n\
             ip prefix-list NARROW seq 5 permit 10.7.0.0/16 le 32\n\
             route-map RM deny 10\n match ip address prefix-list WIDE\n\
             route-map RM permit 20\n match ip address prefix-list NARROW\n",
        )
        .unwrap();
        let rm = cfg.route_map("RM").unwrap().clone();
        let mut space = RouteSpace::new(&[&cfg]).unwrap();
        let pairs = route_map_chain_overlaps(&mut space, &cfg, &[&rm]).unwrap();
        assert_eq!(pairs.len(), 1);
        assert_eq!(pairs[0].map_i, pairs[0].map_j);
        // And it agrees with the single-map census.
        let single = overlaps(&mut space, &cfg, &rm).unwrap();
        assert_eq!(single.count(), pairs.len());
    }
}

#[test]
fn witness_enumeration_yields_distinct_routes() {
    let base = Config::parse(ISP_OUT).unwrap();
    let mut space = RouteSpace::new(&[&base]).unwrap();
    let permits = permit_set(&mut space, &base, "ISP_OUT").unwrap();
    let routes = witnesses::<RouteMap>(&mut space, permits, 5).unwrap();
    assert_eq!(routes.len(), 5);
    for (i, r) in routes.iter().enumerate() {
        assert!(
            base.eval_route_map("ISP_OUT", r).unwrap().is_permit(),
            "#{i}"
        );
        for s in &routes[i + 1..] {
            assert_ne!(r, s, "witnesses are pairwise distinct");
        }
    }
    // A region with exactly one point yields exactly one witness.
    let r = BgpRoute::with_defaults(pfx("99.0.0.0/16")).lp(300);
    let point = space.encode_route(&r).unwrap();
    let one = witnesses::<RouteMap>(&mut space, point, 10).unwrap();
    assert_eq!(one.len(), 1);
    assert_eq!(one[0], r);
}

#[test]
fn witness_exclusion_covers_decoded_class() {
    // Regression: a region whose prefix bits beyond plen are free used to
    // yield the same decoded route repeatedly; exclusion must remove the
    // whole equivalence class, so this one-route region is exhausted after
    // a single witness.
    let cfg = Config::parse(
        "ip prefix-list P seq 5 permit 10.0.0.0/8\nroute-map RM permit 10\n match ip address prefix-list P\n match local-preference 100\n match metric 0\n match tag 0\n",
    )
    .unwrap();
    let mut space = RouteSpace::new(&[&cfg]).unwrap();
    let region = permit_set(&mut space, &cfg, "RM").unwrap();
    let routes = witnesses::<RouteMap>(&mut space, region, 10).unwrap();
    // The region fixes prefix, lp, metric, and tag; only the community
    // dimension remains (one atom, so with/without a community): exactly
    // two distinct routes, where the pre-fix exclusion produced ten
    // copies of the first.
    assert_eq!(routes.len(), 2, "{routes:?}");
    assert_ne!(routes[0], routes[1]);
    for r in &routes {
        assert_eq!(r.network, pfx("10.0.0.0/8"));
    }
}

#[test]
fn prefix_space_witness_exclusion_covers_class() {
    use crate::{compare_prefix_lists, PrefixSpace};
    use clarify_netconfig::PrefixList;
    let a: PrefixList = Config::parse("ip prefix-list A seq 5 permit 10.0.0.0/8\n")
        .unwrap()
        .prefix_lists["A"]
        .clone();
    let b = PrefixList {
        name: "B".into(),
        entries: Vec::new(),
    };
    let mut space = PrefixSpace::new();
    // The lists differ on exactly one prefix (10.0.0.0/8 itself); asking
    // for up to 5 diffs must return exactly one, not duplicates.
    let diffs = compare_prefix_lists(&mut space, &a, &b, 5).unwrap();
    assert_eq!(diffs.len(), 1, "{diffs:?}");
    assert_eq!(diffs[0].prefix, pfx("10.0.0.0/8"));
}

#[test]
fn compare_handles_out_of_space_set_values() {
    // `set local-preference 100000` exceeds the 16-bit symbolic field; the
    // comparator must still work (every input differs) instead of erroring.
    let a = Config::parse("route-map RM permit 10\n set local-preference 100000\n").unwrap();
    let b = Config::parse("route-map RM permit 10\n").unwrap();
    let mut space = RouteSpace::new(&[&a, &b]).unwrap();
    let diffs = compare_route_policies(&mut space, &a, "RM", &b, "RM", 2).unwrap();
    assert!(!diffs.is_empty());
    assert_eq!(diffs[0].a.route().unwrap().local_pref, 100000);
}

#[test]
fn community_add_vs_replace_detected_without_community_lists() {
    // Regression (found in review): with no community lists anywhere, the
    // symbolic space has no community atoms, witnesses carry no
    // communities, and `set community c additive` vs plain `set community
    // c` coincide on every extracted witness — the difference was silently
    // dropped and the policies declared equivalent.
    let a = Config::parse("route-map RM permit 10\n set community 100:1 additive\n").unwrap();
    let b = Config::parse("route-map RM permit 10\n set community 100:1\n").unwrap();
    let mut space = RouteSpace::new(&[&a, &b]).unwrap();
    assert!(
        !policies_equivalent(&mut space, &a, "RM", &b, "RM").unwrap(),
        "additive and replace differ on routes carrying other communities"
    );
    let diffs = compare_route_policies(&mut space, &a, "RM", &b, "RM", 2).unwrap();
    let d = &diffs[0];
    // The witness carries some community the clauses do not mention, which
    // additive keeps and replace strips.
    let ra = d.a.route().unwrap();
    let rb = d.b.route().unwrap();
    assert!(ra.communities.len() > rb.communities.len(), "{d:?}");
}

const TRANSFER_CFG: &str = "\
ip prefix-list HIDE seq 5 permit 10.1.128.0/17 le 32
ip prefix-list SVC seq 5 permit 10.1.0.0/16 le 24
route-map XFER deny 10
 match ip address prefix-list HIDE
route-map XFER permit 20
 match ip address prefix-list SVC
 set local-preference 300
 set community 100:1 additive
route-map LASTWINS permit 10
 set metric 5
 set metric 7
";

#[test]
fn transfer_applies_sets_and_respects_first_match() {
    let cfg = Config::parse(TRANSFER_CFG).unwrap();
    let mut ns = crate::NetworkSpace::new(&[&cfg]).unwrap();
    let map = cfg.route_map("XFER").unwrap().clone();
    let valid = ns.valid();
    let out = ns.transfer(&cfg, &map, 1, valid).unwrap();
    // Every emerging route has LOCAL_PREF 300 and carries 100:1.
    let w = ns.space_mut().witness(out).unwrap().unwrap();
    assert_eq!(w.local_pref, 300);
    // No community list distinguishes 100:1, so it lands in the one
    // catch-all atom: the decoded witness carries *some* community.
    assert!(!w.communities.is_empty(), "{w}");
    // Nothing from the denied HIDE region leaks through: the output
    // region contains no /17-or-longer 10.1.128.0/17 route.
    let hidden = ns
        .space_mut()
        .encode_prefix_range(&"10.1.128.0/17 ge 17".parse().unwrap());
    let leak = ns.space_mut().manager().and(out, hidden);
    assert_eq!(leak, Ref::FALSE);
    // Transfer of an empty input is empty (monotone at the bottom).
    let none = ns.transfer(&cfg, &map, 1, Ref::FALSE).unwrap();
    assert_eq!(none, Ref::FALSE);
}

#[test]
fn transfer_last_write_wins_and_cross_as_normalizes() {
    let cfg = Config::parse(TRANSFER_CFG).unwrap();
    let mut ns = crate::NetworkSpace::new(&[&cfg]).unwrap();
    let map = cfg.route_map("LASTWINS").unwrap().clone();
    let valid = ns.valid();
    let out = ns.transfer(&cfg, &map, 2, valid).unwrap();
    let w = ns.space_mut().witness(out).unwrap().unwrap();
    assert_eq!(w.metric, 7);
    // Agreement with the concrete evaluator on the same route-map.
    let route = BgpRoute::with_defaults(pfx("10.9.0.0/16"));
    let v = cfg.eval_route_map("LASTWINS", &route).unwrap();
    assert_eq!(v.route().unwrap().metric, 7);
    // Cross-AS normalization pins LOCAL_PREF back to 100.
    let xfer = cfg.route_map("XFER").unwrap().clone();
    let lp300 = ns.transfer(&cfg, &xfer, 1, valid).unwrap();
    let normalized = ns.cross_as_normalize(lp300);
    let w = ns.space_mut().witness(normalized).unwrap().unwrap();
    assert_eq!(w.local_pref, 100);
    assert!(!w.communities.is_empty(), "{w}");
}

/// A `set` value past a field's 16 bits is carried by no encoded route:
/// the transfer forgets the field instead of failing the whole analysis.
#[test]
fn transfer_forgets_a_set_value_past_16_bits() {
    let cfg = Config::parse("route-map WIDE permit 10\n set metric 70000\n").unwrap();
    let mut ns = crate::NetworkSpace::new(&[&cfg]).unwrap();
    let map = cfg.route_map("WIDE").unwrap();
    let valid = ns.valid();
    assert_eq!(ns.transfer(&cfg, map, 0, valid).unwrap(), valid);
}

#[test]
fn origination_region_is_exact_points() {
    let cfg = Config::parse(TRANSFER_CFG).unwrap();
    let mut ns = crate::NetworkSpace::new(&[&cfg]).unwrap();
    let origin = ns
        .origination_region(&[pfx("10.1.0.0/16"), pfx("203.0.113.0/24")])
        .unwrap();
    let all = witnesses::<RouteMap>(ns.space_mut(), origin, 8).unwrap();
    assert_eq!(all.len(), 2);
    for r in &all {
        assert_eq!(r.local_pref, 100);
        assert!(r.communities.is_empty());
        assert!(r.as_path.is_empty());
    }
}

mod set_effect_tests {
    use super::*;
    use crate::effect::SetEffect;
    use crate::NetworkSpace;
    use clarify_netconfig::RouteMapStanza;
    use clarify_testkit::{prop_assert, prop_assert_eq, property, Rng, Source};

    /// A permit stanza that matches every route and applies `sets`.
    fn stanza(sets: &[RouteMapSet]) -> RouteMapStanza {
        RouteMapStanza {
            seq: 10,
            action: Action::Permit,
            matches: Vec::new(),
            sets: sets.to_vec(),
        }
    }

    /// The reference the spec verifier used before `SetEffect`: apply both
    /// lists with [`Config::apply_sets`] to a default route and to a route
    /// with distinctive values and a community that neither list names.
    fn two_probes_agree(a: &[RouteMapSet], b: &[RouteMapSet]) -> bool {
        let mentioned: std::collections::BTreeSet<Community> = a
            .iter()
            .chain(b)
            .flat_map(|s| match s {
                RouteMapSet::CommunityAdd(cs) | RouteMapSet::CommunityReplace(cs) => cs.clone(),
                _ => Vec::new(),
            })
            .collect();
        let fresh = (0..)
            .map(|v| Community::new(65123, v))
            .find(|c| !mentioned.contains(c))
            .unwrap();
        let mut distinct = BgpRoute::with_defaults(pfx("10.0.0.0/8"));
        distinct.metric = 7777;
        distinct.local_pref = 8888;
        distinct.tag = 9999;
        distinct.weight = 1234;
        distinct.next_hop = Ipv4Addr::new(9, 9, 9, 9);
        distinct.communities.insert(fresh);
        let probes = [BgpRoute::with_defaults(pfx("10.0.0.0/8")), distinct];
        let (sa, sb) = (stanza(a), stanza(b));
        probes
            .iter()
            .all(|p| Config::apply_sets(&sa, p) == Config::apply_sets(&sb, p))
    }

    /// Up to two communities, possibly none, from a pool that includes the
    /// first fresh community the probes would pick.
    fn arb_communities(g: &mut Source) -> Vec<Community> {
        g.vec(0, 2, |g| {
            g.pick(&[com("1:1"), com("2:2"), Community::new(65123, 0)])
        })
    }

    /// One `set` clause of any kind, with values below 2^16 drawn from
    /// small pools that include the probes' values.
    fn arb_set(g: &mut Source) -> RouteMapSet {
        match g.gen_range(0u8..7) {
            0 => RouteMapSet::Metric(g.pick(&[0, 55, 7777])),
            1 => RouteMapSet::LocalPref(g.pick(&[100, 200, 8888])),
            2 => RouteMapSet::Tag(g.pick(&[0, 9, 9999])),
            3 => RouteMapSet::Weight(g.pick(&[0, 5, 1234])),
            4 => RouteMapSet::NextHop(g.pick(&[
                Ipv4Addr::new(0, 0, 0, 1),
                Ipv4Addr::new(192, 0, 2, 1),
                Ipv4Addr::new(9, 9, 9, 9),
            ])),
            5 => RouteMapSet::CommunityAdd(arb_communities(g)),
            _ => RouteMapSet::CommunityReplace(arb_communities(g)),
        }
    }

    fn arb_sets(g: &mut Source) -> Vec<RouteMapSet> {
        g.vec(0, 4, arb_set)
    }

    /// Like [`arb_sets`], but a metric, local-preference or tag clause
    /// may also write a value past 2^16, which no encoded route carries.
    fn arb_wide_sets(g: &mut Source) -> Vec<RouteMapSet> {
        g.vec(0, 4, |g| {
            let wide = g.pick(&[1 << 16, 70000, u32::MAX]);
            match g.gen_range(0u8..6) {
                0 => RouteMapSet::Metric(wide),
                1 => RouteMapSet::LocalPref(wide),
                2 => RouteMapSet::Tag(wide),
                _ => arb_set(g),
            }
        })
    }

    /// Two clause lists: either drawn independently, or the second is the
    /// first with one more clause spliced in, which often leaves the
    /// effect unchanged.
    fn arb_set_pair(g: &mut Source) -> (Vec<RouteMapSet>, Vec<RouteMapSet>) {
        let a = arb_sets(g);
        let b = if g.gen_range(0u8..2) == 0 {
            arb_sets(g)
        } else {
            let mut b = a.clone();
            let at = g.gen_range(0..=b.len());
            b.insert(at, arb_set(g));
            b
        };
        (a, b)
    }

    /// A route with values below 2^16 and communities from the pool.
    fn arb_route(g: &mut Source) -> BgpRoute {
        let mut r = BgpRoute::with_defaults(Prefix::from_u32(
            g.gen_range(0u32..=u32::MAX),
            g.gen_range(0u8..=32),
        ))
        .path(&g.pick(&[vec![], vec![32u32], vec![100, 32]]))
        .lp(g.pick(&[100, 200, 8888]))
        .med(g.pick(&[0, 55, 7777]));
        r.tag = g.pick(&[0, 9, 9999]);
        r.weight = g.pick(&[0, 5, 1234]);
        r.next_hop = g.pick(&[Ipv4Addr::new(0, 0, 0, 1), Ipv4Addr::new(9, 9, 9, 9)]);
        r.communities = arb_communities(g).into_iter().collect();
        r
    }

    /// An additive `set community` that names no community changes
    /// nothing: the two probes agree, and so do the effects.
    #[test]
    fn empty_community_add_has_no_effect() {
        let empty_add = [RouteMapSet::CommunityAdd(Vec::new())];
        assert!(two_probes_agree(&empty_add, &[]));
        assert_eq!(SetEffect::of(&empty_add), SetEffect::of(&[]));
    }

    property! {
        /// Two lists have equal effects exactly when the two-probe
        /// reference says they rewrite routes the same way.
        fn set_effect_equality_matches_two_probe_reference(pair in arb_set_pair) cases 2048 {
            let (a, b) = pair;
            prop_assert_eq!(
                SetEffect::of(&a) == SetEffect::of(&b),
                two_probes_agree(&a, &b),
                "a = {:?}, b = {:?}", a, b
            );
        }

        /// Equal effects rewrite arbitrary routes identically under the
        /// sequential reference evaluator.
        fn equal_effects_apply_identically(pair in arb_set_pair, r in arb_route) cases 512 {
            let (a, b) = pair;
            if SetEffect::of(&a) == SetEffect::of(&b) {
                prop_assert_eq!(
                    Config::apply_sets(&stanza(&a), &r),
                    Config::apply_sets(&stanza(&b), &r)
                );
            }
        }

        /// The symbolic transfer of a one-stanza permit map contains the
        /// concrete output of every route. A field set past 2^16 is
        /// forgotten, so the output with that field at 0 lies in the image.
        fn transfer_contains_concrete_output(sets in arb_wide_sets, r in arb_route) cases 128 {
            let mut cfg = Config::parse(
                "ip community-list expanded C1 permit _1:1_\n\
                 ip community-list expanded C2 permit _2:2_\n\
                 ip as-path access-list A1 permit _32$\n",
            )
            .unwrap();
            let map = RouteMap {
                name: "M".to_string(),
                stanzas: vec![stanza(&sets)],
            };
            cfg.route_maps.insert("M".to_string(), map.clone());
            let mut ns = NetworkSpace::new(&[&cfg]).unwrap();
            let valid = ns.valid();
            let image = ns.transfer(&cfg, &map, 0, valid).unwrap();
            let mut out = Config::apply_sets(&map.stanzas[0], &r);
            for v in [&mut out.metric, &mut out.local_pref, &mut out.tag] {
                if *v >= 1 << 16 {
                    *v = 0;
                }
            }
            let point = ns.space_mut().encode_route(&out).unwrap();
            prop_assert!(
                ns.space_mut().manager().implies_true(point, image),
                "sets {:?} route {:?} output {:?}", sets, r, out
            );
        }
    }
}

/// The one first-match fold against its definition, on random route-maps,
/// ACLs and prefix lists: the fires and the remainder partition `valid`,
/// the concrete evaluator decides a witness of each fire by its rule and a
/// witness of the remainder by the implicit deny, and the permit set is
/// the union of the permit rules' fires.
mod first_match_fold {
    use clarify_bdd::Ref;
    use clarify_netconfig::{Action, Config};
    use clarify_testkit::{policies, property, Source};

    use crate::{FirstMatchPolicy, PacketSpace, PrefixSpace, RouteSpace};

    /// Checks the fold over `policy`'s match sets in `space`. `decide` is
    /// the concrete evaluator: the index of the rule that decides an
    /// input, `None` for the implicit deny.
    fn check<P: FirstMatchPolicy>(
        space: &mut P::Space,
        cfg: &Config,
        policy: &P,
        decide: impl Fn(&P::Input) -> Option<usize>,
    ) {
        let matches = policy.match_sets(space, cfg).unwrap();
        let (fires, remainder) = P::fire_sets(space, &matches);
        assert_eq!(fires.len(), policy.rule_count());
        let valid = P::valid(space);
        let regions: Vec<(Option<usize>, Ref)> = (0..fires.len())
            .map(Some)
            .zip(fires.iter().copied())
            .chain([(None, remainder)])
            .collect();
        let mgr = P::manager(space);
        let mut union = Ref::FALSE;
        for (n, &(rule, region)) in regions.iter().enumerate() {
            for &(later, other) in &regions[n + 1..] {
                let joint = mgr.and(region, other);
                assert_eq!(joint, Ref::FALSE, "{rule:?} and {later:?} overlap");
            }
            union = mgr.or(union, region);
        }
        assert_eq!(union, valid, "the fires and the remainder cover valid");
        for &(rule, region) in &regions {
            if let Some(input) = P::witness(space, region).unwrap() {
                assert_eq!(decide(&input), rule, "witness {input}");
            }
        }
        let permitted = fires
            .iter()
            .enumerate()
            .filter(|&(i, _)| policy.action(i) == Action::Permit);
        let mgr = P::manager(space);
        let union = mgr.or_all(permitted.map(|(_, &fire)| fire));
        assert_eq!(policy.permit_set(space, cfg).unwrap(), union);
    }

    /// A route-map `RM` with the lists it may reference.
    fn route_map_case(g: &mut Source) -> String {
        policies::LISTS.to_string() + &policies::route_map(g, "RM", 5)
    }

    fn acl_case(g: &mut Source) -> String {
        policies::acl(g, "A", 6)
    }

    fn prefix_case(g: &mut Source) -> String {
        policies::prefix_list(g, "PL", 5)
    }

    property! {
        fn route_map_fold_matches_concrete_evaluation(text in route_map_case) cases 64 {
            let cfg = Config::parse(&text).unwrap();
            let map = &cfg.route_maps["RM"];
            let mut space = RouteSpace::new(&[&cfg]).unwrap();
            check(&mut space, &cfg, map, |route| {
                let seq = cfg.eval_route_map("RM", route).unwrap().seq()?;
                map.stanzas.iter().position(|s| s.seq == seq)
            });
        }

        fn acl_fold_matches_concrete_evaluation(text in acl_case) cases 128 {
            let cfg = Config::parse(&text).unwrap();
            let acl = &cfg.acls["A"];
            check(&mut PacketSpace::new(), &cfg, acl, |packet| acl.eval(packet).index);
        }

        fn prefix_list_fold_matches_concrete_evaluation(text in prefix_case) cases 128 {
            let cfg = Config::parse(&text).unwrap();
            let list = &cfg.prefix_lists["PL"];
            check(&mut PrefixSpace::new(), &cfg, list, |prefix| {
                list.entries.iter().position(|e| e.range.matches(prefix))
            });
        }
    }
}
