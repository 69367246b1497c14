//! The shipped sample configurations parse, validate, audit, and support
//! end-to-end interactive updates.

use clarify::analysis::{acl_overlaps, overlaps, RouteSpace};
use clarify::core::{Disambiguator, IntentOracle, PlacementStrategy};
use clarify::llm::{Pipeline, PipelineOutcome, SemanticBackend};
use clarify::netconfig::{insert_route_map_stanza, Config};

fn load(name: &str) -> Config {
    let path = format!("{}/testdata/{name}", env!("CARGO_MANIFEST_DIR"));
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
    Config::parse(&text).unwrap_or_else(|e| panic!("{path}: {e}"))
}

#[test]
fn corpus_parses_and_validates() {
    for name in ["isp_out.cfg", "edge_acl.cfg", "border_router.cfg"] {
        let cfg = load(name);
        cfg.validate().unwrap_or_else(|e| panic!("{name}: {e}"));
        // Round-trips through the canonical printer.
        let printed = cfg.to_string();
        assert_eq!(Config::parse(&printed).unwrap(), cfg, "{name}");
    }
}

#[test]
fn edge_acl_audit_findings() {
    let cfg = load("edge_acl.cfg");
    let r = acl_overlaps(cfg.acl("EDGE_IN").unwrap());
    assert_eq!(r.num_rules, 6);
    assert!(r.count() >= 10, "{}", r.count());
    assert!(r.conflict_count() >= 6);
    assert!(r.nontrivial_conflict_count() >= 3);
}

#[test]
fn border_router_audit_findings() {
    let cfg = load("border_router.cfg");
    // ISP_IN's catch-all permit overlaps (and conflicts with) the bogon deny.
    let rm = cfg.route_map("ISP_IN").unwrap().clone();
    let mut space = RouteSpace::new(&[&cfg]).unwrap();
    let r = overlaps(&mut space, &cfg, &rm).unwrap();
    assert_eq!(r.count(), 1);
    assert!(r.pairs[0].conflicting);
    // The management ACL has the classic bastion-exemption overlap.
    let acl = acl_overlaps(cfg.acl("MGMT").unwrap());
    assert!(acl.conflict_count() >= 2);
}

#[test]
fn border_router_interactive_update() {
    // Add a peer-block stanza to ISP_IN: deny routes originating from a
    // problem AS, placed above the catch-all permit.
    let base = load("border_router.cfg");
    let prompt = "Write a route-map stanza that denies routes originating from AS 666.";
    let mut pipeline = Pipeline::new(SemanticBackend::new(), 3);
    let PipelineOutcome::RouteMap {
        snippet, map_name, ..
    } = pipeline.synthesize(prompt).unwrap()
    else {
        panic!("expected route-map synthesis");
    };
    // Intent: the deny goes above the catch-all (position 1, after the
    // bogon filter which it does not overlap... it does overlap the
    // catch-all only, so any position before the permit works; canonical
    // placement is immediately above it).
    let intended = insert_route_map_stanza(&base, "ISP_IN", &snippet, &map_name, 1)
        .unwrap()
        .0;
    let mut oracle = IntentOracle::new(&intended, "ISP_IN");
    let result = Disambiguator::new(PlacementStrategy::BinarySearch)
        .insert(&base, "ISP_IN", &snippet, &map_name, &mut oracle)
        .unwrap();
    clarify::core::verify_against_intent(&result.config, "ISP_IN", &intended, "ISP_IN").unwrap();
    // The final policy denies a route from AS 666 that the old one permitted.
    let r = clarify::nettypes::BgpRoute::with_defaults("99.0.0.0/16".parse().unwrap())
        .path(&[174, 666]);
    assert!(base.eval_route_map("ISP_IN", &r).unwrap().is_permit());
    assert!(!result
        .config
        .eval_route_map("ISP_IN", &r)
        .unwrap()
        .is_permit());
}
