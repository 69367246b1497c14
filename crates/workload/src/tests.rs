use clarify_rng::StdRng;

use clarify_analysis::{acl_overlaps, overlaps, RouteSpace};

use crate::{
    campus, clean_acl, clean_route_map_config, cloud, cross_acl, disambiguation_family,
    nested_route_map_config, subset_tail_acl, AclCensus, RouteMapCensus,
};

fn rng() -> StdRng {
    StdRng::seed_from_u64(7)
}

#[test]
fn clean_acl_has_no_overlaps() {
    let acl = clean_acl(&mut rng(), "A", 10);
    let r = acl_overlaps(&acl);
    assert_eq!(r.count(), 0);
    assert_eq!(r.num_rules, 10);
}

#[test]
fn subset_tail_acl_counts_exact() {
    for k in [1, 5, 20, 25] {
        let acl = subset_tail_acl(&mut rng(), "A", k);
        let r = acl_overlaps(&acl);
        assert_eq!(r.count(), k, "k={k}");
        assert_eq!(r.conflict_count(), k, "all pairs conflict");
        assert_eq!(r.nontrivial_conflict_count(), 0, "all pairs are subsets");
    }
}

#[test]
fn cross_acl_counts_exact() {
    for (p, d) in [(1, 1), (4, 3), (12, 9), (10, 2)] {
        let acl = cross_acl(&mut rng(), "A", p, d);
        let r = acl_overlaps(&acl);
        assert_eq!(r.count(), p * d, "p={p} d={d}");
        assert_eq!(r.conflict_count(), p * d);
        assert_eq!(r.nontrivial_conflict_count(), p * d, "no subset pairs");
    }
}

#[test]
fn clean_route_map_has_no_overlaps() {
    let cfg = clean_route_map_config(&mut rng(), "RM", 6);
    let rm = cfg.route_map("RM").unwrap().clone();
    let mut space = RouteSpace::new(&[&cfg]).unwrap();
    let r = overlaps(&mut space, &cfg, &rm).unwrap();
    assert_eq!(r.count(), 0);
}

#[test]
fn nested_route_map_counts_exact() {
    let cfg = nested_route_map_config("RM", 4, 2);
    let rm = cfg.route_map("RM").unwrap().clone();
    let mut space = RouteSpace::new(&[&cfg]).unwrap();
    let r = overlaps(&mut space, &cfg, &rm).unwrap();
    assert_eq!(r.count(), 3, "wide stanza overlaps each narrow");
    let conflicting = r.pairs.iter().filter(|p| p.conflicting).count();
    assert_eq!(conflicting, 2, "the paper's campus route-map shape");
}

#[test]
fn disambiguation_family_shape() {
    let (base, snip) = disambiguation_family(5);
    assert_eq!(base.route_map("RM").unwrap().stanzas.len(), 5);
    assert_eq!(snip.route_map("NEW").unwrap().stanzas.len(), 1);
}

#[test]
fn populations_are_deterministic_per_seed() {
    let a = cloud(11);
    let b = cloud(11);
    assert_eq!(a.acls.len(), b.acls.len());
    for (x, y) in a.acls.iter().zip(&b.acls) {
        assert_eq!(x, y);
    }
    let c = cloud(12);
    assert_ne!(
        a.acls.iter().map(|x| format!("{x}")).collect::<String>(),
        c.acls.iter().map(|x| format!("{x}")).collect::<String>(),
        "different seeds differ"
    );
}

#[test]
fn cloud_census_matches_paper() {
    let w = cloud(42);
    assert_eq!(w.acls.len(), 237);
    assert_eq!(w.route_maps.len(), 800);
    let reports: Vec<_> = w.acls.iter().map(acl_overlaps).collect();
    let census = AclCensus::of(&reports);
    // §3.1: 69 of 237 with at least one overlap; 48 with more than 20;
    // one ACL with over 100 pairs.
    assert_eq!(census.total, 237);
    assert_eq!(census.with_overlap, 69);
    assert_eq!(census.overlap_gt20, 48);
    assert!(census.max_pairs > 100, "max {}", census.max_pairs);
}

#[test]
fn cloud_route_map_census_matches_paper() {
    let w = cloud(42);
    let mut census = RouteMapCensus::default();
    for (cfg, name) in &w.route_maps {
        let rm = cfg.route_map(name).unwrap().clone();
        let mut space = RouteSpace::new(&[cfg]).unwrap();
        let r = overlaps(&mut space, cfg, &rm).unwrap();
        census.add(&r);
    }
    // §3.1: 800 policies, 140 with overlaps, 3 with more than 20 each.
    assert_eq!(census.total, 800);
    assert_eq!(census.with_overlap, 140);
    assert_eq!(census.overlap_gt20, 3);
}

#[test]
fn campus_acl_census_matches_paper_fractions() {
    let w = campus(42);
    assert_eq!(w.acls.len(), 11_088);
    let reports: Vec<_> = w.acls.iter().map(acl_overlaps).collect();
    let census = AclCensus::of(&reports);
    // §3.2: 37.7% conflicting; 27% of those >20; 18.6% non-trivial;
    // 16.3% of those >20.
    assert!(
        (census.conflict_fraction() - 0.377).abs() < 0.002,
        "{census:?}"
    );
    assert!(
        (census.gt20_of_conflicting() - 0.27).abs() < 0.01,
        "{census:?}"
    );
    assert!(
        (census.nontrivial_fraction() - 0.186).abs() < 0.002,
        "{census:?}"
    );
    assert!(
        (census.gt20_of_nontrivial() - 0.163).abs() < 0.01,
        "{census:?}"
    );
}

#[test]
fn campus_route_map_census_matches_paper() {
    let w = campus(42);
    assert_eq!(w.route_maps.len(), 169);
    let mut census = RouteMapCensus::default();
    let mut pair_counts = Vec::new();
    for (cfg, name) in &w.route_maps {
        let rm = cfg.route_map(name).unwrap().clone();
        let mut space = RouteSpace::new(&[cfg]).unwrap();
        let r = overlaps(&mut space, cfg, &rm).unwrap();
        if r.count() > 0 {
            pair_counts.push((r.count(), r.pairs.iter().filter(|p| p.conflicting).count()));
        }
        census.add(&r);
    }
    // §3.2: 2 route-maps with overlapping stanzas; one with three pairs of
    // which two conflict.
    assert_eq!(census.with_overlap, 2);
    assert!(pair_counts.contains(&(3, 2)), "{pair_counts:?}");
}

#[test]
fn census_fraction_edge_cases() {
    let c = AclCensus::default();
    assert_eq!(c.conflict_fraction(), 0.0);
    assert_eq!(c.gt20_of_conflicting(), 0.0);
}
