//! Audit a configuration population for overlapping and conflicting rules
//! — the §3 measurement as a reusable tool.
//!
//! ```sh
//! cargo run --release --example campus_audit            # full 11,088 ACLs
//! cargo run --example campus_audit -- --seed 7 --top 5
//! ```

use clarify::analysis::{acl_overlaps, overlaps, RouteSpace};
use clarify::workload::{campus, AclCensus, RouteMapCensus};

fn arg(name: &str) -> Option<String> {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1).cloned())
}

fn main() {
    let seed: u64 = arg("--seed").and_then(|s| s.parse().ok()).unwrap_or(42);
    let top: usize = arg("--top").and_then(|s| s.parse().ok()).unwrap_or(3);

    println!("generating the campus population (seed {seed})...");
    let w = campus(seed);

    println!("auditing {} ACLs...", w.acls.len());
    let mut reports: Vec<(usize, _)> = w
        .acls
        .iter()
        .enumerate()
        .map(|(i, acl)| (i, acl_overlaps(acl)))
        .collect();
    let census = AclCensus::of(reports.iter().map(|(_, r)| r));

    println!("\n--- ACL census ---");
    println!(
        "ACLs with conflicting overlaps: {:.1}%",
        100.0 * census.conflict_fraction()
    );
    println!(
        "  of those, more than 20 conflicts: {:.1}%",
        100.0 * census.gt20_of_conflicting()
    );
    println!(
        "non-trivial (after subset filtering): {:.1}%",
        100.0 * census.nontrivial_fraction()
    );
    println!(
        "  of those, more than 20: {:.1}%",
        100.0 * census.gt20_of_nontrivial()
    );

    reports.sort_by_key(|(_, r)| std::cmp::Reverse(r.count()));
    println!("\n--- top {top} ACLs by overlapping pairs ---");
    for (i, r) in reports.iter().take(top) {
        let acl = &w.acls[*i];
        println!(
            "{}: {} rules, {} overlapping pairs ({} conflicting, {} non-trivial)",
            acl.name,
            r.num_rules,
            r.count(),
            r.conflict_count(),
            r.nontrivial_conflict_count()
        );
        // Show the first conflicting pair as a concrete finding.
        if let Some(p) = r.pairs.iter().find(|p| p.conflicting) {
            println!("  e.g. rule {} vs rule {}:", p.i, p.j);
            println!("   {}", acl.entries[p.i]);
            println!("   {}", acl.entries[p.j]);
        }
    }

    println!("\nauditing {} route-maps...", w.route_maps.len());
    let mut census = RouteMapCensus::default();
    for (cfg, name) in &w.route_maps {
        let rm = cfg.route_map(name).expect("map exists").clone();
        let mut space = RouteSpace::new(&[cfg]).expect("space");
        let r = overlaps(&mut space, cfg, &rm).expect("analysis");
        if r.count() > 0 {
            println!(
                "  {name}: {} overlapping stanza pairs ({} conflicting)",
                r.count(),
                r.pairs.iter().filter(|p| p.conflicting).count()
            );
        }
        census.add(&r);
    }
    println!(
        "route-maps with overlapping stanzas: {} of {}",
        census.with_overlap, census.total
    );
}
