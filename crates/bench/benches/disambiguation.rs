//! End-to-end disambiguation cost (E6's runtime companion): wall-clock of
//! a full insert with binary search vs linear scan vs top/bottom-only as
//! the overlap count grows.

use clarify_testkit::bench::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use clarify_core::{Disambiguator, IntentOracle, PlacementStrategy};
use clarify_netconfig::insert_route_map_stanza;
use clarify_workload::disambiguation_family;

fn bench_strategy(c: &mut Criterion, name: &str, strategy: PlacementStrategy, sizes: &[usize]) {
    let mut g = c.benchmark_group(format!("disambiguation/{name}"));
    g.sample_size(10);
    for &n in sizes {
        let (base, snip) = disambiguation_family(n);
        // Worst case for search: the intent sits at the bottom slot.
        let intended = insert_route_map_stanza(&base, "RM", &snip, "NEW", n)
            .expect("insert")
            .0;
        g.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| {
                let mut oracle = IntentOracle::new(&intended, "RM");
                black_box(
                    Disambiguator::new(strategy)
                        .insert(&base, "RM", &snip, "NEW", &mut oracle)
                        .expect("insert"),
                )
            });
        });
    }
    g.finish();
}

fn bench_binary(c: &mut Criterion) {
    bench_strategy(
        c,
        "binary_search",
        PlacementStrategy::BinarySearch,
        &[4, 8, 16],
    );
}

fn bench_linear(c: &mut Criterion) {
    bench_strategy(c, "linear_scan", PlacementStrategy::LinearScan, &[4, 8, 16]);
}

fn bench_top_bottom(c: &mut Criterion) {
    bench_strategy(
        c,
        "top_bottom",
        PlacementStrategy::TopBottomOnly,
        &[4, 8, 16],
    );
}

criterion_group!(benches, bench_binary, bench_linear, bench_top_bottom);

mod acl_side {
    use super::*;
    use clarify_core::{AclInsertion, AclIntentOracle};
    use clarify_netconfig::{insert_acl_entry, Config};

    /// An ACL with n overlapping entries and a new entry overlapping all.
    fn family(n: usize) -> (Config, clarify_netconfig::AclEntry) {
        let mut text = String::from("ip access-list extended A\n");
        for i in 0..n {
            text.push_str(&format!(
                " {} tcp any any eq {}\n",
                if i % 2 == 0 { "permit" } else { "deny" },
                1000 + i
            ));
        }
        let cfg = Config::parse(&text).expect("parses");
        let entry = Config::parse("ip access-list extended X\n deny tcp 10.0.0.0/8 any\n")
            .expect("parses")
            .acls["X"]
            .entries[0]
            .clone();
        (cfg, entry)
    }

    pub fn bench_acl_disambiguation(c: &mut Criterion) {
        let mut g = c.benchmark_group("disambiguation/acl_binary_search");
        g.sample_size(10);
        for n in [4usize, 8, 16] {
            let (base, entry) = family(n);
            let intended_cfg = insert_acl_entry(&base, "A", entry.clone(), n).expect("insert");
            let intended = intended_cfg.acl("A").expect("acl").clone();
            g.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
                b.iter(|| {
                    let mut oracle = AclIntentOracle {
                        intended: &intended,
                    };
                    black_box(
                        Disambiguator::new(PlacementStrategy::BinarySearch)
                            .disambiguate(
                                AclInsertion::new(&base, "A", &entry).expect("ACL exists"),
                                &mut oracle,
                            )
                            .expect("insert"),
                    )
                });
            });
        }
        g.finish();
    }
}

criterion_group!(acl_benches, acl_side::bench_acl_disambiguation);
criterion_main!(benches, acl_benches);
