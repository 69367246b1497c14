//! The §3 overlap census machinery: exact interval arithmetic versus the
//! symbolic (BDD) cross-check on ACLs, and the route-map analysis.

use clarify_rng::StdRng;
use clarify_testkit::bench::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use clarify_analysis::{acl_overlaps, overlaps, PacketSpace, RouteSpace};
use clarify_netconfig::Config;
use clarify_workload::{cross_acl, nested_route_map_config};

fn bench_acl_interval(c: &mut Criterion) {
    let mut g = c.benchmark_group("overlap/acl_interval");
    for (p, d) in [(6usize, 4usize), (12, 9), (20, 15)] {
        let acl = cross_acl(&mut StdRng::seed_from_u64(1), "A", p, d);
        g.bench_with_input(
            BenchmarkId::from_parameter(format!("{}rules", p + d)),
            &acl,
            |b, acl| {
                b.iter(|| black_box(acl_overlaps(acl)));
            },
        );
    }
    g.finish();
}

fn bench_acl_symbolic(c: &mut Criterion) {
    let mut g = c.benchmark_group("overlap/acl_symbolic");
    for (p, d) in [(6usize, 4usize), (12, 9)] {
        let acl = cross_acl(&mut StdRng::seed_from_u64(1), "A", p, d);
        g.bench_with_input(
            BenchmarkId::from_parameter(format!("{}rules", p + d)),
            &acl,
            |b, acl| {
                b.iter(|| {
                    let mut space = PacketSpace::new();
                    black_box(overlaps(&mut space, &Config::new(), acl).expect("overlaps"))
                });
            },
        );
    }
    g.finish();
}

fn bench_route_map(c: &mut Criterion) {
    let mut g = c.benchmark_group("overlap/route_map");
    for n in [4usize, 12, 24] {
        let cfg = nested_route_map_config("RM", n, n / 2);
        g.bench_with_input(BenchmarkId::from_parameter(n), &cfg, |b, cfg| {
            let rm = cfg.route_map("RM").expect("map").clone();
            b.iter(|| {
                let mut space = RouteSpace::new(&[cfg]).expect("space");
                black_box(overlaps(&mut space, cfg, &rm).expect("overlaps"))
            });
        });
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_acl_interval,
    bench_acl_symbolic,
    bench_route_map
);
criterion_main!(benches);
