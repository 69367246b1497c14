//! Cost of the cross-device lint pass (`NetworkLinter`): the 7-node E1
//! worked-example topology and the two-router prefix-heavy topology
//! from `testdata/`, and a workload-generated ring fabric whose
//! per-router policies come from the §3-calibrated nested-overlap family.

use std::path::Path;

use clarify_lint::NetworkLinter;
use clarify_netsim::{LoadedTopology, TopologySpec};
use clarify_testkit::bench::{criterion_group, criterion_main, BenchmarkId, Criterion};
use clarify_workload::nested_route_map_config;
use std::hint::black_box;

/// A committed topology from `testdata/`, its configs resolved beside it.
fn load(topology: &str) -> LoadedTopology {
    let base = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../testdata");
    let text = std::fs::read_to_string(base.join(topology)).expect("topology file");
    TopologySpec::parse(&text)
        .expect("topology parses")
        .instantiate(&mut |p| std::fs::read_to_string(base.join(p)).map_err(|e| e.to_string()))
        .expect("topology instantiates")
}

/// A ring of `n` routers with alternating ASNs (so cross-AS
/// normalization is exercised), each importing through a generated
/// nested-overlap map and exporting through a permissive one.
fn ring_fabric(n: usize) -> LoadedTopology {
    let mut topo = String::new();
    for i in 0..n {
        let left = (i + n - 1) % n;
        let right = (i + 1) % n;
        topo.push_str(&format!(
            "router R{i} asn {} config r{i}.cfg\n  originate 10.{}.0.0/16\n\
             \x20 neighbor R{left} import IN export OUT\n\
             \x20 neighbor R{right} import IN export OUT\n",
            65000 + (i % 2),
            (i % 200) + 1,
        ));
    }
    let spec = TopologySpec::parse(&topo).expect("fabric parses");
    spec.instantiate(&mut |p: &str| {
        let i: usize = p
            .trim_start_matches('r')
            .trim_end_matches(".cfg")
            .parse()
            .unwrap();
        let mut text = nested_route_map_config("IN", 6, 3).to_string();
        text.push_str(&format!(
            "ip prefix-list OUT_ALL seq 5 permit 10.0.0.0/8 le 32\n\
             route-map OUT permit 10\n match ip address prefix-list OUT_ALL\n\
             set community 65000:{i} additive\n"
        ));
        Ok(text)
    })
    .expect("fabric instantiates")
}

fn bench_e1(c: &mut Criterion) {
    let loaded = load("e1_topology.txt");
    c.bench_function("netlint/e1_topology/7routers", |b| {
        b.iter(|| black_box(NetworkLinter::new(&loaded).lint().expect("lint")));
    });
}

/// Two peered routers whose maps match four 50-entry prefix lists each:
/// the network pass roots more than 4,096 fire-set nodes.
fn bench_prefix_heavy(c: &mut Criterion) {
    let loaded = load("netlint_prefix_heavy.txt");
    let mut g = c.benchmark_group("netlint");
    g.sample_size(10);
    let id = BenchmarkId::from_parameter("prefix_heavy");
    g.bench_with_input(id, &loaded, |b, loaded| {
        b.iter(|| black_box(NetworkLinter::new(loaded).lint().expect("lint")));
    });
    g.finish();
}

fn bench_ring(c: &mut Criterion) {
    let mut g = c.benchmark_group("netlint/ring_fabric");
    g.sample_size(10);
    for n in [4usize, 8] {
        let loaded = ring_fabric(n);
        g.bench_with_input(BenchmarkId::from_parameter(n), &loaded, |b, loaded| {
            b.iter(|| black_box(NetworkLinter::new(loaded).lint().expect("lint")));
        });
    }
    g.finish();
}

criterion_group!(benches, bench_e1, bench_prefix_heavy, bench_ring);
criterion_main!(benches);
