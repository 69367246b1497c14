//! Microbenchmarks for the BDD substrate: the cost floor under every
//! symbolic analysis.

use clarify_testkit::bench::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use clarify_bdd::Manager;

fn bench_conjunction_chain(c: &mut Criterion) {
    let mut g = c.benchmark_group("bdd/and_chain");
    for n in [16u32, 64, 128] {
        g.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, &n| {
            b.iter(|| {
                let mut m = Manager::new(n);
                let lits: Vec<_> = (0..n).map(|v| m.var(v)).collect();
                black_box(m.and_all(lits))
            });
        });
    }
    g.finish();
}

fn bench_range_encoding(c: &mut Criterion) {
    let mut g = c.benchmark_group("bdd/range_const");
    for bits in [16usize, 32] {
        g.bench_with_input(BenchmarkId::from_parameter(bits), &bits, |b, &bits| {
            b.iter(|| {
                let mut m = Manager::new(bits as u32);
                let vars: Vec<u32> = (0..bits as u32).collect();
                black_box(m.range_const(&vars, 100, 1u64 << (bits - 1)))
            });
        });
    }
    g.finish();
}

fn bench_exists(c: &mut Criterion) {
    c.bench_function("bdd/exists_16_of_32", |b| {
        let mut m = Manager::new(32);
        let vars: Vec<u32> = (0..32).collect();
        let f = m.range_const(&vars, 12345, 4_000_000_000);
        let quantified: Vec<u32> = (0..16).collect();
        b.iter(|| {
            let r = m.exists(f, &quantified);
            black_box(r)
        });
    });
}

fn bench_sat_count(c: &mut Criterion) {
    c.bench_function("bdd/sat_count_32", |b| {
        let mut m = Manager::new(32);
        let vars: Vec<u32> = (0..32).collect();
        let f = m.range_const(&vars, 1000, 3_000_000_000);
        b.iter(|| black_box(m.sat_count_exact(f)));
    });
}

fn bench_witness(c: &mut Criterion) {
    c.bench_function("bdd/any_sat_32", |b| {
        let mut m = Manager::new(32);
        let vars: Vec<u32> = (0..32).collect();
        let f = m.range_const(&vars, 123_456_789, 3_000_000_000);
        b.iter(|| black_box(m.any_sat(f)));
    });
}

criterion_group!(
    benches,
    bench_conjunction_chain,
    bench_range_encoding,
    bench_exists,
    bench_sat_count,
    bench_witness
);
criterion_main!(benches);
