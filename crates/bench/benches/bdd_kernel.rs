//! Microbenchmarks for the BDD kernel's data structures: unique-table
//! churn, computed-cache hit rate, and the E1 overlap workload they sit
//! under. The committed `BENCH_bdd.json` trajectory pins these medians
//! across kernel changes (the open-addressing rewrite was justified by a
//! before/after pair of these very numbers).

use clarify_testkit::bench::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use clarify_analysis::{overlaps, RouteSpace};
use clarify_bdd::Manager;
use clarify_netconfig::Config;

/// Unique-table churn: a fresh manager per iteration, flooded with
/// distinct nodes. Every `mk` is a miss-then-insert, so the run time is
/// dominated by unique-table lookups, inserts, and rehashes — the
/// workload the open-addressed table exists for.
fn bench_unique_churn(c: &mut Criterion) {
    let mut g = c.benchmark_group("bdd_kernel/unique_churn");
    for n in [64u64, 256] {
        g.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, &n| {
            let vars: Vec<u32> = (0..32).collect();
            b.iter(|| {
                let mut m = Manager::new(32);
                let mut acc = clarify_bdd::Ref::FALSE;
                for k in 0..n {
                    // Knuth-scattered constants build disjoint deep paths:
                    // nearly every node is new to the table.
                    let v = k.wrapping_mul(2654435761) & 0xFFFF_FFFF;
                    let f = m.eq_const(&vars, v);
                    acc = m.or(acc, f);
                }
                black_box(acc)
            });
        });
    }
    g.finish();
}

/// Computed-cache hit rate: one long-lived manager re-asked the same
/// inter-range conjunctions/disjunctions over and over. After the first
/// pass everything is memoized, so run time measures probe cost (and,
/// across kernel generations, how much normalization widens hits).
fn bench_computed_hit_rate(c: &mut Criterion) {
    c.bench_function("bdd_kernel/computed_hit_rate", |b| {
        let mut m = Manager::new(32);
        let vars: Vec<u32> = (0..32).collect();
        let pool: Vec<_> = (0..8u64)
            .map(|i| m.range_const(&vars, i * 1000, i * 1000 + 50_000))
            .collect();
        b.iter(|| {
            let mut acc = clarify_bdd::Ref::TRUE;
            for &f in &pool {
                for &g in &pool {
                    let x = m.and(f, g);
                    let y = m.or(f, g);
                    let d = m.diff(x, y);
                    acc = m.xor(acc, d);
                }
            }
            black_box(acc)
        });
    });
}

/// The E1 overlap workload: build the §2 ISP_OUT route space and run the
/// pairwise overlap census, exactly what the disambiguator does before
/// its first question. Space construction is included — capacity hints
/// and table layout both land here.
fn bench_e1_overlap(c: &mut Criterion) {
    c.bench_function("bdd_kernel/e1_overlap", |b| {
        let cfg = Config::parse(clarify_bench::worked_example::ISP_OUT).expect("E1 config parses");
        let map = cfg.route_map("ISP_OUT").expect("map exists").clone();
        b.iter(|| {
            let mut space = RouteSpace::new(&[&cfg]).expect("space");
            black_box(overlaps(&mut space, &cfg, &map).expect("overlaps"))
        });
    });
}

/// Negation-heavy churn: alternating `not`/`xor` over wide interval
/// constraints. Without complement edges every negation materialises a
/// mirrored copy of its operand's DAG; with them it is a bit flip, so
/// both the node count and the time collapse. The peak live-node count is
/// printed once so the trajectory can pin the structural claim, not just
/// the timing.
fn bench_negation_heavy(c: &mut Criterion) {
    let vars: Vec<u32> = (0..32).collect();
    let run = |m: &mut Manager| {
        let mut acc = clarify_bdd::Ref::TRUE;
        for i in 0..24u64 {
            let r = m.range_const(&vars, i * 500, i * 500 + 40_000);
            let nr = m.not(r);
            let x = m.xor(acc, nr);
            acc = m.not(x);
        }
        acc
    };
    {
        // Node-count evidence (no GC runs here, so live == peak == total
        // allocated): the complement-edge kernel shares every negation.
        let mut m = Manager::new(32);
        run(&mut m);
        eprintln!(
            "bdd_kernel/negation_heavy: peak live nodes = {}",
            m.live_node_count()
        );
    }
    c.bench_function("bdd_kernel/negation_heavy", |b| {
        b.iter(|| {
            let mut m = Manager::new(32);
            black_box(run(&mut m))
        });
    });
}

criterion_group!(
    benches,
    bench_unique_churn,
    bench_computed_hit_rate,
    bench_e1_overlap,
    bench_negation_heavy
);
criterion_main!(benches);
