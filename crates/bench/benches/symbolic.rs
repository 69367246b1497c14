//! The Batfish-substitute analyses on the paper's configurations, plus the
//! A1 ablation: differential comparison with and without set-clause
//! differencing (permit/deny only).

use clarify_testkit::bench::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use clarify_analysis::{compare_route_policies, search, FirstMatchPolicy, RouteSpace};
use clarify_netconfig::{insert_route_map_stanza, Action, Config};

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

fn bench_space_build(c: &mut Criterion) {
    let base = Config::parse(ISP_OUT).expect("parses");
    let snip = Config::parse(SNIPPET).expect("parses");
    c.bench_function("analysis/route_space_build", |b| {
        b.iter(|| black_box(RouteSpace::new(&[&base, &snip]).expect("space")));
    });
}

fn bench_permit_set(c: &mut Criterion) {
    let base = Config::parse(ISP_OUT).expect("parses");
    let map = base.route_map("ISP_OUT").expect("map exists");
    c.bench_function("analysis/permit_set", |b| {
        b.iter(|| {
            let mut space = RouteSpace::new(&[&base]).expect("space");
            black_box(map.permit_set(&mut space, &base).expect("permit set"))
        });
    });
}

fn bench_search(c: &mut Criterion) {
    let base = Config::parse(ISP_OUT).expect("parses");
    let map = base.route_map("ISP_OUT").expect("map exists");
    c.bench_function("analysis/search_route_policies", |b| {
        b.iter(|| {
            let mut space = RouteSpace::new(&[&base]).expect("space");
            black_box(search(&mut space, &base, map, Action::Permit, None).expect("search"))
        });
    });
}

fn bench_compare(c: &mut Criterion) {
    let base = Config::parse(ISP_OUT).expect("parses");
    let snip = Config::parse(SNIPPET).expect("parses");
    let (top, _) = insert_route_map_stanza(&base, "ISP_OUT", &snip, "SET_METRIC", 0).expect("a");
    let (bot, _) = insert_route_map_stanza(&base, "ISP_OUT", &snip, "SET_METRIC", 3).expect("b");
    c.bench_function("analysis/compare_route_policies", |b| {
        b.iter(|| {
            let mut space = RouteSpace::new(&[&top, &bot]).expect("space");
            black_box(
                compare_route_policies(&mut space, &top, "ISP_OUT", &bot, "ISP_OUT", 4)
                    .expect("compare"),
            )
        });
    });

    // A1 ablation: the same comparison when set clauses are stripped, so
    // only permit/deny differences remain (what a coarser comparator that
    // ignores attribute rewrites would see).
    let strip = |cfg: &Config| {
        let mut out = cfg.clone();
        for rm in out.route_maps.values_mut() {
            for s in &mut rm.stanzas {
                s.sets.clear();
            }
        }
        out
    };
    let top_s = strip(&top);
    let bot_s = strip(&bot);
    c.bench_function("analysis/compare_without_set_differencing", |b| {
        b.iter(|| {
            let mut space = RouteSpace::new(&[&top_s, &bot_s]).expect("space");
            black_box(
                compare_route_policies(&mut space, &top_s, "ISP_OUT", &bot_s, "ISP_OUT", 4)
                    .expect("compare"),
            )
        });
    });
}

criterion_group!(
    benches,
    bench_space_build,
    bench_permit_set,
    bench_search,
    bench_compare
);
criterion_main!(benches);
