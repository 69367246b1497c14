//! Regex / automata benchmarks: compilation, matching, set operations,
//! and atomic-predicate construction (A1 ablation support).

use clarify_testkit::bench::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use clarify_automata::{AtomSpace, Dfa, Regex};

fn bench_compile(c: &mut Criterion) {
    let mut g = c.benchmark_group("automata/compile");
    for pattern in ["_32$", "_300:3_", "^(65[0-9][0-9][0-9])(_[0-9]+)*$"] {
        g.bench_with_input(BenchmarkId::from_parameter(pattern), &pattern, |b, p| {
            b.iter(|| black_box(Regex::parse(p).expect("valid").to_dfa()));
        });
    }
    g.finish();
}

fn bench_match(c: &mut Criterion) {
    let dfa = Regex::parse("_32$").expect("valid").to_dfa();
    let subject = "65000 64999 7018 174 32";
    c.bench_function("automata/match_as_path", |b| {
        b.iter(|| black_box(dfa.matches(subject)));
    });
}

fn bench_intersection(c: &mut Criterion) {
    let a = Regex::parse("_65000:[0-9]+_").expect("valid").to_dfa();
    let b2 = Regex::parse("_[0-9]+:1_").expect("valid").to_dfa();
    c.bench_function("automata/intersect", |b| {
        b.iter(|| black_box(a.intersect(&b2)));
    });
}

/// The route space's community and AS-path universes.
const COMMUNITY_UNIVERSE: &str = "^[0-9][0-9]?[0-9]?[0-9]?[0-9]?:[0-9][0-9]?[0-9]?[0-9]?[0-9]?$";
const AS_PATH_UNIVERSE: &str =
    "^([0-9][0-9]?[0-9]?[0-9]?[0-9]?( [0-9][0-9]?[0-9]?[0-9]?[0-9]?)*)?$";

/// Atom construction as a fresh configuration pays it: the patterns are
/// parsed and compiled inside the timed closure; the universe, which a
/// route space compiles once per process, is not.
fn bench_atom_space(c: &mut Criterion) {
    let communities = Regex::parse(COMMUNITY_UNIVERSE).expect("valid").to_dfa();
    let as_paths = Regex::parse(AS_PATH_UNIVERSE).expect("valid").to_dfa();
    let mut cases: Vec<(String, &Dfa, Vec<String>)> = [2usize, 4, 8]
        .into_iter()
        .map(|n| {
            let patterns = (0..n).map(|i| format!("_650{i:02}:[0-9]+_")).collect();
            (n.to_string(), &communities, patterns)
        })
        .collect();
    // The `wide_policy` base's shapes: one community per pattern, and
    // one origin AS per pattern.
    cases.push((
        "wide_communities_32".into(),
        &communities,
        (1..=32).map(|m| format!("_65000:{m}_")).collect(),
    ));
    cases.push((
        "wide_as_paths_20".into(),
        &as_paths,
        (0..20).map(|k| format!("_{}$", 64512 + 5 * k)).collect(),
    ));
    // Ten independent transit ASNs: 1024 atoms.
    cases.push((
        "transit_10".into(),
        &as_paths,
        (100..110).map(|asn| format!("_{asn}_")).collect(),
    ));
    let mut g = c.benchmark_group("automata/atom_space");
    for (name, universe, patterns) in &cases {
        g.bench_with_input(BenchmarkId::from_parameter(name), patterns, |b, pats| {
            b.iter(|| {
                let regexes: Vec<Regex> = pats
                    .iter()
                    .map(|p| Regex::parse(p).expect("valid"))
                    .collect();
                let refs: Vec<&Regex> = regexes.iter().collect();
                black_box(AtomSpace::build(universe, &refs).expect("atoms"))
            });
        });
    }
    // A session's next space over the `wide_policy` base's 32 community
    // patterns, from the space built for them: the same patterns rotated,
    // as an inserted `D*` list brings one to the front, and one more
    // pattern. The patterns are compiled outside the timed loop, as a
    // session's are, whose configurations share each compiled automaton.
    let wide: Vec<Regex> = (1..=33)
        .map(|m| Regex::parse(&format!("_65000:{m}_")).expect("valid"))
        .collect();
    for r in &wide {
        r.dfa();
    }
    let base: Vec<&Regex> = wide[..32].iter().collect();
    let built = AtomSpace::build(&communities, &base).expect("atoms");
    let mut rotated = base.clone();
    rotated.rotate_right(1);
    let plus_one: Vec<&Regex> = wide.iter().collect();
    for (name, patterns) in [
        ("wide_communities_32_reordered", &rotated),
        ("wide_communities_32_plus_1", &plus_one),
    ] {
        g.bench_with_input(BenchmarkId::from_parameter(name), patterns, |b, pats| {
            b.iter(|| black_box(built.clone().extend(pats).expect("atoms")));
        });
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_compile,
    bench_match,
    bench_intersection,
    bench_atom_space
);
criterion_main!(benches);
