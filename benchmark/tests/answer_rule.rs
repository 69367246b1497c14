//! The benchmark's simulated user answers by a rule (`rule::choose`): OPTION 1
//! iff the intended slot is at or above the pivot. Its output check
//! assumes that rule lands every rule where the repository's intent
//! oracles do; this test checks it on every slot of every base the
//! workloads use, plus the disambiguation-scaling family.

use clarify_analysis::{PacketSpace, RouteSpace};
use clarify_benchmark::inputs::{self, Kind};
use clarify_benchmark::rule;
use clarify_core::{
    plan_acl_in_space, AclIntentOracle, AclQuestion, DisambiguationQuestion, Disambiguator,
    FnAclOracle, FnOracle, IntentOracle, PlacementStrategy,
};
use clarify_llm::{AclIntent, RouteMapIntent};
use clarify_netconfig::{insert_acl_entry, insert_route_map_stanza, Config};

/// Checks every slot of route-map `map`; returns the number of slots.
fn route_map_slots(base: &Config, map: &str, snippet: &Config, snippet_map: &str) -> usize {
    let mut space = RouteSpace::new(&[base, snippet]).expect("space builds");
    let plan = Disambiguator::default()
        .plan_in_space(&mut space, base, map, snippet, snippet_map)
        .expect("plan builds");
    let n = base.route_map(map).expect("target exists").stanzas.len();
    for slot in 0..=n {
        let (intended, _) =
            insert_route_map_stanza(base, map, snippet, snippet_map, slot).expect("insert");
        let want = plan
            .clone()
            .drive(&mut IntentOracle::new(&intended, map))
            .expect("intent oracle answers");
        let got = plan
            .clone()
            .drive(&mut FnOracle(|q: &DisambiguationQuestion| {
                let pivot = u64::from(q.pivot_seq);
                let i = rule::pivot_index(base, Kind::RouteMap, map, pivot).expect("pivot");
                rule::choose(slot, i)
            }))
            .expect("rule answers");
        assert_eq!(
            got.position, want.position,
            "route-map {map}, slot {slot}: rule and intent oracle disagree"
        );
    }
    n + 1
}

/// Checks every slot of ACL `acl`; returns the number of slots.
fn acl_slots(base: &Config, acl: &str, prompt: &str) -> usize {
    let entry = AclIntent::parse(prompt).expect("prompt parses").to_entry();
    let plan = plan_acl_in_space(
        &mut PacketSpace::new(),
        base,
        acl,
        &entry,
        PlacementStrategy::BinarySearch,
    )
    .expect("plan builds");
    let n = base.acl(acl).expect("target exists").entries.len();
    for slot in 0..=n {
        let intended = insert_acl_entry(base, acl, entry.clone(), slot).expect("insert");
        let want = plan
            .clone()
            .drive(&mut AclIntentOracle {
                intended: intended.acl(acl).expect("target exists"),
            })
            .expect("intent oracle answers");
        let got = plan
            .clone()
            .drive(&mut FnAclOracle(|q: &AclQuestion| {
                rule::choose(slot, q.pivot_index)
            }))
            .expect("rule answers");
        assert_eq!(
            got.position, want.position,
            "acl {acl}, slot {slot}: rule and intent oracle disagree"
        );
    }
    n + 1
}

/// The round prompts of the first eight seed-42 scripts of workload
/// `name`, each against its script's base.
fn workload_slots(name: &str) -> (usize, usize) {
    let w = inputs::generate(name, 42).expect("known workload");
    let (mut route_maps, mut acls) = (0, 0);
    for script in w.scripts.iter().take(8) {
        for round in &script.rounds {
            let base = &script.parsed;
            match round.kind {
                Kind::RouteMap => {
                    let (snippet, map) = RouteMapIntent::parse(&round.prompt)
                        .and_then(|i| i.to_snippet())
                        .expect("prompt parses");
                    route_maps += route_map_slots(base, &round.target, &snippet, &map);
                }
                Kind::Acl => acls += acl_slots(base, &round.target, &round.prompt),
            }
        }
    }
    (route_maps, acls)
}

#[test]
fn rule_matches_the_intent_oracle_on_the_scaling_family() {
    let mut slots = 0;
    for n in [1, 2, 3, 5, 8, 13, 21, 34] {
        let (base, snippet) = clarify_workload::disambiguation_family(n);
        slots += route_map_slots(&base, "RM", &snippet, "NEW");
    }
    assert_eq!(slots, 95);
}

#[test]
fn rule_matches_the_intent_oracle_on_every_workload_base() {
    let mut route_maps = 0;
    let mut acls = 0;
    for name in inputs::WORKLOADS {
        let (r, a) = workload_slots(name);
        route_maps += r;
        acls += a;
    }
    // 24 prompts each on the §2 (4 slots), wide (97) and ACL (65) bases,
    // plus the lint_edits targets.
    assert!(
        route_maps >= 24 * (4 + 97),
        "only {route_maps} route-map slots"
    );
    assert!(acls >= 24 * 65, "only {acls} ACL slots");
}
