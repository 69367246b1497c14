use clarify_llm::SemanticBackend;
use clarify_netconfig::{Config, RouteMapVerdict};

use crate::model::{
    check_conditions, semantics, valid_insertion_points, ConditionReport, IntentTarget,
};
use crate::verify_against_intent;
use crate::{
    AddStanzaOutcome, Choice, ClarifyError, ClarifySession, Disambiguator, FnOracle, IntentOracle,
    PlacementStrategy, RouteMapInsertion, RuleKind, ScriptedOracle, UserOracle,
};

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

fn intended_fig2a() -> Config {
    let base = Config::parse(ISP_OUT).unwrap();
    let snip = Config::parse(SNIPPET).unwrap();
    clarify_netconfig::insert_route_map_stanza(&base, "ISP_OUT", &snip, "SET_METRIC", 0)
        .unwrap()
        .0
}

fn intended_fig2b() -> Config {
    let base = Config::parse(ISP_OUT).unwrap();
    let snip = Config::parse(SNIPPET).unwrap();
    clarify_netconfig::insert_route_map_stanza(&base, "ISP_OUT", &snip, "SET_METRIC", 3)
        .unwrap()
        .0
}

#[test]
fn binary_search_reproduces_figure_2a() {
    let base = Config::parse(ISP_OUT).unwrap();
    let snip = Config::parse(SNIPPET).unwrap();
    let intended = intended_fig2a();
    let mut oracle = IntentOracle::new(&intended, "ISP_OUT");
    let d = Disambiguator::new(PlacementStrategy::BinarySearch);
    let result = d
        .insert(&base, "ISP_OUT", &snip, "SET_METRIC", &mut oracle)
        .unwrap();
    // Two overlapping stanzas (the as-path deny and the lp-300 permit).
    assert_eq!(result.overlap_candidates, 2);
    assert_eq!(result.position, 0, "top placement");
    assert!(result.questions <= 2, "log2(3 slots) questions");
    verify_against_intent(&result.config, "ISP_OUT", &intended, "ISP_OUT").unwrap();
    // One of the questions is the paper's: permit-with-metric-55 versus deny.
    let paper_q = result.transcript.iter().any(|(q, _)| {
        matches!(&q.option_first, RouteMapVerdict::Permit { route, .. } if route.metric == 55)
            && !q.option_second.is_permit()
    });
    assert!(paper_q, "transcript: {:?}", result.transcript);
}

#[test]
fn binary_search_reproduces_figure_2b() {
    let base = Config::parse(ISP_OUT).unwrap();
    let snip = Config::parse(SNIPPET).unwrap();
    let intended = intended_fig2b();
    let mut oracle = IntentOracle::new(&intended, "ISP_OUT");
    let d = Disambiguator::new(PlacementStrategy::BinarySearch);
    let result = d
        .insert(&base, "ISP_OUT", &snip, "SET_METRIC", &mut oracle)
        .unwrap();
    verify_against_intent(&result.config, "ISP_OUT", &intended, "ISP_OUT").unwrap();
    assert!(
        result.position >= 3,
        "bottom placement, got {}",
        result.position
    );
}

#[test]
fn top_bottom_strategy_asks_one_question() {
    let base = Config::parse(ISP_OUT).unwrap();
    let snip = Config::parse(SNIPPET).unwrap();
    let intended = intended_fig2a();
    let mut oracle = IntentOracle::new(&intended, "ISP_OUT");
    let d = Disambiguator::new(PlacementStrategy::TopBottomOnly);
    let result = d
        .insert(&base, "ISP_OUT", &snip, "SET_METRIC", &mut oracle)
        .unwrap();
    assert_eq!(result.questions, 1);
    assert_eq!(result.position, 0);
    verify_against_intent(&result.config, "ISP_OUT", &intended, "ISP_OUT").unwrap();
}

#[test]
fn question_renders_in_paper_format() {
    let base = Config::parse(ISP_OUT).unwrap();
    let snip = Config::parse(SNIPPET).unwrap();
    let intended = intended_fig2a();
    let mut oracle = IntentOracle::new(&intended, "ISP_OUT");
    let d = Disambiguator::new(PlacementStrategy::TopBottomOnly);
    let result = d
        .insert(&base, "ISP_OUT", &snip, "SET_METRIC", &mut oracle)
        .unwrap();
    let rendered = result.transcript[0].0.to_string();
    assert!(rendered.contains("OPTION 1:"), "{rendered}");
    assert!(rendered.contains("OPTION 2:"), "{rendered}");
    assert!(rendered.contains("ACTION: permit"), "{rendered}");
    assert!(rendered.contains("ACTION: deny"), "{rendered}");
    assert!(rendered.contains("Network:"), "{rendered}");
}

#[test]
fn no_overlap_means_no_questions() {
    let base = Config::parse(
        "ip prefix-list PL seq 5 permit 50.0.0.0/8 le 32\nroute-map RM deny 10\n match ip address prefix-list PL\n",
    )
    .unwrap();
    let snip = Config::parse(SNIPPET).unwrap();
    // The snippet only matches 100.0.0.0/16 routes; no overlap with 50/8.
    let mut oracle = FnOracle(|_: &crate::DisambiguationQuestion| panic!("no question expected"));
    let d = Disambiguator::default();
    let result = d
        .insert(&base, "RM", &snip, "SET_METRIC", &mut oracle)
        .unwrap();
    assert_eq!(result.questions, 0);
    assert_eq!(result.overlap_candidates, 0);
    assert_eq!(result.position, 1, "appended");
}

#[test]
fn empty_route_map_insertion() {
    let mut base = Config::new();
    base.route_maps
        .insert("RM".to_string(), clarify_netconfig::RouteMap::empty("RM"));
    let snip = Config::parse(SNIPPET).unwrap();
    let mut oracle = FnOracle(|_: &crate::DisambiguationQuestion| panic!("no question expected"));
    let result = Disambiguator::default()
        .insert(&base, "RM", &snip, "SET_METRIC", &mut oracle)
        .unwrap();
    assert_eq!(result.questions, 0);
    assert_eq!(result.config.route_map("RM").unwrap().stanzas.len(), 1);
}

/// Base for the lint-prune regression: stanza 10 swallows all of 10/8, so
/// the lp-matching stanzas below overlap a 10/8 snippet's match set but
/// can never fire on it — they are shadowed insertion boundaries.
const PRUNE_BASE: &str = "\
ip prefix-list ALL10 permit 10.0.0.0/8 le 32
route-map RM permit 10
 match ip address prefix-list ALL10
route-map RM deny 20
 match local-preference 200
route-map RM permit 30
 match local-preference 300
 set metric 5
route-map RM deny 40
 match local-preference 400
";

const PRUNE_SNIPPET: &str = "\
ip prefix-list P105 permit 10.5.0.0/16 le 24
route-map NEW permit 10
 match ip address prefix-list P105
 set metric 77
";

#[test]
fn lint_prune_skips_shadowed_candidates_without_changing_result() {
    let base = Config::parse(PRUNE_BASE).unwrap();
    let snip = Config::parse(PRUNE_SNIPPET).unwrap();
    let intended = clarify_netconfig::insert_route_map_stanza(&base, "RM", &snip, "NEW", 0)
        .unwrap()
        .0;

    let mut oracle = IntentOracle::new(&intended, "RM");
    let pruned = Disambiguator::new(PlacementStrategy::BinarySearch)
        .insert(&base, "RM", &snip, "NEW", &mut oracle)
        .unwrap();

    // All four stanzas overlap the snippet's match set, but only stanza 10
    // can actually fire on it; the other three boundaries are pruned
    // before their (expensive) placement comparisons run.
    assert_eq!(pruned.overlap_candidates, 4);
    assert_eq!(pruned.pruned_candidates, 3);
    assert_eq!(pruned.comparisons, 1, "one comparison after pruning");
    assert_eq!(pruned.questions, 1);
    assert_eq!(pruned.position, 0);
    verify_against_intent(&pruned.config, "RM", &intended, "RM").unwrap();

    // Pruning is sound: at each pruned pivot (stanzas 20, 30 and 40) the
    // above and below placements are equivalent. So the decisive-pivot
    // set, and with it the plan and the result, is exactly what an
    // unpruned scan would find.
    for pivot in 1..=3 {
        let place = |slot| {
            clarify_netconfig::insert_route_map_stanza(&base, "RM", &snip, "NEW", slot)
                .unwrap()
                .0
        };
        verify_against_intent(&place(pivot), "RM", &place(pivot + 1), "RM")
            .unwrap_or_else(|e| panic!("pruned pivot {pivot} is decisive: {e}"));
    }

    // The headline claim: far fewer questions than overlap candidates —
    // shadowed positions are never surfaced to the user as distinct.
    assert!(pruned.questions < pruned.overlap_candidates);
}

#[test]
fn scripted_oracle_exhaustion_is_an_error() {
    let base = Config::parse(ISP_OUT).unwrap();
    let snip = Config::parse(SNIPPET).unwrap();
    let mut oracle = ScriptedOracle::new([]);
    let err = Disambiguator::default()
        .insert(&base, "ISP_OUT", &snip, "SET_METRIC", &mut oracle)
        .unwrap_err();
    assert!(matches!(err, ClarifyError::OracleExhausted));
}

/// Builds a route-map with `n` stanzas `match tag i` / `set metric 1000+i`
/// and a snippet matching any 10/8 route (overlapping all of them).
fn tagged_family(n: usize) -> (Config, Config) {
    let mut text = String::new();
    for i in 0..n {
        text.push_str(&format!(
            "route-map RM permit {}\n match tag {}\n set metric {}\n",
            (i + 1) * 10,
            i,
            1000 + i
        ));
    }
    let base = Config::parse(&text).unwrap();
    let snip = Config::parse(
        "ip prefix-list PL permit 10.0.0.0/8 le 32\nroute-map NEW permit 10\n match ip address prefix-list PL\n set metric 99\n",
    )
    .unwrap();
    (base, snip)
}

#[test]
fn binary_search_is_logarithmic_and_correct_for_every_slot() {
    let n = 8;
    let (base, snip) = tagged_family(n);
    let kind = RouteMapInsertion::new(&base, "RM", &snip, "NEW").unwrap();
    let (overlaps, questions) = check_every_slot(kind);
    assert_eq!(overlaps, n);
    // ceil(log2(n+1)) for n=8 slots+1 = 9 -> 4 questions max.
    assert!(questions <= 4, "{questions} questions");
}

// ---------------------------------------------------------------------
// The shared engine, checked per rule kind against exhaustive insertion
// ---------------------------------------------------------------------

/// What [`check_every_slot`] needs of a rule kind beyond [`RuleKind`].
trait SlotCheck: RuleKind {
    /// The intent oracle of a user who wants `intended`.
    fn oracle<'a>(&'a self, intended: &'a Config) -> Box<dyn UserOracle<Self::Question> + 'a>;
    /// Whether the target policy behaves identically in `a` and `b`.
    fn equivalent(&self, a: &Config, b: &Config) -> bool;
}

impl SlotCheck for RouteMapInsertion {
    fn oracle<'a>(&'a self, intended: &'a Config) -> Box<dyn UserOracle + 'a> {
        Box::new(IntentOracle::new(intended, &self.target().name))
    }
    fn equivalent(&self, a: &Config, b: &Config) -> bool {
        let map = &self.target().name;
        verify_against_intent(a, map, b, map).is_ok()
    }
}

impl SlotCheck for crate::AclInsertion {
    fn oracle<'a>(&'a self, intended: &'a Config) -> Box<dyn UserOracle<crate::AclQuestion> + 'a> {
        Box::new(crate::AclIntentOracle {
            intended: intended.acl(&self.target().name).unwrap(),
        })
    }
    fn equivalent(&self, a: &Config, b: &Config) -> bool {
        let name = &self.target().name;
        crate::verify_acl_against_intent(a, name, b.acl(name).unwrap()).is_ok()
    }
}

impl SlotCheck for crate::PrefixListInsertion {
    fn oracle<'a>(
        &'a self,
        intended: &'a Config,
    ) -> Box<dyn UserOracle<crate::PrefixQuestion> + 'a> {
        Box::new(crate::PrefixIntentOracle {
            intended: &intended.prefix_lists[&self.target().name],
        })
    }
    fn equivalent(&self, a: &Config, b: &Config) -> bool {
        let name = &self.target().name;
        let mut space = clarify_analysis::PrefixSpace::new();
        clarify_analysis::prefix_lists_equivalent(
            &mut space,
            &a.prefix_lists[name],
            &b.prefix_lists[name],
        )
        .unwrap()
    }
}

/// Plans `kind` once, then drives the plan to every intended slot and
/// checks it against the exhaustive-insertion oracle: the final policy is
/// equivalent to the intended insertion, after at most ⌈log2(m+1)⌉
/// questions, where m — the number of decisive pivots — is counted by
/// comparing the insertions at every pair of adjacent slots. Returns the
/// overlap count and the most questions any slot took.
fn check_every_slot<K: SlotCheck>(kind: K) -> (usize, usize) {
    let mut space = kind.new_space().unwrap();
    let plan = Disambiguator::default()
        .plan(&mut space, kind.clone())
        .unwrap();
    let slots: Vec<Config> = (0..=plan.base_len)
        .map(|slot| kind.insert(slot).unwrap().0)
        .collect();
    let m = slots
        .windows(2)
        .filter(|pair| !kind.equivalent(&pair[0], &pair[1]))
        .count();
    assert_eq!(
        plan.pivots.len(),
        m,
        "decisive pivots vs exhaustive insertion"
    );
    let bound = (usize::BITS - m.leading_zeros()) as usize; // ⌈log2(m+1)⌉
    let (mut overlaps, mut most) = (0, 0);
    for (slot, intended) in slots.iter().enumerate() {
        let result = plan
            .clone()
            .drive(&mut *kind.oracle(intended))
            .unwrap_or_else(|e| panic!("slot {slot}: {e}"));
        assert!(kind.equivalent(&result.config, intended), "slot {slot}");
        assert!(
            result.questions <= bound,
            "slot {slot}: {} questions for {m} decisive pivots",
            result.questions
        );
        overlaps = result.overlap_candidates;
        most = most.max(result.questions);
    }
    (overlaps, most)
}

/// [`check_every_slot`] over random small bases of each kind.
mod engine_properties {
    use clarify_netconfig::{Config, PrefixListEntry};
    use clarify_testkit::{property, Rng, Source};

    use super::check_every_slot;
    use crate::{AclInsertion, PrefixListInsertion, RouteMapInsertion};

    const RANGES: [&str; 5] = [
        "10.0.0.0/8 le 32",
        "10.0.0.0/9 le 32",
        "10.1.0.0/16 le 24",
        "10.1.128.0/17 le 32",
        "0.0.0.0/0 le 32",
    ];

    /// One route-map stanza of `map` matching a prefix list, a tag or a
    /// local preference; permits may set a metric. Lists go to `lists`.
    fn stanza(g: &mut Source, map: &str, seq: usize, lists: &mut String) -> String {
        let action = g.pick(&["permit", "deny"]);
        let clause = match g.gen_range(0..3u8) {
            0 => {
                let list = format!("{map}_{seq}");
                let range = g.pick(&RANGES);
                lists.push_str(&format!("ip prefix-list {list} seq 5 permit {range}\n"));
                format!("match ip address prefix-list {list}")
            }
            1 => format!("match tag {}", g.gen_range(1..3u8)),
            _ => format!("match local-preference {}", g.pick(&[100, 200])),
        };
        let set = if action == "permit" && g.pick(&[false, true]) {
            format!(" set metric {seq}\n")
        } else {
            String::new()
        };
        format!("route-map {map} {action} {seq}\n {clause}\n{set}")
    }

    /// A base route-map `RM` of one to four stanzas and a one-stanza
    /// snippet `NEW`, as configuration text.
    fn route_map_case(g: &mut Source) -> (String, String) {
        let mut lists = String::new();
        let n = g.gen_range(1..=4usize);
        let stanzas: String = (1..=n)
            .map(|i| stanza(g, "RM", i * 10, &mut lists))
            .collect();
        let base = lists + &stanzas;
        let mut lists = String::new();
        let new = stanza(g, "NEW", 99, &mut lists);
        (base, lists + &new)
    }

    fn acl_entry(g: &mut Source) -> String {
        let action = g.pick(&["permit", "deny"]);
        let proto = g.pick(&["tcp", "udp", "ip"]);
        let src = g.pick(&["any", "10.0.0.0/8", "10.1.0.0/16", "host 10.1.1.1"]);
        let dst = g.pick(&["any", "host 1.1.1.1"]);
        let ports = match proto {
            "ip" => "",
            _ => g.pick(&["", " eq 22", " eq 80", " range 20 100"]),
        };
        format!(" {action} {proto} {src} {dst}{ports}\n")
    }

    /// An ACL `A` of one to five entries and a new entry, as text.
    fn acl_case(g: &mut Source) -> (String, String) {
        let entries: String = g.vec(1, 5, acl_entry).concat();
        (
            format!("ip access-list extended A\n{entries}"),
            acl_entry(g),
        )
    }

    fn prefix_entry(g: &mut Source) -> String {
        format!("{} {}", g.pick(&["permit", "deny"]), g.pick(&RANGES))
    }

    /// A prefix list `PL` of one to four entries and a new entry.
    fn prefix_case(g: &mut Source) -> (Vec<String>, String) {
        (g.vec(1, 4, prefix_entry), prefix_entry(g))
    }

    property! {
        fn every_slot_of_random_route_map_bases(case in route_map_case) cases 24 {
            let base = Config::parse(&case.0).unwrap();
            let snippet = Config::parse(&case.1).unwrap();
            check_every_slot(RouteMapInsertion::new(&base, "RM", &snippet, "NEW").unwrap());
        }

        fn every_slot_of_random_acl_bases(case in acl_case) cases 32 {
            let base = Config::parse(&case.0).unwrap();
            let entry = Config::parse(&format!("ip access-list extended X\n{}", case.1))
                .unwrap()
                .acls["X"]
                .entries[0]
                .clone();
            check_every_slot(AclInsertion::new(&base, "A", &entry).unwrap());
        }

        fn every_slot_of_random_prefix_list_bases(case in prefix_case) cases 48 {
            let text: String = case
                .0
                .iter()
                .enumerate()
                .map(|(i, e)| format!("ip prefix-list PL seq {} {e}\n", (i + 1) * 5))
                .collect();
            let base = Config::parse(&text).unwrap();
            let entry: PrefixListEntry =
                Config::parse(&format!("ip prefix-list X seq 5 {}\n", case.1))
                    .unwrap()
                    .prefix_lists["X"]
                    .entries[0]
                    .clone();
            check_every_slot(PrefixListInsertion::new(&base, "PL", &entry).unwrap());
        }
    }
}

#[test]
fn linear_scan_asks_more_questions_than_binary_search() {
    let n = 8;
    let (base, snip) = tagged_family(n);
    // Intend the bottom slot: linear scan must walk all n candidates.
    let intended = clarify_netconfig::insert_route_map_stanza(&base, "RM", &snip, "NEW", n)
        .unwrap()
        .0;
    let mut oracle = IntentOracle::new(&intended, "RM");
    let lin = Disambiguator::new(PlacementStrategy::LinearScan)
        .insert(&base, "RM", &snip, "NEW", &mut oracle)
        .unwrap();
    let mut oracle = IntentOracle::new(&intended, "RM");
    let bin = Disambiguator::new(PlacementStrategy::BinarySearch)
        .insert(&base, "RM", &snip, "NEW", &mut oracle)
        .unwrap();
    assert_eq!(lin.questions, n);
    assert!(bin.questions < lin.questions);
    verify_against_intent(&lin.config, "RM", &intended, "RM").unwrap();
    verify_against_intent(&bin.config, "RM", &intended, "RM").unwrap();
}

#[test]
fn intent_oracle_detects_unreachable_intent() {
    // Intent: deny routes with tag 1 entirely — impossible by inserting the
    // metric-99 snippet anywhere.
    let (base, snip) = tagged_family(3);
    let intended = Config::parse(
        "route-map RM deny 5\n match tag 1\nroute-map RM permit 10\n match tag 0\n set metric 1000\nroute-map RM permit 20\n match tag 2\n set metric 1002\n",
    )
    .unwrap();
    let mut oracle = IntentOracle::new(&intended, "RM");
    let r = Disambiguator::default().insert(&base, "RM", &snip, "NEW", &mut oracle);
    match r {
        Err(ClarifyError::NoValidInsertion { .. }) => {}
        Ok(result) => {
            // The search may converge without ever surfacing the bad
            // region; the post-insertion check must catch it instead.
            let v = verify_against_intent(&result.config, "RM", &intended, "RM");
            assert!(matches!(v, Err(ClarifyError::NoValidInsertion { .. })));
        }
        Err(other) => panic!("unexpected error {other}"),
    }
}

#[test]
fn session_counts_stats_like_figure_4() {
    let mut session = ClarifySession::new(SemanticBackend::new(), 3, Disambiguator::default());
    let base = Config::parse(ISP_OUT).unwrap();
    let intended = intended_fig2a();
    let mut oracle = IntentOracle::new(&intended, "ISP_OUT");
    let out = session
        .add_stanza(
            &base,
            "ISP_OUT",
            "Write a route-map stanza that permits routes containing the prefix 100.0.0.0/16 \
             with mask length less than or equal to 23 and tagged with the community 300:3. \
             Their MED value should be set to 55.",
            &mut oracle,
        )
        .unwrap();
    let AddStanzaOutcome::Inserted {
        config,
        result,
        llm_calls,
    } = out
    else {
        panic!("expected insertion");
    };
    assert_eq!(llm_calls, 3);
    assert!(result.questions >= 1);
    verify_against_intent(&config, "ISP_OUT", &intended, "ISP_OUT").unwrap();
    let stats = session.stats();
    assert_eq!(stats.llm_calls, 3);
    assert_eq!(stats.stanzas_added, 1);
    assert_eq!(stats.disambiguations, result.questions);
    assert_eq!(stats.punts, 0);
}

#[test]
fn session_creates_missing_route_map() {
    let mut session = ClarifySession::new(SemanticBackend::new(), 3, Disambiguator::default());
    let base = Config::new();
    let mut oracle = FnOracle(|_: &crate::DisambiguationQuestion| panic!("no question expected"));
    let out = session
        .add_stanza(
            &base,
            "FRESH",
            "Write a route-map stanza that denies routes originating from AS 65001.",
            &mut oracle,
        )
        .unwrap();
    let AddStanzaOutcome::Inserted { config, .. } = out else {
        panic!("expected insertion");
    };
    assert_eq!(config.route_map("FRESH").unwrap().stanzas.len(), 1);
}

#[test]
fn session_reports_punts() {
    use clarify_llm::FaultyBackend;
    let backend = FaultyBackend::new(SemanticBackend::new(), 1.0, 3);
    let mut session = ClarifySession::new(backend, 2, Disambiguator::default());
    let base = Config::parse(ISP_OUT).unwrap();
    let intended = intended_fig2a();
    let mut oracle = IntentOracle::new(&intended, "ISP_OUT");
    let out = session
        .add_stanza(
            &base,
            "ISP_OUT",
            "Write a route-map stanza that permits routes containing the prefix 100.0.0.0/16 \
             with mask length less than or equal to 23 and tagged with the community 300:3. \
             Their MED value should be set to 55.",
            &mut oracle,
        )
        .unwrap();
    assert!(matches!(out, AddStanzaOutcome::Punted { .. }));
    assert_eq!(session.stats().punts, 1);
    assert_eq!(session.stats().stanzas_added, 0);
}

// ---------------------------------------------------------------------
// §4 formal model
// ---------------------------------------------------------------------

mod model_tests {
    use super::*;

    type Rule = fn(&u32) -> bool;

    fn rules() -> Vec<Rule> {
        vec![
            |x: &u32| (*x).is_multiple_of(2), // rule 0: evens
            |x: &u32| (*x).is_multiple_of(3), // rule 1: multiples of three
            |x: &u32| *x < 100,               // rule 2: small numbers
        ]
    }

    #[test]
    fn semantics_is_first_match() {
        let rs = rules();
        assert_eq!(semantics(&rs, &4), Some(0));
        assert_eq!(semantics(&rs, &9), Some(1));
        assert_eq!(semantics(&rs, &7), Some(2));
        assert_eq!(semantics(&rs, &101), None);
    }

    #[test]
    fn conditions_satisfied_for_consistent_intent() {
        let rs = rules();
        let new_rule = |x: &u32| (*x).is_multiple_of(5);
        let universe: Vec<u32> = (0..50).collect();
        // Intent: multiples of 5 not already handled by rule 0 go to S*.
        let m_prime: Vec<IntentTarget> = universe
            .iter()
            .map(|x| {
                if x % 5 == 0 && x % 2 != 0 && x % 3 != 0 {
                    IntentTarget::NewRule
                } else {
                    IntentTarget::Original
                }
            })
            .collect();
        assert_eq!(
            check_conditions(&rs, &new_rule, &universe, &m_prime),
            ConditionReport::Satisfied
        );
        let points = valid_insertion_points(&rs, &new_rule, &universe, &m_prime);
        assert!(!points.is_empty());
        // Inserting after rule 1 (mult of 3) and before rule 2 works: odd
        // non-multiples-of-3 multiples of 5 reach S* there.
        assert!(points.contains(&2), "{points:?}");
    }

    #[test]
    fn condition_two_violation_detected() {
        let rs = rules();
        let new_rule = |x: &u32| *x == 42;
        let universe = vec![41u32];
        let m_prime = vec![IntentTarget::NewRule]; // 41 does not match S*
        assert_eq!(
            check_conditions(&rs, &new_rule, &universe, &m_prime),
            ConditionReport::NewRuleMismatch(0)
        );
    }

    #[test]
    fn condition_three_violation_detected() {
        let rs = rules();
        let new_rule = |x: &u32| *x == 4 || *x == 9;
        // 4 is handled by rule 0, 9 by rule 1. Intent: keep 9 at rule 1 but
        // send 4 to S*. S* would have to sit before rule 0 (to catch 4)
        // and after rule 1 (to spare 9) — impossible since rule 0 < rule 1.
        let universe = vec![4u32, 9u32];
        let m_prime = vec![IntentTarget::NewRule, IntentTarget::Original];
        assert_eq!(
            check_conditions(&rs, &new_rule, &universe, &m_prime),
            ConditionReport::NoInsertionPoint(1, 0)
        );
        assert!(valid_insertion_points(&rs, &new_rule, &universe, &m_prime).is_empty());
    }

    #[test]
    fn valid_points_are_contiguous() {
        let rs = rules();
        let new_rule = |x: &u32| *x == 7;
        let universe: Vec<u32> = (0..20).collect();
        let m_prime: Vec<IntentTarget> = universe
            .iter()
            .map(|x| {
                if *x == 7 {
                    IntentTarget::NewRule
                } else {
                    IntentTarget::Original
                }
            })
            .collect();
        let points = valid_insertion_points(&rs, &new_rule, &universe, &m_prime);
        // 7 is currently handled by rule 2; S* must come before rule 2.
        assert_eq!(points, vec![0, 1, 2]);
        // Contiguity (the paper's "all such locations are equivalent").
        for w in points.windows(2) {
            assert_eq!(w[1], w[0] + 1);
        }
    }

    #[test]
    fn implicit_deny_modelled_with_trailing_rule() {
        let mut rs = rules();
        rs.push(|_x: &u32| true); // explicit catch-all
        assert_eq!(semantics(&rs, &101), Some(3));
    }
}

// ---------------------------------------------------------------------
// ACL disambiguation
// ---------------------------------------------------------------------

mod acl_tests {
    use super::*;
    use crate::{
        verify_acl_against_intent, AclIntentOracle, FnAclOracle, PlanStep, Turn, UserOracle,
    };
    use clarify_netconfig::insert_acl_entry;

    const EDGE: &str = "\
ip access-list extended EDGE
 deny tcp any any eq 22
 permit tcp 10.0.0.0/8 any
 deny udp any any range 8000 8100
 permit ip any any
";

    fn new_entry() -> clarify_netconfig::AclEntry {
        // Denies TCP from a subnet: overlaps entries 0, 1 and 3.
        Config::parse("ip access-list extended X\n deny tcp 10.5.0.0/16 any\n")
            .unwrap()
            .acls["X"]
            .entries[0]
            .clone()
    }

    #[test]
    fn acl_binary_search_hits_every_slot() {
        let base = Config::parse(EDGE).unwrap();
        let kind = crate::AclInsertion::new(&base, "EDGE", &new_entry()).unwrap();
        let (overlaps, questions) = super::check_every_slot(kind);
        // Entry 2 (udp) does not overlap a tcp entry.
        assert_eq!(overlaps, 3);
        assert!(questions <= 2, "{questions} questions");
    }

    #[test]
    fn acl_no_overlap_appends_without_questions() {
        let base = Config::parse("ip access-list extended A\n permit udp any any eq 53\n").unwrap();
        let entry = new_entry(); // tcp: disjoint from udp:53
        let mut oracle = FnAclOracle(|_: &crate::AclQuestion| panic!("no question expected"));
        let result = Disambiguator::new(PlacementStrategy::BinarySearch)
            .disambiguate(
                crate::AclInsertion::new(&base, "A", &entry).unwrap(),
                &mut oracle,
            )
            .unwrap();
        assert_eq!(result.questions, 0);
        assert_eq!(result.position, 1);
    }

    #[test]
    fn acl_question_renders() {
        let base = Config::parse(EDGE).unwrap();
        let entry = new_entry();
        let intended_cfg = insert_acl_entry(&base, "EDGE", entry.clone(), 0).unwrap();
        let intended = intended_cfg.acl("EDGE").unwrap().clone();
        let mut oracle = AclIntentOracle {
            intended: &intended,
        };
        let result = Disambiguator::new(PlacementStrategy::TopBottomOnly)
            .disambiguate(
                crate::AclInsertion::new(&base, "EDGE", &entry).unwrap(),
                &mut oracle,
            )
            .unwrap();
        assert_eq!(result.questions, 1);
        let s = result.transcript[0].0.to_string();
        assert!(s.contains("Packet:"), "{s}");
        assert!(s.contains("OPTION 1:"), "{s}");
        assert!(s.contains("OPTION 2:"), "{s}");
    }

    #[test]
    fn session_adds_acl_entry_from_prompt() {
        let mut session = ClarifySession::new(SemanticBackend::new(), 3, Disambiguator::default());
        let base = Config::parse(EDGE).unwrap();
        // Intent: allow host 10.9.9.9 to reach anything over tcp, even :22.
        let prompt = "Write an access-list rule that permits tcp packets from host 10.9.9.9 \
                      to any.";
        let entry = Config::parse("ip access-list extended X\n permit tcp host 10.9.9.9 any\n")
            .unwrap()
            .acls["X"]
            .entries[0]
            .clone();
        let intended_cfg = clarify_netconfig::insert_acl_entry(&base, "EDGE", entry, 0).unwrap();
        let intended = intended_cfg.acl("EDGE").unwrap().clone();
        let mut oracle = AclIntentOracle {
            intended: &intended,
        };
        let outcome = session.synthesize(prompt).unwrap();
        let llm_calls = outcome.llm_calls();
        let turn = session.plan(&base, "EDGE", &outcome).unwrap();
        // The daemon's way through a turn: one answer at a time, then
        // finish.
        let Turn::Acl(plan) = &turn else {
            panic!("expected an ACL turn");
        };
        let mut answers = Vec::new();
        while let PlanStep::Ask { question, .. } = plan.step(&answers) {
            answers.push(oracle.choose(question).unwrap());
        }
        let result = session.finish(&turn, &answers).unwrap();
        assert_eq!(llm_calls, 3);
        assert_eq!(result.position, 0, "above the ssh deny");
        verify_acl_against_intent(&result.config, "EDGE", &intended).unwrap();
        assert_eq!(session.stats().stanzas_added, 1);
    }

    #[test]
    fn session_creates_missing_acl() {
        let mut session = ClarifySession::new(SemanticBackend::new(), 3, Disambiguator::default());
        let outcome = session
            .synthesize(
                "Write an access-list rule that denies udp packets from any to any with \
                 destination port 111.",
            )
            .unwrap();
        let turn = session.plan(&Config::new(), "NEW_ACL", &outcome).unwrap();
        let result = session
            .drive(turn, &mut |_, _| panic!("no question expected"))
            .unwrap();
        assert_eq!(result.config.acl("NEW_ACL").unwrap().entries.len(), 1);
    }
}

// ---------------------------------------------------------------------
// Prefix-list disambiguation (the paper's §7 future work)
// ---------------------------------------------------------------------

mod prefix_list_tests {
    use super::*;
    use crate::PrefixIntentOracle;
    use clarify_netconfig::{insert_prefix_list_entry, PrefixListEntry};

    const LIST: &str = "\
ip prefix-list PL seq 5 deny 10.1.0.0/16 le 24
ip prefix-list PL seq 10 permit 10.0.0.0/8 le 24
ip prefix-list PL seq 15 deny 192.168.0.0/16 le 32
";

    fn new_entry() -> PrefixListEntry {
        PrefixListEntry {
            seq: 0,
            action: clarify_netconfig::Action::Permit,
            range: "10.1.128.0/17 le 24".parse().unwrap(),
        }
    }

    #[test]
    fn prefix_binary_search_hits_every_slot() {
        let base = Config::parse(LIST).unwrap();
        let kind = crate::PrefixListInsertion::new(&base, "PL", &new_entry()).unwrap();
        // The new entry overlaps the 10.1/16 deny and the 10/8 permit but
        // not the 192.168 deny; every slot's final list is behaviourally
        // equal to the intended one on all prefixes.
        let (overlaps, _) = super::check_every_slot(kind);
        assert_eq!(overlaps, 2);
    }

    #[test]
    fn prefix_question_shows_concrete_prefix() {
        let base = Config::parse(LIST).unwrap();
        let entry = new_entry();
        let intended_cfg = insert_prefix_list_entry(&base, "PL", entry.clone(), 0).unwrap();
        let intended = intended_cfg.prefix_lists["PL"].clone();
        let mut oracle = PrefixIntentOracle {
            intended: &intended,
        };
        let result = Disambiguator::new(PlacementStrategy::BinarySearch)
            .disambiguate(
                crate::PrefixListInsertion::new(&base, "PL", &entry).unwrap(),
                &mut oracle,
            )
            .unwrap();
        assert!(result.questions >= 1);
        let (q, _) = &result.transcript[0];
        // The differential prefix lies in the contested region.
        assert!("10.1.128.0/17"
            .parse::<clarify_nettypes::Prefix>()
            .unwrap()
            .covers(&q.prefix));
        assert_ne!(q.first_permits, q.second_permits);
        let s = q.to_string();
        assert!(s.contains("OPTION 1:"), "{s}");
    }

    #[test]
    fn prefix_no_overlap_appends() {
        let base = Config::parse(LIST).unwrap();
        let entry = PrefixListEntry {
            seq: 0,
            action: clarify_netconfig::Action::Permit,
            range: "172.16.0.0/12 le 24".parse().unwrap(),
        };
        struct Panic;
        impl crate::UserOracle<crate::PrefixQuestion> for Panic {
            fn choose(
                &mut self,
                _q: &crate::PrefixQuestion,
            ) -> Result<crate::Choice, crate::ClarifyError> {
                panic!("no question expected")
            }
        }
        let result = Disambiguator::new(PlacementStrategy::BinarySearch)
            .disambiguate(
                crate::PrefixListInsertion::new(&base, "PL", &entry).unwrap(),
                &mut Panic,
            )
            .unwrap();
        assert_eq!(result.questions, 0);
        assert_eq!(result.position, 3);
    }
}

// ---------------------------------------------------------------------
// §4's sequential-insertion caveat: "There can be situations where the
// order in which they are added ... can cause the approach to fail even
// though there is a solution."
// ---------------------------------------------------------------------

mod order_dependence {
    use super::*;
    use crate::model::{valid_insertion_points, IntentTarget};
    use crate::verify_against_intent;

    /// Abstract-model version. X handles {1}; A handles {2}; B handles
    /// {1,2}. Jointly [A, B, X] realizes (1 -> B, 2 -> A), but inserting A
    /// first at its *other* equivalent position (after X) makes B's intent
    /// unrealizable.
    #[test]
    fn greedy_slot_choice_can_preclude_later_rules() {
        type R = fn(&u32) -> bool;
        let x: R = |v| *v == 1;
        let a: R = |v| *v == 2;
        let b: R = |v| *v == 1 || *v == 2;
        let universe = vec![1u32, 2u32];

        // Inserting A alone: both positions are valid (A and X are
        // disjoint) — the §4 equivalence the algorithm exploits.
        let m_a = vec![IntentTarget::Original, IntentTarget::NewRule];
        let points = valid_insertion_points(&[x], &a, &universe, &m_a);
        assert_eq!(points, vec![0, 1]);

        // Choice 1 (append; what the implementation picks): [X, A].
        // B's intent: 1 -> B, 2 -> stays with A. No insertion point.
        let m_b = vec![IntentTarget::NewRule, IntentTarget::Original];
        assert!(valid_insertion_points(&[x, a], &b, &universe, &m_b).is_empty());

        // Choice 0: [A, X]. Now B fits between them.
        assert_eq!(
            valid_insertion_points(&[a, x], &b, &universe, &m_b),
            vec![1]
        );
    }

    fn base_x() -> Config {
        Config::parse("route-map RM permit 10\n match tag 1\n set metric 1001\n").unwrap()
    }

    fn snippet_a() -> Config {
        Config::parse("route-map A permit 10\n match tag 2\n set metric 1002\n").unwrap()
    }

    fn snippet_b() -> Config {
        // Matches everything.
        Config::parse("route-map B permit 10\n set metric 7\n").unwrap()
    }

    /// The intended final policy: tag-2 routes keep going to A; everything
    /// else (including tag 1) goes to the new catch-all B; X is shadowed.
    fn intended_final() -> Config {
        Config::parse(
            "route-map RM permit 10\n match tag 2\n set metric 1002\n\
             route-map RM permit 20\n set metric 7\n\
             route-map RM permit 30\n match tag 1\n set metric 1001\n",
        )
        .unwrap()
    }

    /// Inserting A first (it overlaps nothing, so it is appended), then B,
    /// fails: the appended A sits below X, and B would have to be both
    /// above X and below A. The failure is detected, not silent.
    #[test]
    fn unlucky_order_fails_detectably() {
        let intended = intended_final();
        let d = Disambiguator::default();
        let mut oracle = IntentOracle::new(&intended, "RM");
        let step1 = d
            .insert(&base_x(), "RM", &snippet_a(), "A", &mut oracle)
            .unwrap();
        assert_eq!(step1.questions, 0, "A overlaps nothing");
        assert_eq!(step1.position, 1, "appended below X");

        let mut oracle = IntentOracle::new(&intended, "RM");
        match d.insert(&step1.config, "RM", &snippet_b(), "B", &mut oracle) {
            Err(ClarifyError::NoValidInsertion { .. }) => {}
            Ok(result) => {
                let v = verify_against_intent(&result.config, "RM", &intended, "RM");
                assert!(
                    matches!(v, Err(ClarifyError::NoValidInsertion { .. })),
                    "the post-insertion check must catch the failure"
                );
            }
            Err(other) => panic!("unexpected error {other}"),
        }
    }

    /// The other order succeeds: B (which overlaps X) is placed above it
    /// by one question, then A lands above B, realizing the joint intent.
    #[test]
    fn lucky_order_succeeds() {
        let intended = intended_final();
        let d = Disambiguator::default();
        // Intermediate intent after inserting only B: everything -> B
        // except nothing stays with X (B shadows X entirely).
        let intermediate = Config::parse(
            "route-map RM permit 10\n set metric 7\n\
             route-map RM permit 20\n match tag 1\n set metric 1001\n",
        )
        .unwrap();
        let mut oracle = IntentOracle::new(&intermediate, "RM");
        let step1 = d
            .insert(&base_x(), "RM", &snippet_b(), "B", &mut oracle)
            .unwrap();
        assert_eq!(step1.position, 0, "B above X");

        let mut oracle = IntentOracle::new(&intended, "RM");
        let step2 = d
            .insert(&step1.config, "RM", &snippet_a(), "A", &mut oracle)
            .unwrap();
        verify_against_intent(&step2.config, "RM", &intended, "RM").unwrap();
    }

    /// The paper's special case: when the inserted rules are meant to be
    /// contiguous, sequential insertion succeeds in *either* order.
    #[test]
    fn contiguous_rules_succeed_in_any_order() {
        // Intended: [X, A, B] with A and B contiguous at the bottom.
        let intended = Config::parse(
            "route-map RM permit 10\n match tag 1\n set metric 1001\n\
             route-map RM permit 20\n match tag 2\n set metric 1002\n\
             route-map RM permit 30\n set metric 7\n",
        )
        .unwrap();
        let d = Disambiguator::default();

        // Order A then B.
        let mut oracle = IntentOracle::new(&intended, "RM");
        let s1 = d
            .insert(&base_x(), "RM", &snippet_a(), "A", &mut oracle)
            .unwrap();
        let mut oracle = IntentOracle::new(&intended, "RM");
        let s2 = d
            .insert(&s1.config, "RM", &snippet_b(), "B", &mut oracle)
            .unwrap();
        verify_against_intent(&s2.config, "RM", &intended, "RM").unwrap();

        // Order B then A. Intermediate intent: B at the bottom, X intact.
        let intermediate = Config::parse(
            "route-map RM permit 10\n match tag 1\n set metric 1001\n\
             route-map RM permit 20\n set metric 7\n",
        )
        .unwrap();
        let mut oracle = IntentOracle::new(&intermediate, "RM");
        let s1 = d
            .insert(&base_x(), "RM", &snippet_b(), "B", &mut oracle)
            .unwrap();
        let mut oracle = IntentOracle::new(&intended, "RM");
        let s2 = d
            .insert(&s1.config, "RM", &snippet_a(), "A", &mut oracle)
            .unwrap();
        verify_against_intent(&s2.config, "RM", &intended, "RM").unwrap();
    }
}

// ---------------------------------------------------------------------
// Network-level safe updates (what-if + invariants + rollback)
// ---------------------------------------------------------------------

mod network_session_tests {
    use super::*;
    use crate::{Invariant, NetworkSession, NetworkUpdateOutcome};
    use clarify_netsim::NetworkBuilder;
    use clarify_nettypes::Prefix;

    fn pfx(s: &str) -> Prefix {
        s.parse().unwrap()
    }

    /// ISP — BORDER — CORE; the border imports from the ISP through
    /// ISP_IN and exports to it through ISP_OUT.
    fn build() -> clarify_netsim::Network {
        let border_cfg = Config::parse(
            "ip prefix-list PRIV seq 5 permit 10.0.0.0/8 le 32\n\
             route-map ISP_IN permit 10\n\
             route-map ISP_OUT deny 10\n match ip address prefix-list PRIV\n\
             route-map ISP_OUT permit 20\n",
        )
        .unwrap();
        let mut b = NetworkBuilder::new();
        b.router("ISP", 100).originate(pfx("8.8.0.0/16"));
        b.router("BORDER", 65001)
            .config(border_cfg)
            .originate(pfx("203.0.113.0/24"));
        b.router("CORE", 65001).originate(pfx("10.5.0.0/16"));
        b.session_pair("BORDER", "ISP", Some("ISP_IN"), Some("ISP_OUT"), None, None)
            .unwrap();
        b.link("BORDER", "CORE").unwrap();
        b.build().unwrap()
    }

    fn invariants() -> Vec<Invariant> {
        vec![
            Invariant::Reachable {
                router: "CORE".into(),
                prefix: pfx("8.8.0.0/16"),
            },
            Invariant::Unreachable {
                router: "ISP".into(),
                prefix: pfx("10.5.0.0/16"),
            },
            Invariant::Reachable {
                router: "ISP".into(),
                prefix: pfx("203.0.113.0/24"),
            },
        ]
    }

    #[test]
    fn initial_invariants_must_hold() {
        let mut bad = invariants();
        bad.push(Invariant::Reachable {
            router: "ISP".into(),
            prefix: pfx("10.5.0.0/16"),
        });
        let err = NetworkSession::new(
            build(),
            SemanticBackend::new(),
            3,
            Disambiguator::default(),
            bad,
        )
        .err()
        .expect("contradictory invariant set rejected");
        assert!(matches!(err, ClarifyError::Simulation(_)));
    }

    #[test]
    fn good_update_commits() {
        let mut ns = NetworkSession::new(
            build(),
            SemanticBackend::new(),
            3,
            Disambiguator::default(),
            invariants(),
        )
        .unwrap();
        // Block a hijacker AS on import: harmless to the invariants.
        let border = ns.network().router("BORDER").unwrap().config.clone();
        let intended = {
            let prompt = "Write a route-map stanza that denies routes originating from AS 666.";
            let intent = clarify_llm::RouteMapIntent::parse(prompt).unwrap();
            let (snippet, name) = intent.to_snippet().unwrap();
            clarify_netconfig::insert_route_map_stanza(&border, "ISP_IN", &snippet, &name, 0)
                .unwrap()
                .0
        };
        let mut oracle = IntentOracle::new(&intended, "ISP_IN");
        let out = ns
            .add_stanza_on(
                "BORDER",
                "ISP_IN",
                "Write a route-map stanza that denies routes originating from AS 666.",
                &mut oracle,
            )
            .unwrap();
        assert!(
            matches!(out, NetworkUpdateOutcome::Committed { .. }),
            "{out:?}"
        );
        // The committed network still satisfies everything and now holds
        // the new stanza.
        assert_eq!(
            ns.network()
                .router("BORDER")
                .unwrap()
                .config
                .route_map("ISP_IN")
                .unwrap()
                .stanzas
                .len(),
            2
        );
    }

    #[test]
    fn leaky_update_rolls_back() {
        let mut ns = NetworkSession::new(
            build(),
            SemanticBackend::new(),
            3,
            Disambiguator::default(),
            invariants(),
        )
        .unwrap();
        // "Permit routes containing the prefix 10.0.0.0/8 ..." on ISP_OUT,
        // placed ABOVE the private-space deny: leaks 10.5/16 to the ISP.
        let border = ns.network().router("BORDER").unwrap().config.clone();
        let prompt = "Write a route-map stanza that permits routes containing the prefix \
                      10.0.0.0/8 with mask length less than or equal to 24.";
        let intent = clarify_llm::RouteMapIntent::parse(prompt).unwrap();
        let (snippet, name) = intent.to_snippet().unwrap();
        let intended =
            clarify_netconfig::insert_route_map_stanza(&border, "ISP_OUT", &snippet, &name, 0)
                .unwrap()
                .0;
        let mut oracle = IntentOracle::new(&intended, "ISP_OUT");
        let out = ns
            .add_stanza_on("BORDER", "ISP_OUT", prompt, &mut oracle)
            .unwrap();
        let NetworkUpdateOutcome::RolledBack { violated, .. } = out else {
            panic!("expected rollback, got {out:?}");
        };
        assert!(
            violated
                .iter()
                .any(|v| v.contains("ISP cannot reach 10.5.0.0/16")),
            "{violated:?}"
        );
        // The network is unchanged.
        assert!(!ns.network().can_reach("ISP", &pfx("10.5.0.0/16")));
        assert_eq!(
            ns.network()
                .router("BORDER")
                .unwrap()
                .config
                .route_map("ISP_OUT")
                .unwrap()
                .stanzas
                .len(),
            2,
            "rolled back to the original two stanzas"
        );
    }

    #[test]
    fn unknown_router_is_an_error() {
        let mut ns = NetworkSession::new(
            build(),
            SemanticBackend::new(),
            3,
            Disambiguator::default(),
            invariants(),
        )
        .unwrap();
        let mut oracle = FnOracle(|_: &crate::DisambiguationQuestion| Choice::First);
        let err = ns
            .add_stanza_on(
                "GHOST",
                "X",
                "Write a route-map stanza that denies all routes.",
                &mut oracle,
            )
            .unwrap_err();
        assert!(matches!(err, ClarifyError::Simulation(_)));
    }
}

mod model_properties {
    use crate::model::{check_conditions, valid_insertion_points, ConditionReport, IntentTarget};
    use clarify_testkit::{gens, prop_assert, prop_assert_eq, property};

    /// Rules and the new rule are random subsets of a tiny universe,
    /// encoded as bitmasks over inputs 0..6.
    #[derive(Clone, Debug)]
    struct MaskRule(u8);
    impl crate::model::AbstractRule<u32> for MaskRule {
        fn matches(&self, input: &u32) -> bool {
            self.0 & (1 << *input) != 0
        }
    }

    /// The body of the property, shared with the explicit regression
    /// cases below.
    fn check_valid_points(rule_masks: Vec<u8>, new_mask: u8, intent_bits: u8) {
        let rules: Vec<MaskRule> = rule_masks.into_iter().map(MaskRule).collect();
        let new_rule = MaskRule(new_mask);
        let universe: Vec<u32> = (0..6).collect();
        // Intent: input i goes to the new rule iff bit i of intent_bits
        // is set AND the new rule actually matches it (so condition 2
        // holds by construction for the "holds" direction; violations
        // are exercised when the bit is set but the rule mismatches).
        let m_prime: Vec<IntentTarget> = universe
            .iter()
            .map(|i| {
                if intent_bits & (1 << i) != 0 {
                    IntentTarget::NewRule
                } else {
                    IntentTarget::Original
                }
            })
            .collect();
        let points = valid_insertion_points(&rules, &new_rule, &universe, &m_prime);
        // Contiguity.
        for w in points.windows(2) {
            prop_assert_eq!(w[1], w[0] + 1, "valid slots form a range: {:?}", points);
        }
        // Soundness: conditions satisfied => at least one point; a
        // violated condition 2 or 3 => no point.
        match check_conditions(&rules, &new_rule, &universe, &m_prime) {
            ConditionReport::Satisfied => {
                // Condition 1 is structural; 2 and 3 hold. There must
                // be an insertion point.
                prop_assert!(!points.is_empty(), "conditions hold but no slot");
            }
            _ => prop_assert!(points.is_empty(), "conditions fail but slot exists"),
        }
    }

    property! {
        /// The §4 equivalence claim: the set of valid insertion points is
        /// always a contiguous (possibly empty) range, and it is non-empty
        /// exactly when the three conditions hold.
        fn valid_points_contiguous_and_conditions_sound(
            rule_masks in gens::vec_of(gens::ints(0u8..64), 0, 3),
            new_mask in gens::ints(0u8..64),
            intent_bits in gens::ints(0u8..64),
        ) cases 256 {
            check_valid_points(rule_masks, new_mask, intent_bits);
        }
    }

    /// Saved shrunk corner cases from the original generated-failure seed
    /// file, kept as explicit tests so they run on every build:
    ///
    /// * `rule_masks = [], new_mask = 17, intent_bits = 16` — the intent
    ///   routes input 4 to the new rule and the new rule matches it, but
    ///   input 0 (also matched by the new rule) must stay Original; with
    ///   no existing rules there is nowhere "below" the new rule for
    ///   input 0 to fall through to, so condition 3 must reject every
    ///   slot rather than report Satisfied with an empty range.
    /// * `rule_masks = [], new_mask = 1, intent_bits = 0` — the new rule
    ///   matches input 0 but the intent sends no input to it at all; the
    ///   empty-config corner where the "conditions fail => no slot"
    ///   direction once disagreed with `check_conditions`.
    #[test]
    fn condition_three_empty_config_corner_cases() {
        check_valid_points(vec![], 17, 16);
        check_valid_points(vec![], 1, 0);
    }
}

#[test]
fn equivalent_pivot_does_not_truncate_search() {
    // Regression (found in review): a deny snippet crossing a deny stanza
    // produces no behavioural difference at that pivot; the old search
    // treated the equivalence as "go left" and could never reach intents
    // to the right of it.
    let base = Config::parse(
        "ip prefix-list PA seq 5 permit 10.1.0.0/16 le 32\n\
         ip prefix-list PB seq 5 permit 10.2.0.0/16 le 32\n\
         ip prefix-list PC seq 5 permit 10.3.0.0/16 le 32\n\
         route-map RM permit 10\n match ip address prefix-list PA\n\
         route-map RM deny 20\n match ip address prefix-list PB\n\
         route-map RM permit 30\n match ip address prefix-list PC\n",
    )
    .unwrap();
    let snip = Config::parse(
        "ip prefix-list WIDE seq 5 permit 10.0.0.0/8 le 32\n\
         route-map NEW deny 10\n match ip address prefix-list WIDE\n",
    )
    .unwrap();
    // Intent: the catch-all deny goes at the very bottom (slot 3), so the
    // three existing stanzas keep their behaviour.
    for slot in 0..=3usize {
        let intended = clarify_netconfig::insert_route_map_stanza(&base, "RM", &snip, "NEW", slot)
            .unwrap()
            .0;
        for strategy in [
            PlacementStrategy::BinarySearch,
            PlacementStrategy::LinearScan,
        ] {
            let mut oracle = IntentOracle::new(&intended, "RM");
            let result = Disambiguator::new(strategy)
                .insert(&base, "RM", &snip, "NEW", &mut oracle)
                .unwrap_or_else(|e| panic!("slot {slot} {strategy:?}: {e}"));
            crate::verify_against_intent(&result.config, "RM", &intended, "RM")
                .unwrap_or_else(|e| panic!("slot {slot} {strategy:?}: {e}"));
        }
    }
}

#[test]
fn acl_equivalent_pivot_does_not_truncate_search() {
    use crate::{verify_acl_against_intent, AclIntentOracle};
    use clarify_netconfig::insert_acl_entry;
    // permit / deny / permit over disjoint ports; a deny-everything entry
    // crossing the middle deny is an equivalent pivot.
    let base = Config::parse(
        "ip access-list extended A\n permit tcp any any eq 80\n deny tcp any any eq 81\n permit tcp any any eq 82\n",
    )
    .unwrap();
    let entry = Config::parse("ip access-list extended X\n deny tcp any any\n")
        .unwrap()
        .acls["X"]
        .entries[0]
        .clone();
    for pos in 0..=3usize {
        let intended_cfg = insert_acl_entry(&base, "A", entry.clone(), pos).unwrap();
        let intended = intended_cfg.acl("A").unwrap().clone();
        let mut oracle = AclIntentOracle {
            intended: &intended,
        };
        let result = Disambiguator::new(PlacementStrategy::BinarySearch)
            .disambiguate(
                crate::AclInsertion::new(&base, "A", &entry).unwrap(),
                &mut oracle,
            )
            .unwrap_or_else(|e| panic!("pos {pos}: {e}"));
        verify_acl_against_intent(&result.config, "A", &intended)
            .unwrap_or_else(|e| panic!("pos {pos}: {e}"));
    }
}
