use clarify_netconfig::{Config, ObjectKind, RuleId};

use crate::{lint_config, LintCode, Severity};

fn lint_text(text: &str) -> crate::LintReport {
    let (cfg, spans) = Config::parse_with_spans(text).unwrap();
    lint_config(&cfg, Some(&spans)).unwrap()
}

#[test]
fn shadowed_route_map_stanza_is_flagged_with_witness() {
    let report = lint_text(
        "ip prefix-list COVER seq 10 permit 10.0.0.0/8 le 32
ip prefix-list NARROW seq 10 permit 10.1.0.0/16 le 32
route-map RM deny 10
 match ip address prefix-list COVER
route-map RM deny 20
 match ip address prefix-list NARROW
route-map RM permit 30
",
    );
    let shadowed: Vec<_> = report.with_code(LintCode::ShadowedRule).collect();
    assert_eq!(shadowed.len(), 1, "{report:?}");
    let d = shadowed[0];
    assert_eq!(d.rule, RuleId::route_map_stanza("RM", 20));
    assert_eq!(d.related, Some(RuleId::route_map_stanza("RM", 10)));
    assert_eq!(d.severity, Severity::Warning);
    assert_eq!(d.line, Some(5));
    // The witness names a concrete route inside the shadowed match set.
    let witness = d.witness.as_deref().expect("witness");
    assert!(witness.contains("10.1."), "witness was {witness}");
    assert!(d.suggested_fix.as_deref().unwrap().contains("stanza 10"));
}

#[test]
fn redundant_deny_before_implicit_deny_is_flagged() {
    let report = lint_text(
        "route-map R2 permit 10
 match local-preference 100
route-map R2 deny 20
 match metric 5
",
    );
    let redundant: Vec<_> = report.with_code(LintCode::RedundantRule).collect();
    assert_eq!(redundant.len(), 1, "{report:?}");
    assert_eq!(redundant[0].rule, RuleId::route_map_stanza("R2", 20));
    // Stanza 20 is not shadowed: it does fire (lp != 100, metric == 5).
    assert_eq!(report.with_code(LintCode::ShadowedRule).count(), 0);
    // The lp=100 ∧ metric=5 region is a genuine conflicting overlap note.
    let conflicts: Vec<_> = report.with_code(LintCode::ConflictingOverlap).collect();
    assert_eq!(conflicts.len(), 1);
    assert_eq!(conflicts[0].severity, Severity::Note);
    assert!(conflicts[0].witness.is_some());
    // Notes do not make the config dirty; the redundant warning does.
    assert_eq!(report.finding_count(), 1);
}

#[test]
fn empty_match_is_flagged() {
    let report = lint_text(
        "route-map R3 permit 10
 match local-preference 100
 match local-preference 200
route-map R3 permit 20
",
    );
    let empty: Vec<_> = report.with_code(LintCode::EmptyMatch).collect();
    assert_eq!(empty.len(), 1, "{report:?}");
    assert_eq!(empty[0].rule, RuleId::route_map_stanza("R3", 10));
    // An empty stanza is reported once, not also as shadowed or redundant.
    assert_eq!(report.with_code(LintCode::ShadowedRule).count(), 0);
    assert_eq!(report.with_code(LintCode::RedundantRule).count(), 0);
}

/// A community pattern that only matches halves past 65535 matches no
/// community: the stanza is an empty match, not a lint failure.
#[test]
fn community_pattern_past_65535_is_an_empty_match() {
    let report = lint_text(
        "ip community-list expanded BIG permit _7[0-9][0-9][0-9][0-9]:1_
route-map RM permit 10
 match community BIG
",
    );
    let found: Vec<_> = report
        .diagnostics
        .iter()
        .map(|d| (d.code, &d.rule))
        .collect();
    let stanza = RuleId::route_map_stanza("RM", 10);
    assert_eq!(found, [(LintCode::EmptyMatch, &stanza)], "{report:?}");
}

#[test]
fn dangling_reference_is_an_error_and_skips_symbolic_checks() {
    let report = lint_text(
        "route-map R4 permit 10
 match ip address prefix-list UNDEFINED
route-map R4 permit 20
",
    );
    let dangling: Vec<_> = report.with_code(LintCode::DanglingReference).collect();
    assert_eq!(dangling.len(), 1, "{report:?}");
    assert_eq!(dangling[0].severity, Severity::Error);
    assert_eq!(dangling[0].rule, RuleId::route_map_stanza("R4", 10));
    assert!(dangling[0].message.contains("UNDEFINED"));
    assert!(!report.is_clean());
}

#[test]
fn unused_list_is_a_note() {
    let report = lint_text(
        "ip prefix-list ORPHAN seq 10 permit 192.168.0.0/16 le 24
route-map R5 permit 10
",
    );
    let unused: Vec<_> = report.with_code(LintCode::UnusedList).collect();
    assert_eq!(unused.len(), 1, "{report:?}");
    assert_eq!(
        unused[0].rule,
        RuleId::object(ObjectKind::PrefixList, "ORPHAN")
    );
    assert_eq!(unused[0].severity, Severity::Note);
    assert!(report.is_clean());
}

#[test]
fn shadowed_acl_entry_is_flagged_with_packet_witness() {
    let report = lint_text(
        "ip access-list extended EDGE
 permit ip 10.0.0.0/8 any
 deny ip 10.1.0.0/16 any
 permit tcp any any eq 443
",
    );
    let shadowed: Vec<_> = report.with_code(LintCode::ShadowedRule).collect();
    assert_eq!(shadowed.len(), 1, "{report:?}");
    let d = shadowed[0];
    assert_eq!(d.rule, RuleId::acl_entry("EDGE", 1));
    assert_eq!(d.related, Some(RuleId::acl_entry("EDGE", 0)));
    assert_eq!(d.line, Some(3));
    assert!(d.witness.as_deref().unwrap().contains("10.1."));
}

#[test]
fn conflicting_acl_overlap_is_a_note_with_witness() {
    let report = lint_text(
        "ip access-list extended X
 permit tcp 10.0.0.0/8 any eq 80
 deny tcp any 10.9.0.0/16 eq 80
 permit ip any any
",
    );
    let conflicts: Vec<_> = report.with_code(LintCode::ConflictingOverlap).collect();
    assert_eq!(conflicts.len(), 1, "{report:?}");
    assert_eq!(conflicts[0].rule, RuleId::acl_entry("X", 1));
    assert_eq!(conflicts[0].related, Some(RuleId::acl_entry("X", 0)));
    assert!(conflicts[0].witness.is_some());
    assert!(report.is_clean(), "conflict notes are not findings");
}

#[test]
fn shadowed_prefix_list_entry_is_flagged() {
    let report = lint_text(
        "ip prefix-list P seq 10 permit 10.0.0.0/8 le 32
ip prefix-list P seq 20 permit 10.0.0.0/16 le 32
route-map USE permit 10
 match ip address prefix-list P
",
    );
    let shadowed: Vec<_> = report.with_code(LintCode::ShadowedRule).collect();
    assert_eq!(shadowed.len(), 1, "{report:?}");
    assert_eq!(shadowed[0].rule, RuleId::prefix_entry("P", 20));
    assert_eq!(shadowed[0].related, Some(RuleId::prefix_entry("P", 10)));
    assert_eq!(shadowed[0].line, Some(2));
}

#[test]
fn clean_config_has_no_diagnostics() {
    let report = lint_text(
        "ip prefix-list P seq 10 permit 10.0.0.0/8 le 24
route-map CLEAN deny 10
 match ip address prefix-list P
route-map CLEAN permit 20
 match local-preference 200
",
    );
    // Stanza 20 (permit, lp 200) vs stanza 10: lp-200 routes inside P are
    // a conflicting overlap note, but nothing is shadowed or redundant.
    assert!(report.is_clean(), "{report:?}");
    assert_eq!(report.with_code(LintCode::ShadowedRule).count(), 0);
    assert_eq!(report.with_code(LintCode::RedundantRule).count(), 0);
}

#[test]
fn report_renders_human_and_json() {
    let report = lint_text(
        "ip prefix-list P seq 10 permit 10.0.0.0/8 le 32
ip prefix-list P seq 20 permit 10.0.0.0/16 le 32
route-map USE permit 10
 match ip address prefix-list P
",
    );
    let human = report.render_human("test.cfg");
    assert!(human.contains("test.cfg:2: warning[L001]"), "{human}");
    assert!(human.contains("1 warning(s)"), "{human}");
    let json = report.render_json("test.cfg");
    assert!(json.contains("\"code\": \"L001\""), "{json}");
    assert!(json.contains("\"check\": \"shadowed-rule\""), "{json}");
    assert!(json.contains("\"line\": 2"), "{json}");
    assert!(json.contains("\"clean\": false"), "{json}");
    // The JSON must escape witness strings safely.
    assert!(!json.contains('\t'));
}

#[test]
fn lint_without_spans_leaves_lines_empty() {
    let cfg = Config::parse(
        "ip prefix-list P seq 10 permit 10.0.0.0/8 le 32
ip prefix-list P seq 20 permit 10.0.0.0/16 le 32
route-map USE permit 10
 match ip address prefix-list P
",
    )
    .unwrap();
    let report = lint_config(&cfg, None).unwrap();
    assert_eq!(report.with_code(LintCode::ShadowedRule).count(), 1);
    assert!(report.diagnostics.iter().all(|d| d.line.is_none()));
}

mod prune {
    use clarify_analysis::{
        filters_equivalent, policies_equivalent, prefix_lists_equivalent, FirstMatchPolicy,
        PacketSpace, PrefixSpace, RouteSpace,
    };
    use clarify_bdd::Ref;
    use clarify_netconfig::{
        insert_acl_entry, insert_prefix_list_entry, insert_route_map_stanza, Acl, Config,
        PrefixList, RouteMap,
    };

    use crate::prune_candidates;

    /// Base map from the disambiguation regression design: stanza 10
    /// covers the snippet entirely, so every later candidate is pruned.
    const BASE: &str = "\
ip prefix-list ALL10 seq 10 permit 10.0.0.0/8 le 32
ip prefix-list HALF seq 10 permit 10.0.0.0/9 le 32
ip prefix-list QUAD seq 10 permit 10.4.0.0/14 le 32
route-map RM deny 10
 match ip address prefix-list ALL10
route-map RM permit 20
 match ip address prefix-list HALF
route-map RM deny 30
 match ip address prefix-list QUAD
route-map RM permit 40
 match local-preference 300
";

    const SNIPPET: &str = "\
ip prefix-list NEW seq 10 permit 10.5.0.0/16 le 24
route-map SNIP permit 10
 match ip address prefix-list NEW
 set metric 77
";

    /// The same shape for ACLs: entry 0 covers the new entry's packets.
    const ACL_BASE: &str = "\
ip access-list extended A
 deny tcp 10.0.0.0/8 any
 permit tcp 10.0.0.0/9 any eq 80
 deny tcp any any eq 443
 permit ip any any
";

    /// And for prefix lists: seq 5 covers the new entry's prefixes.
    const PREFIX_BASE: &str = "\
ip prefix-list PL seq 5 deny 10.0.0.0/8 le 32
ip prefix-list PL seq 10 permit 10.1.0.0/16 le 24
ip prefix-list PL seq 15 permit 0.0.0.0/0 le 32
";

    /// The snippet's valid match set and the prune over every stanza.
    fn route_map_prune(base: &Config, snippet: &Config) -> (RouteSpace, Vec<usize>, Vec<usize>) {
        let map = base.route_map("RM").unwrap().clone();
        let snip_map = snippet.route_map("SNIP").unwrap().clone();
        let mut space = RouteSpace::new(&[base, snippet]).unwrap();
        let valid = space.valid();
        let raw = space
            .encode_stanza_match(snippet, &snip_map.stanzas[0])
            .unwrap();
        let s_star = space.manager().and(raw, valid);
        // All four stanzas' match sets intersect the snippet's.
        let match_sets = map.match_sets(&mut space, base).unwrap();
        let candidates: Vec<usize> = (0..match_sets.len())
            .filter(|&i| space.manager().and(match_sets[i], s_star) != Ref::FALSE)
            .collect();
        let (fires, _) = RouteMap::fire_sets(&mut space, &match_sets);
        let outcome = prune_candidates(space.manager(), &fires, s_star, &candidates);
        (space, candidates, outcome.pruned)
    }

    #[test]
    fn prune_keeps_only_candidates_where_snippet_can_fire() {
        let base = Config::parse(BASE).unwrap();
        let snippet = Config::parse(SNIPPET).unwrap();
        let (_, candidates, pruned) = route_map_prune(&base, &snippet);
        assert_eq!(candidates, vec![0, 1, 2, 3]);
        // Stanza 10 (deny 10/8) captures the snippet's whole match space,
        // so at stanzas 20/30/40 the snippet could never fire: pruned.
        assert_eq!(pruned, vec![1, 2, 3]);
    }

    #[test]
    fn pruned_candidates_are_provably_non_decisive() {
        // Route-maps.
        let base = Config::parse(BASE).unwrap();
        let snippet = Config::parse(SNIPPET).unwrap();
        let (mut space, _, pruned) = route_map_prune(&base, &snippet);
        assert!(!pruned.is_empty());
        for &i in &pruned {
            let (above, _) = insert_route_map_stanza(&base, "RM", &snippet, "SNIP", i).unwrap();
            let (below, _) = insert_route_map_stanza(&base, "RM", &snippet, "SNIP", i + 1).unwrap();
            assert!(
                policies_equivalent(&mut space, &above, "RM", &below, "RM").unwrap(),
                "pruned stanza {i} was decisive"
            );
        }

        // ACLs.
        let base = Config::parse(ACL_BASE).unwrap();
        let acl = base.acl("A").unwrap();
        let entry = Config::parse("ip access-list extended X\n permit tcp 10.5.0.0/16 any\n")
            .unwrap()
            .acls["X"]
            .entries[0]
            .clone();
        let mut space = PacketSpace::new();
        let raw = space.encode_entry(&entry);
        let valid = space.valid();
        let s_star = space.manager().and(raw, valid);
        let matches = acl.match_sets(&mut space, &base).unwrap();
        let (fires, _) = Acl::fire_sets(&mut space, &matches);
        let candidates: Vec<usize> = (0..acl.entries.len()).collect();
        let pruned = prune_candidates(space.manager(), &fires, s_star, &candidates).pruned;
        assert_eq!(pruned, vec![1, 2, 3]);
        for &i in &pruned {
            let above = insert_acl_entry(&base, "A", entry.clone(), i).unwrap();
            let below = insert_acl_entry(&base, "A", entry.clone(), i + 1).unwrap();
            assert!(
                filters_equivalent(&mut space, above.acl("A").unwrap(), below.acl("A").unwrap()),
                "pruned ACL entry {i} was decisive"
            );
        }

        // Prefix lists.
        let base = Config::parse(PREFIX_BASE).unwrap();
        let list = &base.prefix_lists["PL"];
        let entry = clarify_netconfig::PrefixListEntry {
            seq: 0,
            action: clarify_netconfig::Action::Permit,
            range: "10.1.128.0/17 le 24".parse().unwrap(),
        };
        let mut space = PrefixSpace::new();
        let raw = space.encode_range(&entry.range);
        let valid = space.valid();
        let s_star = space.manager().and(raw, valid);
        let matches = list.match_sets(&mut space, &base).unwrap();
        let (fires, _) = PrefixList::fire_sets(&mut space, &matches);
        let candidates: Vec<usize> = (0..list.entries.len()).collect();
        let pruned = prune_candidates(space.manager(), &fires, s_star, &candidates).pruned;
        assert_eq!(pruned, vec![1, 2]);
        for &i in &pruned {
            let above = insert_prefix_list_entry(&base, "PL", entry.clone(), i).unwrap();
            let below = insert_prefix_list_entry(&base, "PL", entry.clone(), i + 1).unwrap();
            assert!(
                prefix_lists_equivalent(
                    &mut space,
                    &above.prefix_lists["PL"],
                    &below.prefix_lists["PL"],
                )
                .unwrap(),
                "pruned prefix-list entry {i} was decisive"
            );
        }
    }
}

mod properties {
    use clarify_netconfig::{Action, Config, PrefixList, PrefixListEntry, RuleKey};
    use clarify_nettypes::{BgpRoute, Prefix, PrefixRange};
    use clarify_testkit::{prop_assert, prop_assert_eq, property, Rng, Source};

    use crate::{lint_config, LintCode};

    /// Generates 2-5 pairwise-disjoint exact /16 permit entries plus a
    /// trailing duplicate of one of them — the seeded shadowed rule.
    /// All-permit originals keep every original entry live (each uniquely
    /// permits its range), so only the duplicate shadows.
    fn arb_seeded_list(g: &mut Source) -> PrefixList {
        let n = g.gen_range(2usize..6);
        // Distinct second octets => pairwise disjoint /16 ranges.
        let mut octets: Vec<u8> = Vec::new();
        while octets.len() < n {
            let o = g.gen_range(1u8..=200);
            if !octets.contains(&o) {
                octets.push(o);
            }
        }
        let mut entries: Vec<PrefixListEntry> = octets
            .iter()
            .enumerate()
            .map(|(i, &o)| PrefixListEntry {
                seq: (i as u32 + 1) * 10,
                action: Action::Permit,
                range: PrefixRange::exact(Prefix::from_u32(u32::from(o) << 16, 16)),
            })
            .collect();
        let dup = g.gen_range(0usize..n);
        let dup_action = if g.gen_range(0u8..2) == 0 {
            Action::Permit
        } else {
            Action::Deny
        };
        entries.push(PrefixListEntry {
            seq: (n as u32 + 1) * 10,
            action: dup_action,
            range: entries[dup].range,
        });
        PrefixList {
            name: "GEN".into(),
            entries,
        }
    }

    /// Generates (n, distinct lp values, duplicated index) for the
    /// route-map property.
    fn arb_lp_map(g: &mut Source) -> (Vec<u32>, usize) {
        let n = g.gen_range(2usize..5);
        let mut lps: Vec<u32> = Vec::new();
        while lps.len() < n {
            let v = g.gen_range(100u32..500);
            if !lps.contains(&v) {
                lps.push(v);
            }
        }
        let dup = g.gen_range(0usize..n);
        (lps, dup)
    }

    fn shadowed_seqs(report: &crate::LintReport) -> Vec<u32> {
        report
            .with_code(LintCode::ShadowedRule)
            .map(|d| match d.rule.rule {
                RuleKey::Seq(s) => s,
                _ => panic!("diagnostic is not seq-keyed: {:?}", d.rule),
            })
            .collect()
    }

    property! {
        /// On a generated prefix list with one deliberately seeded
        /// shadowed entry, the linter flags exactly that entry — and the
        /// flag set matches brute-force first-match evaluation over every
        /// entry's own prefix.
        fn seeded_shadowed_prefix_entry_is_the_only_one(list in arb_seeded_list) {
            let seeded_seq = list.entries.last().unwrap().seq;
            let mut cfg = Config::new();
            cfg.prefix_lists.insert(list.name.clone(), list.clone());
            let report = lint_config(&cfg, None).unwrap();

            // Symbolic: exactly the seeded entry is shadowed.
            prop_assert_eq!(shadowed_seqs(&report), vec![seeded_seq]);

            // Brute force: an entry is shadowed iff it is never the first
            // match on any probe; exact ranges make the entries' own
            // prefixes a complete probe set.
            let probes: Vec<Prefix> = list.entries.iter().map(|e| e.range.prefix).collect();
            for (i, e) in list.entries.iter().enumerate() {
                let fires_somewhere = probes.iter().any(|p| {
                    list.entries.iter().position(|f| f.range.matches(p)) == Some(i)
                });
                prop_assert_eq!(fires_somewhere, i != list.entries.len() - 1,
                    "entry {} (seq {})", i, e.seq);
            }
        }

        /// Route-map version: stanzas matching distinct local-preference
        /// values, with a duplicate appended; the linter flags exactly the
        /// duplicate, cross-validated by evaluating every used lp value.
        fn seeded_shadowed_stanza_matches_brute_force(parts in arb_lp_map) {
            let (lps, dup) = parts;
            let n = lps.len();
            let mut text = String::new();
            for (i, lp) in lps.iter().enumerate() {
                text.push_str(&format!(
                    "route-map GEN permit {}\n match local-preference {lp}\n set metric {}\n",
                    (i + 1) * 10,
                    i + 1,
                ));
            }
            let seeded_seq = ((n + 1) * 10) as u32;
            text.push_str(&format!(
                "route-map GEN deny {seeded_seq}\n match local-preference {}\n",
                lps[dup]
            ));
            let cfg = Config::parse(&text).unwrap();
            let report = lint_config(&cfg, None).unwrap();
            prop_assert_eq!(shadowed_seqs(&report), vec![seeded_seq]);

            // Brute force on every used lp value: the duplicate stanza is
            // never the decider.
            for lp in &lps {
                let route = BgpRoute::with_defaults(Prefix::from_u32(0x0a00_0000, 8)).lp(*lp);
                let verdict = cfg.eval_route_map("GEN", &route).unwrap();
                prop_assert!(verdict.seq().is_some());
                prop_assert!(verdict.seq() != Some(seeded_seq));
            }
        }
    }
}

/// L002 against its definition: a live rule is redundant exactly when
/// deleting it leaves an equivalent object, by the whole-policy
/// comparisons of `clarify-analysis` on a copy with the rule deleted.
mod redundancy_oracle {
    use std::collections::BTreeSet;

    use clarify_analysis::{
        filters_equivalent, policies_equivalent, prefix_lists_equivalent, PacketSpace, PrefixSpace,
        RouteSpace,
    };
    use clarify_netconfig::{Config, RuleId};
    use clarify_testkit::{policies, prop_assert_eq, property, Source};

    use crate::{lint_config, LintCode, LintReport};

    /// A route-map, an ACL and a prefix list, with the lists the route-map
    /// may reference, as one configuration's text.
    fn arb_objects(g: &mut Source) -> String {
        let map = policies::route_map(g, "RM", 5);
        let acl = policies::acl(g, "ACL", 6);
        let list = policies::prefix_list(g, "PL", 5);
        format!("{}{map}{acl}{list}", policies::LISTS)
    }

    fn rules(report: &LintReport, codes: &[LintCode]) -> BTreeSet<RuleId> {
        let of = |&code| report.with_code(code).map(|d| d.rule.clone());
        codes.iter().flat_map(of).collect()
    }

    property! {
        fn redundant_exactly_when_deleting_changes_nothing(text in arb_objects) cases 128 {
            let cfg = Config::parse(&text).unwrap();
            let report = lint_config(&cfg, None).unwrap();
            let dead = rules(&report, &[LintCode::EmptyMatch, LintCode::ShadowedRule]);
            let redundant = rules(&report, &[LintCode::RedundantRule]);
            // Every live rule with the oracle's verdict on deleting it.
            let mut live: Vec<(RuleId, bool)> = Vec::new();
            let mut space = RouteSpace::new(&[&cfg]).unwrap();
            for (name, map) in &cfg.route_maps {
                for (i, stanza) in map.stanzas.iter().enumerate() {
                    let mut without = cfg.clone();
                    without.route_maps.get_mut(name).unwrap().stanzas.remove(i);
                    let same = policies_equivalent(&mut space, &cfg, name, &without, name);
                    live.push((RuleId::route_map_stanza(name, stanza.seq), same.unwrap()));
                }
            }
            for (name, acl) in &cfg.acls {
                for i in 0..acl.entries.len() {
                    let mut without = acl.clone();
                    without.entries.remove(i);
                    let same = filters_equivalent(&mut PacketSpace::new(), acl, &without);
                    live.push((RuleId::acl_entry(name, i), same));
                }
            }
            for (name, list) in &cfg.prefix_lists {
                for (i, entry) in list.entries.iter().enumerate() {
                    let mut without = list.clone();
                    without.entries.remove(i);
                    let same = prefix_lists_equivalent(&mut PrefixSpace::new(), list, &without);
                    live.push((RuleId::prefix_entry(name, entry.seq), same.unwrap()));
                }
            }
            live.retain(|(rule, _)| !dead.contains(rule));
            for (rule, same) in live {
                prop_assert_eq!(redundant.contains(&rule), same, "{:?}", rule);
            }
        }
    }
}

mod incremental {
    use clarify_netconfig::Config;
    use clarify_obs::json::DocError;

    use crate::cache::LintCache;
    use crate::{lint_config, lint_config_incremental, IncrementalLinter};

    const BASE: &str = "ip prefix-list COVER seq 10 permit 10.0.0.0/8 le 32
ip prefix-list NARROW seq 10 permit 10.1.0.0/16 le 32
ip as-path access-list PATHS permit _65000_
route-map RM deny 10
 match ip address prefix-list COVER
route-map RM deny 20
 match ip address prefix-list NARROW
route-map RM permit 30
route-map OTHER permit 10
 match as-path PATHS
ip access-list extended FW
 permit ip 10.0.0.0 0.255.255.255 any
 deny ip 10.1.0.0 0.0.255.255 any
";

    /// Same config with one extra stanza appended to RM (shifts the
    /// lines of everything parsed after it stays put — stanzas append at
    /// the end here, so only RM's hash changes).
    const EDITED: &str = "ip prefix-list COVER seq 10 permit 10.0.0.0/8 le 32
ip prefix-list NARROW seq 10 permit 10.1.0.0/16 le 32
ip as-path access-list PATHS permit _65000_
route-map RM deny 10
 match ip address prefix-list COVER
route-map RM deny 20
 match ip address prefix-list NARROW
route-map RM permit 30
route-map RM permit 40
 match local-preference 200
route-map OTHER permit 10
 match as-path PATHS
ip access-list extended FW
 permit ip 10.0.0.0 0.255.255.255 any
 deny ip 10.1.0.0 0.0.255.255 any
";

    #[test]
    fn cache_round_trips_through_json() {
        let (cfg, spans) = Config::parse_with_spans(BASE).unwrap();
        let report = lint_config(&cfg, Some(&spans)).unwrap();
        let cache = LintCache::from_report(&cfg, &report);
        let parsed = LintCache::from_json(&cache.to_json()).expect("round trip");
        assert_eq!(parsed, cache);
    }

    #[test]
    fn incremental_matches_full_after_one_stanza_edit() {
        let (base, base_spans) = Config::parse_with_spans(BASE).unwrap();
        let base_report = lint_config(&base, Some(&base_spans)).unwrap();
        let cache = LintCache::from_report(&base, &base_report);

        let (edited, edited_spans) = Config::parse_with_spans(EDITED).unwrap();
        let full = lint_config(&edited, Some(&edited_spans)).unwrap();
        let (incr, stats) = lint_config_incremental(&edited, Some(&edited_spans), &cache).unwrap();
        assert_eq!(
            incr.render_json("x"),
            full.render_json("x"),
            "incremental report must be byte-identical to full"
        );
        // 2 route-maps + 1 ACL + 2 prefix lists; only RM is dirty.
        assert_eq!(stats.total_objects, 5);
        assert_eq!(stats.dirty_objects, 1);
        assert_eq!(stats.reused_objects, 4);
    }

    #[test]
    fn editing_a_referenced_list_dirties_its_dependents() {
        let (base, spans) = Config::parse_with_spans(BASE).unwrap();
        let report = lint_config(&base, Some(&spans)).unwrap();
        let cache = LintCache::from_report(&base, &report);

        // Widen NARROW: RM references it, so RM and NARROW are dirty;
        // OTHER and FW are not.
        let edited_text = BASE.replace("10.1.0.0/16", "10.2.0.0/16");
        let (edited, edited_spans) = Config::parse_with_spans(&edited_text).unwrap();
        let full = lint_config(&edited, Some(&edited_spans)).unwrap();
        let (incr, stats) = lint_config_incremental(&edited, Some(&edited_spans), &cache).unwrap();
        assert_eq!(incr.render_json("x"), full.render_json("x"));
        assert_eq!(stats.dirty_objects, 2, "NARROW and RM");
    }

    #[test]
    fn session_relint_matches_full_and_reuses_spaces() {
        let (base, base_spans) = Config::parse_with_spans(BASE).unwrap();
        let (mut session, first) = IncrementalLinter::new(base, Some(&base_spans)).unwrap();
        let (base2, base_spans2) = Config::parse_with_spans(BASE).unwrap();
        assert_eq!(
            first.render_json("x"),
            lint_config(&base2, Some(&base_spans2))
                .unwrap()
                .render_json("x")
        );

        let (edited, edited_spans) = Config::parse_with_spans(EDITED).unwrap();
        let full = lint_config(&edited, Some(&edited_spans)).unwrap();
        let (incr, stats) = session.relint(edited, Some(&edited_spans)).unwrap();
        assert_eq!(incr.render_json("x"), full.render_json("x"));
        assert_eq!(stats.dirty_objects, 1);

        // Revert the edit: dirty again (hash changed back), recomputed on
        // the retained space.
        let (reverted, reverted_spans) = Config::parse_with_spans(BASE).unwrap();
        let full = lint_config(&reverted, Some(&reverted_spans)).unwrap();
        let (incr, _) = session.relint(reverted, Some(&reverted_spans)).unwrap();
        assert_eq!(incr.render_json("x"), full.render_json("x"));
    }

    /// A session retains its spaces and nothing in them: after every edit
    /// the packet space pins only its own `valid`.
    #[test]
    fn session_retains_only_its_spaces() {
        let acl = |port: u32| {
            Config::parse(&format!(
                "ip access-list extended FW\n permit tcp any any eq {port}\n deny ip any any\n"
            ))
            .unwrap()
        };
        let (mut session, _) = IncrementalLinter::new(acl(0), None).unwrap();
        for port in 1..=20 {
            let cfg = acl(port);
            let full = lint_config(&cfg, None).unwrap();
            let (incr, stats) = session.relint(cfg, None).unwrap();
            assert_eq!(incr.render_json("x"), full.render_json("x"));
            assert_eq!(stats.dirty_objects, 1);
            let space = session.packet_space().expect("an ACL was re-linted");
            assert_eq!(space.manager().root_count(), 1, "after {port} edits");
        }
    }

    /// A session keeps its route space's atoms across atom-environment
    /// changes: an edit that reorders or adds patterns builds no atom space
    /// from a universe, one that drops a pattern rebuilds that kind, and
    /// every report is the cold lint's.
    #[test]
    fn session_reuses_atoms_across_atom_environment_changes() {
        use std::sync::Arc;

        use clarify_obs::{scoped, Registry};

        let lists = |comm: &[(&str, u32)]| {
            let mut text = String::from("ip as-path access-list P1 permit _100_\n");
            let mut map = String::from("route-map RM deny 5\n match as-path P1\n");
            for (i, (name, value)) in comm.iter().enumerate() {
                text.push_str(&format!(
                    "ip community-list expanded {name} permit _65000:{value}_\n"
                ));
                map.push_str(&format!(
                    "route-map RM {} {}\n match community {name}\n",
                    ["permit", "deny"][i % 2],
                    10 * (i + 1)
                ));
            }
            // A stanza every community stanza shadows part of.
            map.push_str("route-map RM permit 90\n match community C1\n");
            Config::parse(&(text + &map)).unwrap()
        };
        let (mut session, _) = IncrementalLinter::new(lists(&[("C1", 1)]), None).unwrap();
        // (edit, atom spaces built from a universe)
        let edits = [
            // The session keeps the cold lint's route space: one more
            // pattern extends its atoms.
            (lists(&[("C1", 1), ("C2", 2)]), 0),
            // `A2` sorts before `C1`: the same patterns, reordered.
            (lists(&[("C1", 1), ("A2", 2)]), 0),
            // One more pattern.
            (lists(&[("C1", 1), ("A2", 2), ("C3", 3)]), 0),
            // Reordered and extended at once.
            (lists(&[("C1", 1), ("B4", 4), ("A2", 2), ("C3", 3)]), 0),
            // `_65000:2_` is dropped: the community kind starts over.
            (lists(&[("C1", 1), ("B4", 4), ("C3", 3)]), 1),
        ];
        for (step, (cfg, expected)) in edits.into_iter().enumerate() {
            let full = lint_config(&cfg, None).unwrap();
            let registry = Arc::new(Registry::new());
            let (incr, stats) = scoped(registry.clone(), || session.relint(cfg, None)).unwrap();
            assert_eq!(incr.render_json("x"), full.render_json("x"), "step {step}");
            assert_eq!(stats.dirty_objects, 1, "step {step}: RM");
            let snap = registry.snapshot();
            assert_eq!(
                snap.counter("analysis.route_space_builds"),
                1,
                "step {step}"
            );
            let built = snap.counter("analysis.atom_space_builds");
            assert_eq!(built, expected, "step {step}");
        }
    }

    /// The session's first lint is a re-lint from nothing, so the session
    /// keeps the spaces it built: an edit that only renames a community
    /// list builds no atom space from a universe.
    #[test]
    fn session_keeps_the_cold_lints_spaces() {
        use std::sync::Arc;

        use clarify_obs::{scoped, Registry};

        let cfg = |name: &str| {
            Config::parse(&format!(
                "ip community-list expanded {name} permit _65000:1_\n\
                 ip as-path access-list P1 permit _100_\n\
                 route-map RM deny 10\n match community {name}\n\
                 route-map RM permit 20\n match as-path P1\n"
            ))
            .unwrap()
        };
        let (mut session, first) = IncrementalLinter::new(cfg("OLD"), None).unwrap();
        let full = lint_config(&cfg("OLD"), None).unwrap();
        assert_eq!(first.render_json("x"), full.render_json("x"));
        let registry = Arc::new(Registry::new());
        let (incr, stats) = scoped(registry.clone(), || session.relint(cfg("NEW"), None)).unwrap();
        let full = lint_config(&cfg("NEW"), None).unwrap();
        assert_eq!(incr.render_json("x"), full.render_json("x"));
        assert_eq!(stats.dirty_objects, 1, "RM, which names the list");
        let snap = registry.snapshot();
        assert_eq!(snap.counter("analysis.atom_space_builds"), 0);
    }

    #[test]
    fn tampered_cache_is_stale_not_corrupt() {
        let (cfg, spans) = Config::parse_with_spans(BASE).unwrap();
        let report = lint_config(&cfg, Some(&spans)).unwrap();
        let cache = LintCache::from_report(&cfg, &report);
        let json = cache.to_json();
        // Flip one object hash: the checksum no longer matches.
        let entry = json
            .lines()
            .find(|l| l.contains("\"hash\""))
            .expect("some object entry");
        let start = entry.find("\"hash\": \"").unwrap() + "\"hash\": \"".len();
        let old = &entry[start..start + 16];
        let flipped: String = old
            .chars()
            .map(|c| if c == '0' { '1' } else { '0' })
            .collect();
        let tampered = json.replace(old, &flipped);
        match LintCache::from_json(&tampered) {
            Err(DocError::Stale(_)) => {}
            other => panic!("expected Stale, got {other:?}"),
        }
    }

    #[test]
    fn unparseable_cache_is_corrupt() {
        match LintCache::from_json("{ not json") {
            Err(DocError::Corrupt(_)) => {}
            other => panic!("expected Corrupt, got {other:?}"),
        }
        match LintCache::from_json("{\"format\": \"clarify-lint-cache/v2\"}") {
            Err(DocError::Corrupt(_)) => {}
            other => panic!("expected Corrupt (missing fields), got {other:?}"),
        }
        // A repeated key: the second `objects` would otherwise win.
        let (cfg, spans) = Config::parse_with_spans(BASE).unwrap();
        let cache = LintCache::from_report(&cfg, &lint_config(&cfg, Some(&spans)).unwrap());
        let json = cache.to_json().replacen(
            "  \"objects\": [",
            "  \"objects\": [],\n  \"objects\": [",
            1,
        );
        match LintCache::from_json(&json) {
            Err(DocError::Corrupt(m)) => assert!(m.contains("repeated key 'objects'"), "{m}"),
            other => panic!("expected Corrupt (repeated key), got {other:?}"),
        }
    }

    #[test]
    fn unknown_format_version_is_stale() {
        let json = "{\"format\": \"clarify-lint-cache/v999\", \
\"config_hash\": \"0\", \"atom_env\": \"0\", \"checksum\": \"0\", \"objects\": []}";
        match LintCache::from_json(json) {
            Err(DocError::Stale(_)) => {}
            other => panic!("expected Stale, got {other:?}"),
        }
    }
}

mod suppressions {
    use super::lint_text;
    use crate::{apply_suppressions, suppression_targets, LintCode};

    /// A shadowed stanza (L001 at its header line) with assorted comment
    /// and blank lines so the span arithmetic is exercised for real.
    const SHADOWED: &str = "ip prefix-list COVER seq 10 permit 10.0.0.0/8 le 32
ip prefix-list NARROW seq 10 permit 10.1.0.0/16 le 32
route-map RM deny 10
 match ip address prefix-list COVER
! lint-allow L001
route-map RM deny 20
 match ip address prefix-list NARROW
route-map RM permit 30
";

    #[test]
    fn directive_targets_next_real_line_across_comments_and_blanks() {
        let targets = suppression_targets(
            "! lint-allow L001 L010\n\
             ! an unrelated comment\n\
             \n\
             # lint-allow L003\n\
             route-map RM deny 10\n\
             ! lint-allow L002\n\
             route-map RM deny 20\n",
        );
        // Both directives above line 5 accumulate onto it; the one above
        // line 7 targets line 7 alone. Nothing else is targeted.
        assert_eq!(
            targets.get(&5).map(Vec::as_slice),
            Some(
                &[
                    LintCode::ShadowedRule,
                    LintCode::OrphanCommunity,
                    LintCode::ConflictingOverlap
                ][..]
            )
        );
        assert_eq!(
            targets.get(&7).map(Vec::as_slice),
            Some(&[LintCode::RedundantRule][..])
        );
        assert_eq!(targets.len(), 2);
    }

    #[test]
    fn unknown_codes_and_trailing_directives_are_ignored() {
        // L999 is not a check; a directive with no following real line
        // has no target at all.
        let targets =
            suppression_targets("! lint-allow L999\nroute-map A permit 10\n! lint-allow L001\n");
        assert!(targets.is_empty(), "{targets:?}");
    }

    #[test]
    fn matching_line_and_code_is_suppressed_and_counted() {
        let report = lint_text(SHADOWED);
        let before: Vec<_> = report.with_code(LintCode::ShadowedRule).collect();
        assert_eq!(before.len(), 1);
        // The directive sits on line 5; the shadowed stanza's header —
        // where L001 anchors — is the next real line, 6.
        assert_eq!(before[0].line, Some(6));

        let total = report.diagnostics.len();
        let report = apply_suppressions(report, SHADOWED);
        assert_eq!(report.with_code(LintCode::ShadowedRule).count(), 0);
        assert_eq!(report.suppressed, 1);
        assert_eq!(report.diagnostics.len(), total - 1);
        // Suppressing the only warning makes the report clean.
        assert!(report.is_clean());
    }

    #[test]
    fn wrong_code_on_the_right_line_does_not_suppress() {
        let other = SHADOWED.replace("lint-allow L001", "lint-allow L002");
        let report = apply_suppressions(lint_text(&other), &other);
        assert_eq!(report.with_code(LintCode::ShadowedRule).count(), 1);
        assert_eq!(report.suppressed, 0);
    }

    #[test]
    fn human_and_json_renders_show_the_suppressed_count() {
        let report = apply_suppressions(lint_text(SHADOWED), SHADOWED);
        let human = report.render_human("x.cfg");
        assert!(human.contains("1 suppressed"), "{human}");
        let json = report.render_json("x.cfg");
        assert!(json.contains("\"suppressed\": 1"), "{json}");
    }
}

mod sarif {
    use clarify_obs::json::{parse, Value};

    use super::lint_text;
    use crate::render_sarif;

    fn field<'a>(v: &'a Value, key: &str) -> &'a Value {
        let obj = v.as_object("object").unwrap();
        &obj.iter()
            .find(|(k, _)| k == key)
            .unwrap_or_else(|| panic!("no key {key}"))
            .1
    }

    #[test]
    fn sarif_log_parses_and_carries_rules_results_and_locations() {
        let report = lint_text(
            "ip prefix-list COVER seq 10 permit 10.0.0.0/8 le 32
ip prefix-list NARROW seq 10 permit 10.1.0.0/16 le 32
route-map RM deny 10
 match ip address prefix-list COVER
route-map RM deny 20
 match ip address prefix-list NARROW
route-map RM permit 30
",
        );
        let diags = report.diagnostics.iter().map(|d| ("rm.cfg", d));
        let log = parse(&render_sarif(diags)).expect("valid JSON");
        assert_eq!(field(&log, "version").as_str("version").unwrap(), "2.1.0");
        let runs = field(&log, "runs").as_array("runs").unwrap();
        assert_eq!(runs.len(), 1);
        let driver = field(field(&runs[0], "tool"), "driver");
        assert_eq!(
            field(driver, "name").as_str("name").unwrap(),
            "clarify-lint"
        );
        let rules = field(driver, "rules").as_array("rules").unwrap();
        let ids: Vec<&str> = rules
            .iter()
            .map(|r| field(r, "id").as_str("id").unwrap())
            .collect();
        assert!(ids.contains(&"L001"), "{ids:?}");
        let results = field(&runs[0], "results").as_array("results").unwrap();
        assert_eq!(results.len(), report.diagnostics.len());
        let shadowed = results
            .iter()
            .find(|r| field(r, "ruleId").as_str("ruleId").unwrap() == "L001")
            .expect("an L001 result");
        assert_eq!(field(shadowed, "level").as_str("level").unwrap(), "warning");
        let loc = field(
            &field(shadowed, "locations").as_array("locs").unwrap()[0],
            "physicalLocation",
        );
        let uri = field(field(loc, "artifactLocation"), "uri");
        assert_eq!(uri.as_str("uri").unwrap(), "rm.cfg");
        assert_eq!(
            field(field(loc, "region"), "startLine")
                .as_u64("startLine")
                .unwrap(),
            5
        );
    }

    #[test]
    fn clean_report_is_an_empty_but_valid_log() {
        let report = lint_text("route-map OK permit 10\n match metric 5\n");
        let clean: crate::LintReport = crate::LintReport {
            diagnostics: report.diagnostics.into_iter().filter(|_| false).collect(),
            suppressed: 0,
        };
        let diags = clean.diagnostics.iter().map(|d| ("ok.cfg", d));
        let log = parse(&render_sarif(diags)).expect("valid JSON");
        let runs = field(&log, "runs").as_array("runs").unwrap();
        assert!(field(&runs[0], "results")
            .as_array("results")
            .unwrap()
            .is_empty());
        let rules = field(field(field(&runs[0], "tool"), "driver"), "rules");
        assert!(rules.as_array("rules").unwrap().is_empty());
    }
}
