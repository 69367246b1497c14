use crate::{AtomSpace, Dfa, Regex, ATOM_LIMIT};

fn dfa(pattern: &str) -> Dfa {
    Regex::parse(pattern).expect("pattern parses").to_dfa()
}

#[test]
fn literal_substring_semantics() {
    let d = dfa("32");
    assert!(d.matches("32"));
    assert!(d.matches("132 4"));
    assert!(d.matches("4 321"));
    assert!(!d.matches("3 2"));
    assert!(!d.matches(""));
}

#[test]
fn anchored_start() {
    let d = dfa("^32");
    assert!(d.matches("32"));
    assert!(d.matches("32 5"));
    assert!(d.matches("321"));
    assert!(!d.matches("5 32"));
}

#[test]
fn anchored_end() {
    let d = dfa("32$");
    assert!(d.matches("32"));
    assert!(d.matches("5 32"));
    assert!(d.matches("532"));
    assert!(!d.matches("32 5"));
}

#[test]
fn fully_anchored_exact() {
    let d = dfa("^32$");
    assert!(d.matches("32"));
    assert!(!d.matches("320"));
    assert!(!d.matches("132"));
    assert!(!d.matches("32 1"));
}

#[test]
fn underscore_is_cisco_delimiter() {
    // The paper's AS-path list D0: routes originating from AS 32.
    let d = dfa("_32$");
    assert!(d.matches("32"), "start-of-string counts as a delimiter");
    assert!(d.matches("10 32"));
    assert!(d.matches("10 20 32"));
    assert!(!d.matches("132"), "digit before 32 is not a delimiter");
    assert!(!d.matches("32 10"));
}

#[test]
fn underscore_community() {
    // The paper's community list: _300:3_
    let d = dfa("_300:3_");
    assert!(d.matches("300:3"));
    assert!(!d.matches("1300:3"));
    assert!(!d.matches("300:33"));
    assert!(d.matches("300:3,500:1"), "comma is a delimiter");
}

#[test]
fn dot_and_star() {
    let d = dfa("^1.3$");
    assert!(d.matches("123"));
    assert!(d.matches("1x3"));
    assert!(!d.matches("13"));
    let d = dfa("^1.*3$");
    assert!(d.matches("13"));
    assert!(d.matches("1223"));
}

#[test]
fn plus_and_opt() {
    let d = dfa("^a+b?$");
    assert!(d.matches("a"));
    assert!(d.matches("aaab"));
    assert!(!d.matches("b"));
    assert!(!d.matches("abb"));
}

#[test]
fn alternation_and_groups() {
    let d = dfa("^(ab|cd)+$");
    assert!(d.matches("ab"));
    assert!(d.matches("abcdab"));
    assert!(!d.matches("abc"));
    assert!(!d.matches(""));
}

#[test]
fn char_classes() {
    let d = dfa("^[0-9]+$");
    assert!(d.matches("0123456789"));
    assert!(!d.matches(""));
    assert!(!d.matches("12a"));
    let d = dfa("^[^0-9]+$");
    assert!(d.matches("abc"));
    assert!(!d.matches("a1c"));
}

#[test]
fn class_with_literal_dash_and_escape() {
    let d = dfa("^[a\\-c]+$");
    assert!(d.matches("a-c"));
    assert!(!d.matches("b"));
    let d = dfa("^a\\.b$");
    assert!(d.matches("a.b"));
    assert!(!d.matches("axb"));
}

#[test]
fn parse_errors_have_positions() {
    let e = Regex::parse("a(b").unwrap_err();
    assert!(e.message.contains("unclosed group"), "{e}");
    let e = Regex::parse("a[b").unwrap_err();
    assert!(e.message.contains("unclosed character class"));
    let e = Regex::parse("a)").unwrap_err();
    assert_eq!(e.position, 1);
    assert!(Regex::parse("a\\").is_err());
    assert!(Regex::parse("[z-a]").is_err());
}

#[test]
fn empty_pattern_matches_everything() {
    // An empty regex matches the empty substring of any subject.
    let d = dfa("");
    assert!(d.matches(""));
    assert!(d.matches("anything"));
}

#[test]
fn complement_flips_language() {
    let d = dfa("^ab$");
    let c = d.complement();
    assert!(!c.matches("ab"));
    assert!(c.matches("ba"));
    assert!(c.matches(""));
    assert!(d.complement().equivalent(&d.complement()));
    assert!(c.complement().equivalent(&d));
}

#[test]
fn intersection_union_difference() {
    let a = dfa("^a.*$"); // starts with a
    let b = dfa("^.*b$"); // ends with b
    let both = a.intersect(&b);
    assert!(both.matches("ab"));
    assert!(both.matches("axb"));
    assert!(!both.matches("ax"));
    assert!(!both.matches("xb"));
    let either = a.union(&b);
    assert!(either.matches("ax"));
    assert!(either.matches("xb"));
    assert!(!either.matches("x"));
    let only_a = a.minus(&b);
    assert!(only_a.matches("ax"));
    assert!(!only_a.matches("ab"));
}

#[test]
fn emptiness_and_equivalence() {
    let a = dfa("^a$");
    let impossible = a.intersect(&dfa("^b$"));
    assert!(impossible.is_empty());
    assert!(Dfa::empty().is_empty());
    let a2 = dfa("^(a)$");
    assert!(a.equivalent(&a2));
    assert!(!a.equivalent(&dfa("^b$")));
}

#[test]
fn witness_is_shortest() {
    let d = dfa("^aa+$");
    assert_eq!(d.witness().as_deref(), Some("aa"));
    let d = dfa("^[0-9][0-9]$");
    let w = d.witness().unwrap();
    assert_eq!(w.len(), 2);
    assert!(d.matches(&w));
    assert!(Dfa::empty().witness().is_none());
}

#[test]
fn witness_respects_intersection() {
    let d = dfa("^[0-9]+:[0-9]+$").intersect(&dfa("_300:3_"));
    let w = d.witness().unwrap();
    assert_eq!(w, "300:3");
}

#[test]
fn minimization_produces_small_automata() {
    // (a|b)*abb — the classic example minimizes to 4 body states; sentinel
    // handling adds a pre-STX state, a post-ETX accept, and a dead state.
    let d = dfa("^(a|b)*abb$");
    assert!(d.num_states() <= 8, "got {}", d.num_states());
    assert!(d.matches("abb"));
    assert!(d.matches("aabb"));
    assert!(!d.matches("ab"));
}

#[test]
fn clones_share_the_compiled_dfa() {
    let re = Regex::parse("_32$").unwrap();
    let early = re.clone();
    let compiled = re.dfa();
    assert!(std::ptr::eq(compiled, re.clone().dfa()));
    assert!(std::ptr::eq(compiled, early.dfa()));
}

#[test]
fn atoms_partition_universe() {
    let universe = dfa("^[0-9]+:[0-9]+$");
    let a = Regex::parse("_300:3_").unwrap();
    let b = Regex::parse("^300:").unwrap();
    let space = AtomSpace::build(&universe, &[&a, &b]).unwrap();
    // Atoms: {300:3}, {300:* minus 300:3}, {everything else} = 3.
    assert_eq!(space.len(), 3);
    // Disjointness.
    for i in 0..space.len() {
        for j in (i + 1)..space.len() {
            assert!(space.atom(i).intersect(&space.atom(j)).is_empty());
        }
    }
    // Coverage.
    let mut union = Dfa::empty();
    for i in 0..space.len() {
        union = union.union(&space.atom(i));
    }
    assert!(union.equivalent(&universe));
    // Membership: _300:3_ is exactly one atom; ^300: covers that atom too.
    assert_eq!(space.members_of(0).len(), 1);
    assert_eq!(space.members_of(1).len(), 2);
    // Witnesses classify back to their own atom.
    for i in 0..space.len() {
        assert_eq!(space.classify(space.witness(i)), Some(i));
    }
}

#[test]
fn atoms_empty_pattern_list() {
    let universe = dfa("^[0-9]+$");
    let space = AtomSpace::build(&universe, &[]).unwrap();
    assert_eq!(space.len(), 1);
    assert_eq!(space.classify("17"), Some(0));
    assert_eq!(space.classify("x"), None);
}

#[test]
fn atoms_disjoint_pattern_outside_universe() {
    let universe = dfa("^[0-9]+$");
    let letters = Regex::parse("^[a-z]+$").unwrap();
    let space = AtomSpace::build(&universe, &[&letters]).unwrap();
    // The pattern intersects the universe nowhere: single atom, no members.
    assert_eq!(space.len(), 1);
    assert!(space.members_of(0).is_empty());
}

#[test]
fn classify_unmatched_string() {
    let universe = dfa("^[0-9]+$");
    let space = AtomSpace::build(&universe, &[]).unwrap();
    assert_eq!(space.classify(""), None);
}

#[test]
fn atoms_of_an_empty_universe() {
    let universe = dfa("^[0-9]+$").intersect(&dfa("^[a-z]+$"));
    let digit = Regex::parse("1").unwrap();
    let space = AtomSpace::build(&universe, &[&digit]).unwrap();
    assert!(space.is_empty());
    assert!(space.members_of(0).is_empty());
    assert_eq!(space.classify("1"), None);
}

/// `n` independent patterns split the AS-path universe into `2^n` atoms:
/// a path may hold any subset of the ASNs 100, 101, ….
fn transit_patterns(n: usize) -> Vec<Regex> {
    (0..n)
        .map(|i| Regex::parse(&format!("_{}_", 100 + i)).unwrap())
        .collect()
}

#[test]
fn atom_limit_is_exact() {
    let universe = dfa(AS_PATH_UNIVERSE);
    let patterns = transit_patterns(12);
    let refs: Vec<&Regex> = patterns.iter().collect();
    let space = AtomSpace::build(&universe, &refs).expect("4096 atoms are allowed");
    assert_eq!(space.len(), ATOM_LIMIT);
    assert_eq!(
        space.witness(0),
        "100 101 102 103 104 105 106 107 108 109 110 111"
    );
    assert_eq!(space.witness(ATOM_LIMIT - 1), "");
}

#[test]
fn pattern_roundtrip_text() {
    let r = Regex::parse("_65000:[0-9]+_").unwrap();
    assert_eq!(r.pattern(), "_65000:[0-9]+_");
}

mod properties {
    use super::*;
    use clarify_testkit::{gens, prop_assert, prop_assert_eq, property, Source};

    /// Random subjects over a small alphabet, checked against a tiny
    /// reference matcher for concatenations of literals with `.`/`*`.
    fn arb_subject(g: &mut Source) -> String {
        g.vec(0, 7, |g| g.pick(&['a', 'b', 'c']))
            .into_iter()
            .collect()
    }

    property! {
        /// De Morgan over languages: ¬(A ∪ B) = ¬A ∩ ¬B, checked pointwise.
        fn de_morgan_pointwise(s in arb_subject) {
            let a = dfa("^a.*$");
            let b = dfa("^.*b$");
            let lhs = a.union(&b).complement();
            let rhs = a.complement().intersect(&b.complement());
            prop_assert_eq!(lhs.matches(&s), rhs.matches(&s));
        }

        /// Complement truly flips membership for every subject.
        fn complement_pointwise(s in arb_subject) {
            let d = dfa("^(ab|c)+$");
            prop_assert_eq!(d.matches(&s), !d.complement().matches(&s));
        }

        /// Minimized product DFAs agree with direct evaluation.
        fn intersect_pointwise(s in arb_subject) {
            let a = dfa("_b_");
            let b = dfa("^a");
            let i = a.intersect(&b);
            prop_assert_eq!(i.matches(&s), a.matches(&s) && b.matches(&s));
        }

        /// A DFA's witness is always accepted by that DFA.
        fn witness_accepted(pat in gens::sampled(vec![
            "^a+b$", "_32$", "^(x|y)z*$", "[0-9]:[0-9]",
        ])) {
            let d = dfa(pat);
            let w = d.witness().expect("nonempty");
            prop_assert!(d.matches(&w), "witness {:?} for {}", w, pat);
        }
    }
}

/// An independent reference implementation: naive backtracking evaluation
/// of the regex AST, used to cross-validate the whole NFA→DFA pipeline on
/// randomly generated patterns.
mod reference {
    use super::*;
    use crate::ast::Ast;
    use crate::{ETX, STX};
    use clarify_testkit::{prop_assert_eq, property, Rng, Source};
    use std::collections::BTreeSet;

    /// All positions where a match of `ast` starting at `start` can end.
    fn ends(ast: &Ast, s: &[u8], start: usize) -> BTreeSet<usize> {
        match ast {
            Ast::Empty => BTreeSet::new(),
            Ast::Epsilon => BTreeSet::from([start]),
            Ast::Class(c) => {
                if start < s.len() && c.contains(s[start]) {
                    BTreeSet::from([start + 1])
                } else {
                    BTreeSet::new()
                }
            }
            Ast::Concat(parts) => {
                let mut cur = BTreeSet::from([start]);
                for p in parts {
                    let mut next = BTreeSet::new();
                    for &e in &cur {
                        next.extend(ends(p, s, e));
                    }
                    cur = next;
                    if cur.is_empty() {
                        break;
                    }
                }
                cur
            }
            Ast::Alt(alts) => {
                let mut out = BTreeSet::new();
                for a in alts {
                    out.extend(ends(a, s, start));
                }
                out
            }
            Ast::Star(inner) => {
                let mut out = BTreeSet::from([start]);
                loop {
                    let mut grew = false;
                    for e in out.clone() {
                        for e2 in ends(inner, s, e) {
                            grew |= out.insert(e2);
                        }
                    }
                    if !grew {
                        return out;
                    }
                }
            }
            Ast::Plus(inner) => {
                // inner then inner*.
                let once = ends(inner, s, start);
                let star = Ast::Star(inner.clone());
                let mut out = BTreeSet::new();
                for e in once {
                    out.extend(ends(&star, s, e));
                }
                out
            }
            Ast::Opt(inner) => {
                let mut out = BTreeSet::from([start]);
                out.extend(ends(inner, s, start));
                out
            }
        }
    }

    /// Cisco substring semantics on the sentinel-wrapped subject.
    fn naive_matches(re: &Regex, text: &str) -> bool {
        let mut s = Vec::with_capacity(text.len() + 2);
        s.push(STX);
        s.extend_from_slice(text.as_bytes());
        s.push(ETX);
        (0..=s.len()).any(|i| !ends(&re.ast, &s, i).is_empty())
    }

    /// Random pattern strings over a small alphabet, rendered from a
    /// recursive shape so they always parse. Choice 0 is a leaf, so the
    /// all-zeros shrink target is the single literal "a".
    fn arb_pattern(g: &mut Source) -> String {
        fn node(g: &mut Source, depth: usize) -> String {
            let k = if depth == 0 {
                0
            } else {
                g.gen_range(0usize..6)
            };
            match k {
                0 => g
                    .pick(&["a", "b", "0", ".", "_", "^", "$", "[ab]", "[^a]", "[0-1]"])
                    .to_string(),
                1 => format!("{}{}", node(g, depth - 1), node(g, depth - 1)),
                2 => format!("({}|{})", node(g, depth - 1), node(g, depth - 1)),
                3 => format!("({})*", node(g, depth - 1)),
                4 => format!("({})+", node(g, depth - 1)),
                _ => format!("({})?", node(g, depth - 1)),
            }
        }
        node(g, 3)
    }

    fn arb_subject(g: &mut Source) -> String {
        g.vec(0, 6, |g| g.pick(&['a', 'b', '0', '1', ' ']))
            .into_iter()
            .collect()
    }

    property! {
        /// The compiled DFA agrees with naive AST evaluation on every
        /// random (pattern, subject) pair.
        fn dfa_matches_naive_reference(pat in arb_pattern, text in arb_subject) cases 512 {
            let re = Regex::parse(&pat).expect("generated patterns parse");
            let dfa = re.to_dfa();
            prop_assert_eq!(
                dfa.matches(&text),
                naive_matches(&re, &text),
                "pattern {:?} subject {:?}", pat, text
            );
        }

        /// Complementation agrees with the negated reference.
        fn complement_matches_negated_reference(pat in arb_pattern, text in arb_subject) cases 512 {
            let re = Regex::parse(&pat).expect("generated patterns parse");
            let cdfa = re.to_dfa().complement();
            prop_assert_eq!(cdfa.matches(&text), !naive_matches(&re, &text));
        }
    }
}

mod parser_robustness {
    use super::*;
    use clarify_testkit::{gens, property};

    property! {
        /// The regex parser never panics; it parses or errors cleanly, and
        /// whatever parses also compiles without panicking.
        fn regex_parser_never_panics(input in gens::ascii_string(40)) cases 512 {
            if let Ok(re) = Regex::parse(&input) {
                let _ = re.to_dfa();
            }
        }
    }
}

/// The route space's two universes (`clarify-analysis`): community
/// strings `N:M` and AS paths, with one to five digits per number.
const COMMUNITY_UNIVERSE: &str = "^[0-9][0-9]?[0-9]?[0-9]?[0-9]?:[0-9][0-9]?[0-9]?[0-9]?[0-9]?$";
const AS_PATH_UNIVERSE: &str =
    "^([0-9][0-9]?[0-9]?[0-9]?[0-9]?( [0-9][0-9]?[0-9]?[0-9]?[0-9]?)*)?$";

/// The classifier construction against the per-block refinement it
/// replaced, which stays here as its oracle.
mod atom_oracle {
    use super::*;
    use clarify_testkit::{prop_assert, prop_assert_eq, property, Rng, Source};

    /// The atoms of `patterns` over `universe` by splitting every block
    /// into its inside and its outside, pattern by pattern: the atom
    /// automata in order, their witnesses and each pattern's members, or
    /// `None` past [`ATOM_LIMIT`].
    #[allow(clippy::type_complexity)]
    fn refine(
        universe: &Dfa,
        patterns: &[&Regex],
    ) -> Option<(Vec<Dfa>, Vec<String>, Vec<Vec<usize>>)> {
        // Each block carries (dfa, whether each pattern so far holds it).
        let mut blocks: Vec<(Dfa, Vec<bool>)> = Vec::new();
        if !universe.is_empty() {
            blocks.push((universe.clone(), Vec::new()));
        }
        for pat in patterns {
            let pdfa = pat.to_dfa();
            let ndfa = pdfa.complement();
            let mut next = Vec::with_capacity(blocks.len() * 2);
            for (block, mut inside) in blocks {
                let with = block.intersect(&pdfa);
                let without = block.intersect(&ndfa);
                let mut inside_with = inside.clone();
                inside_with.push(true);
                inside.push(false);
                if !with.is_empty() {
                    next.push((with, inside_with));
                }
                if !without.is_empty() {
                    next.push((without, inside));
                }
                if next.len() > ATOM_LIMIT {
                    return None;
                }
            }
            blocks = next;
        }
        let mut members = vec![Vec::new(); patterns.len()];
        for (ai, (_, inside)) in blocks.iter().enumerate() {
            for (pi, &is_in) in inside.iter().enumerate() {
                if is_in {
                    members[pi].push(ai);
                }
            }
        }
        let witnesses = blocks
            .iter()
            .map(|(dfa, _)| dfa.witness().expect("non-empty atom"))
            .collect();
        Some((
            blocks.into_iter().map(|b| b.0).collect(),
            witnesses,
            members,
        ))
    }

    /// Random patterns over the route spaces' alphabet: one to four items
    /// in a row, each a literal, `_`, `:`, `.`, `^`, `$`, a space or a
    /// class, or a group under alternation or a quantifier. Choice 0 is a
    /// leaf, so the shrink target is the literal "1".
    fn arb_pattern(g: &mut Source) -> String {
        fn item(g: &mut Source, depth: usize) -> String {
            let k = if depth == 0 {
                0
            } else {
                g.gen_range(0usize..10)
            };
            match k {
                0..=5 => g
                    .pick(&[
                        "1", "0", "2", "5", "10", "65", "_", ":", ".", "^", "$", " ", "[0-9]",
                        "[1-3]", "[^1]",
                    ])
                    .to_string(),
                6 => format!("({}|{})", item(g, depth - 1), item(g, depth - 1)),
                7 => format!("({})*", item(g, depth - 1)),
                8 => format!("({})+", item(g, depth - 1)),
                _ => format!("({})?", item(g, depth - 1)),
            }
        }
        g.vec(1, 4, |g| item(g, 2)).concat()
    }

    /// Zero to six patterns and one of the two universes.
    fn arb_case(g: &mut Source) -> (&'static str, Vec<String>) {
        let universe = g.pick(&[COMMUNITY_UNIVERSE, AS_PATH_UNIVERSE]);
        (universe, g.vec(0, 6, arb_pattern))
    }

    /// Subjects near both universes: digits, `:` and spaces.
    fn arb_subjects(g: &mut Source) -> Vec<String> {
        g.vec(0, 8, |g| {
            g.vec(0, 9, |g| g.pick(&['1', '0', '2', '5', ':', ' ', 'x']))
                .into_iter()
                .collect()
        })
    }

    property! {
        /// Same atoms in the same order with the same witnesses, members,
        /// languages and classification as the per-block refinement.
        fn classifier_matches_per_block_refinement(
            case in arb_case,
            subjects in arb_subjects,
        ) cases 64 {
            let (universe, patterns) = case;
            let universe = dfa(universe);
            let regexes: Vec<Regex> = patterns
                .iter()
                .map(|p| Regex::parse(p).expect("generated patterns parse"))
                .collect();
            let refs: Vec<&Regex> = regexes.iter().collect();
            let space = AtomSpace::build(&universe, &refs).expect("at most 64 atoms");
            let (atoms, witnesses, members) =
                refine(&universe, &refs).expect("at most 64 atoms");
            prop_assert_eq!(space.len(), atoms.len());
            for (i, atom) in atoms.iter().enumerate() {
                prop_assert_eq!(space.witness(i), witnesses[i].as_str(), "atom {}", i);
                prop_assert!(space.atom(i).equivalent(atom), "atom {} language", i);
                prop_assert_eq!(space.classify(&witnesses[i]), Some(i));
            }
            for (p, m) in members.iter().enumerate() {
                prop_assert_eq!(space.members_of(p), m.as_slice(), "pattern {}", p);
            }
            for s in &subjects {
                let expected = atoms.iter().position(|a| a.matches(s));
                prop_assert_eq!(space.classify(s), expected, "subject {:?}", s);
            }
        }
    }

    /// A pattern list, and a shuffle of it with zero to two more patterns.
    fn arb_extension(g: &mut Source) -> (&'static str, Vec<String>, Vec<String>) {
        let (universe, patterns) = arb_case(g);
        let mut longer = patterns.clone();
        longer.extend(g.vec(0, 2, arb_pattern));
        for i in (1..longer.len()).rev() {
            longer.swap(i, g.gen_range(0..=i));
        }
        (universe, patterns, longer)
    }

    fn parse_all(patterns: &[String]) -> Vec<Regex> {
        patterns
            .iter()
            .map(|p| Regex::parse(p).expect("generated patterns parse"))
            .collect()
    }

    property! {
        /// Extending the space of a pattern list by a shuffle of it with
        /// more patterns gives the space built from the longer list: the
        /// same atoms in the same order, with the same witnesses, members,
        /// languages and classification, which are the per-block
        /// refinement's.
        fn extension_matches_a_cold_build(
            case in arb_extension,
            subjects in arb_subjects,
        ) cases 64 {
            let (universe, short, long) = case;
            let universe = dfa(universe);
            let (short, long) = (parse_all(&short), parse_all(&long));
            let short: Vec<&Regex> = short.iter().collect();
            let long: Vec<&Regex> = long.iter().collect();
            let from = AtomSpace::build(&universe, &short).expect("at most 64 atoms");
            prop_assert!(from.extends_to(&long));
            let extended = from.extend(&long).expect("at most 256 atoms");
            let cold = AtomSpace::build(&universe, &long).expect("at most 256 atoms");
            let (atoms, witnesses, members) =
                refine(&universe, &long).expect("at most 256 atoms");
            prop_assert_eq!(extended.len(), cold.len());
            prop_assert_eq!(extended.len(), atoms.len());
            for (i, atom) in atoms.iter().enumerate() {
                prop_assert_eq!(extended.witness(i), cold.witness(i), "atom {}", i);
                prop_assert_eq!(extended.witness(i), witnesses[i].as_str(), "atom {}", i);
                prop_assert!(extended.atom(i).equivalent(&cold.atom(i)), "atom {} language", i);
                prop_assert!(extended.atom(i).equivalent(atom), "atom {} language", i);
            }
            for (p, m) in members.iter().enumerate() {
                prop_assert_eq!(extended.members_of(p), cold.members_of(p), "pattern {}", p);
                prop_assert_eq!(extended.members_of(p), m.as_slice(), "pattern {}", p);
            }
            for pat in &long {
                let text = pat.pattern();
                prop_assert_eq!(extended.position(text), cold.position(text), "{:?}", text);
            }
            for s in subjects.iter().chain(&witnesses) {
                let expected = atoms.iter().position(|a| a.matches(s));
                prop_assert_eq!(extended.classify(s), expected, "subject {:?}", s);
                prop_assert_eq!(cold.classify(s), expected, "subject {:?}", s);
            }
        }
    }

    /// At the limit, a reordering still extends (to the space built from
    /// the reordered list) and one more pattern is refused, exactly as a
    /// build of the longer list is.
    #[test]
    fn extension_past_the_limit_is_refused() {
        let universe = dfa(AS_PATH_UNIVERSE);
        let patterns = transit_patterns(13);
        let twelve: Vec<&Regex> = patterns[..12].iter().collect();
        let reversed: Vec<&Regex> = twelve.iter().rev().copied().collect();
        let thirteen: Vec<&Regex> = patterns.iter().collect();
        let space = AtomSpace::build(&universe, &twelve).expect("4096 atoms are allowed");

        let reordered = space.clone().extend(&reversed).expect("no new atom");
        let cold = AtomSpace::build(&universe, &reversed).expect("4096 atoms are allowed");
        assert_eq!(reordered.len(), ATOM_LIMIT);
        for i in 0..ATOM_LIMIT {
            assert_eq!(reordered.witness(i), cold.witness(i), "atom {i}");
        }
        for p in 0..12 {
            assert_eq!(reordered.members_of(p), cold.members_of(p), "pattern {p}");
        }

        assert!(space.extends_to(&thirteen));
        assert!(space.extend(&thirteen).is_none());
        assert!(AtomSpace::build(&universe, &thirteen).is_none());
    }

    /// A space does not extend to a list that drops one of its patterns.
    #[test]
    #[should_panic(expected = "extension drops a pattern")]
    fn extension_keeps_every_pattern() {
        let universe = dfa(COMMUNITY_UNIVERSE);
        let patterns = [
            Regex::parse("_1:1_").unwrap(),
            Regex::parse("_1:2_").unwrap(),
        ];
        let space = AtomSpace::build(&universe, &[&patterns[0], &patterns[1]]).unwrap();
        assert!(!space.extends_to(&[&patterns[1]]));
        space.extend(&[&patterns[1]]);
    }
}
