use crate::{Manager, Ref};

fn three() -> (Manager, Ref, Ref, Ref) {
    let mut m = Manager::new(3);
    let a = m.var(0);
    let b = m.var(1);
    let c = m.var(2);
    (m, a, b, c)
}

#[test]
fn constants_are_distinct_terminals() {
    assert_ne!(Ref::TRUE, Ref::FALSE);
    assert!(Ref::TRUE.is_const());
    assert!(Ref::FALSE.is_const());
}

#[test]
fn var_is_not_const() {
    let mut m = Manager::new(1);
    let a = m.var(0);
    assert!(!a.is_const());
}

#[test]
fn hash_consing_makes_equal_structures_identical() {
    let (mut m, a, b, _) = three();
    let f1 = m.and(a, b);
    let f2 = m.and(b, a);
    assert_eq!(f1, f2, "AND is commutative and BDDs are canonical");
}

#[test]
fn not_not_is_identity() {
    let (mut m, a, b, _) = three();
    let f = m.xor(a, b);
    let nf = m.not(f);
    let nnf = m.not(nf);
    assert_eq!(f, nnf);
}

#[test]
fn de_morgan() {
    let (mut m, a, b, _) = three();
    let and = m.and(a, b);
    let lhs = m.not(and);
    let na = m.not(a);
    let nb = m.not(b);
    let rhs = m.or(na, nb);
    assert_eq!(lhs, rhs);
}

#[test]
fn and_identities() {
    let (mut m, a, _, _) = three();
    assert_eq!(m.and(a, Ref::TRUE), a);
    assert_eq!(m.and(a, Ref::FALSE), Ref::FALSE);
    assert_eq!(m.and(a, a), a);
    let na = m.not(a);
    assert_eq!(m.and(a, na), Ref::FALSE);
}

#[test]
fn or_identities() {
    let (mut m, a, _, _) = three();
    assert_eq!(m.or(a, Ref::FALSE), a);
    assert_eq!(m.or(a, Ref::TRUE), Ref::TRUE);
    assert_eq!(m.or(a, a), a);
    let na = m.not(a);
    assert_eq!(m.or(a, na), Ref::TRUE);
}

#[test]
fn xor_truth_table() {
    let (mut m, a, b, _) = three();
    let f = m.xor(a, b);
    for (av, bv, want) in [
        (false, false, false),
        (false, true, true),
        (true, false, true),
        (true, true, false),
    ] {
        let got = m.eval(f, &|v| match v {
            0 => av,
            1 => bv,
            _ => false,
        });
        assert_eq!(got, want, "xor({av},{bv})");
    }
}

#[test]
fn iff_is_negated_xor() {
    let (mut m, a, b, _) = three();
    let x = m.xor(a, b);
    let lhs = m.not(x);
    let rhs = m.iff(a, b);
    assert_eq!(lhs, rhs);
}

#[test]
fn implies_truth() {
    let (mut m, a, b, _) = three();
    let f = m.and(a, b);
    assert!(m.implies_true(f, a));
    assert!(m.implies_true(f, b));
    assert!(!m.implies_true(a, f));
    assert!(m.implies_true(Ref::FALSE, a));
    assert!(m.implies_true(a, Ref::TRUE));
}

#[test]
fn diff_removes_models() {
    let (mut m, a, b, _) = three();
    let d = m.diff(a, b);
    // d = a & !b: one assignment of (a,b) out of four, times 2 for c.
    assert_eq!(m.sat_count_exact(d), 2);
    assert_eq!(m.and(d, b), Ref::FALSE);
}

#[test]
fn sat_count_small_functions() {
    let (mut m, a, b, c) = three();
    assert_eq!(m.sat_count_exact(Ref::TRUE), 8);
    assert_eq!(m.sat_count_exact(Ref::FALSE), 0);
    assert_eq!(m.sat_count_exact(a), 4);
    let ab = m.and(a, b);
    assert_eq!(m.sat_count_exact(ab), 2);
    let abc = m.and(ab, c);
    assert_eq!(m.sat_count_exact(abc), 1);
    let aob = m.or(a, b);
    assert_eq!(m.sat_count_exact(aob), 6);
}

#[test]
fn any_sat_on_false_is_none() {
    let m = Manager::new(2);
    assert!(m.any_sat(Ref::FALSE).is_none());
}

#[test]
fn any_sat_produces_model() {
    let (mut m, a, b, c) = three();
    let na = m.not(a);
    let f1 = m.and(na, b);
    let f = m.and(f1, c);
    let cube = m.any_sat(f).expect("satisfiable");
    assert_eq!(cube.get(0), Some(false));
    assert_eq!(cube.get(1), Some(true));
    assert_eq!(cube.get(2), Some(true));
    assert!(m.eval(f, &|v| cube.value_or_false(v)));
}

#[test]
fn any_sat_high_prefers_high_branch() {
    let (mut m, a, b, _) = three();
    let f = m.or(a, b);
    let lo = m.any_sat(f).unwrap();
    let hi = m.any_sat_high(f).unwrap();
    // Low-preferring walk picks a=0,b=1; high-preferring picks a=1.
    assert_eq!(lo.get(0), Some(false));
    assert_eq!(hi.get(0), Some(true));
    assert!(m.eval(f, &|v| lo.value_or_false(v)));
    assert!(m.eval(f, &|v| hi.value_or_false(v)));
}

#[test]
fn exists_removes_variable_from_support() {
    let (mut m, a, b, c) = three();
    let ab = m.and(a, b);
    let f = m.or(ab, c);
    let e = m.exists(f, &[1]);
    // exists b. (a&b | c) == a | c
    let aoc = m.or(a, c);
    assert_eq!(e, aoc);
}

#[test]
fn exists_multiple_vars() {
    let (mut m, a, b, c) = three();
    let f0 = m.and(a, b);
    let f = m.and(f0, c);
    let e = m.exists(f, &[0, 2]);
    assert_eq!(e, b);
    let all = m.exists(f, &[0, 1, 2]);
    assert_eq!(all, Ref::TRUE);
}

#[test]
fn eq_const_encodes_exact_value() {
    let mut m = Manager::new(4);
    let vars = [0, 1, 2, 3];
    let f = m.eq_const(&vars, 0b1010);
    assert_eq!(m.sat_count_exact(f), 1);
    let cube = m.any_sat(f).unwrap();
    assert_eq!(cube.decode(&vars), 0b1010);
}

#[test]
fn le_const_counts() {
    let mut m = Manager::new(4);
    let vars = [0, 1, 2, 3];
    for bound in 0..16u64 {
        let f = m.le_const(&vars, bound);
        assert_eq!(m.sat_count_exact(f), u128::from(bound + 1), "<= {bound}");
    }
}

#[test]
fn ge_const_counts() {
    let mut m = Manager::new(4);
    let vars = [0, 1, 2, 3];
    for bound in 0..16u64 {
        let f = m.ge_const(&vars, bound);
        assert_eq!(m.sat_count_exact(f), u128::from(16 - bound), ">= {bound}");
    }
}

#[test]
fn range_const_counts_and_empty() {
    let mut m = Manager::new(4);
    let vars = [0, 1, 2, 3];
    let f = m.range_const(&vars, 3, 9);
    assert_eq!(m.sat_count_exact(f), 7);
    assert_eq!(m.range_const(&vars, 9, 3), Ref::FALSE);
    let one = m.range_const(&vars, 5, 5);
    let five = m.eq_const(&vars, 5);
    assert_eq!(one, five);
}

#[test]
fn eval_walks_correct_branch() {
    let mut m = Manager::new(8);
    let vars: Vec<u32> = (0..8).collect();
    let f = m.eq_const(&vars, 0xA5);
    assert!(m.eval(f, &|v| (0xA5u64 >> (7 - v)) & 1 == 1));
    assert!(!m.eval(f, &|_| true));
}

#[test]
fn stats_track_nodes() {
    let mut m = Manager::new(3);
    assert_eq!(m.stats().nodes, 0);
    let a = m.var(0);
    let b = m.var(1);
    m.and(a, b);
    assert!(m.stats().nodes >= 3);
    assert!(m.stats().cache_misses > 0);
    // Every interned node cost at least one unique-table slot inspection.
    assert!(m.stats().unique_probes >= m.stats().nodes as u64);
}

#[test]
fn commuted_and_or_calls_share_one_cache_entry() {
    let (mut m, a, b, c) = three();
    // or(f, h) is !and(!f, !h): the commuted call must land on the first
    // call's conjunction entry.
    let f1 = m.or(a, b);
    let hits = m.stats().cache_hits;
    let f2 = m.or(b, a);
    assert_eq!(f1, f2);
    assert!(m.stats().cache_hits > hits, "commuted or shares the entry");
    let g1 = m.and(b, c);
    let hits = m.stats().cache_hits;
    let g2 = m.and(c, b);
    assert_eq!(g1, g2);
    assert!(m.stats().cache_hits > hits, "commuted and shares the entry");
}

#[test]
fn lossy_cache_eviction_is_semantically_invisible() {
    // A minimal computed cache under a workload with far more distinct
    // operation triples than slots: collisions must evict (lossy by
    // design) and every result must still match a generously sized cache
    // bit for bit, because evicted entries are recomputed and
    // hash-consing lands the recomputation on the same node.
    let mut tiny = Manager::with_capacity(16, 1);
    let mut big = Manager::new(16);
    let build = |m: &mut Manager| -> Vec<Ref> {
        let vars: Vec<u32> = (0..16).collect();
        (0..48u64)
            .map(|i| m.range_const(&vars, i * 512, i * 512 + 7000))
            .collect()
    };
    let fs_tiny = build(&mut tiny);
    let fs_big = build(&mut big);
    let mut acc_tiny = Ref::FALSE;
    let mut acc_big = Ref::FALSE;
    for i in 0..fs_tiny.len() {
        let j = (i * 7 + 3) % fs_tiny.len();
        let xt = tiny.xor(fs_tiny[i], fs_tiny[j]);
        let xb = big.xor(fs_big[i], fs_big[j]);
        let dt = tiny.diff(xt, acc_tiny);
        let db = big.diff(xb, acc_big);
        assert_eq!(tiny.sat_count_exact(dt), big.sat_count_exact(db));
        acc_tiny = tiny.or(acc_tiny, dt);
        acc_big = big.or(acc_big, db);
    }
    assert!(
        tiny.stats().computed_evictions > 0,
        "the workload must overflow the minimal cache"
    );
    assert_eq!(tiny.sat_count_exact(acc_tiny), big.sat_count_exact(acc_big));
    // Canonicity survives the eviction path: rebuilding in the same
    // manager returns the very same Refs.
    let again = build(&mut tiny);
    assert_eq!(fs_tiny, again);
}

#[test]
fn eviction_counter_reaches_registry() {
    let reg = clarify_obs::Registry::new();
    let mut m = Manager::with_capacity_and_registry(16, 1, &reg);
    let vars: Vec<u32> = (0..16).collect();
    for i in 0..32u64 {
        m.range_const(&vars, i * 512, i * 512 + 9000);
    }
    let stats = m.stats();
    assert!(stats.computed_evictions > 0);
    let snap = reg.snapshot();
    assert_eq!(
        snap.counter("bdd.computed_evictions"),
        stats.computed_evictions
    );
    assert_eq!(snap.counter("bdd.unique_probes"), stats.unique_probes);
    assert!(stats.unique_probes >= stats.nodes as u64);
}

#[test]
fn clear_op_caches_preserves_unique_table() {
    let mut m = Manager::new(8);
    let lits: Vec<_> = (0..8).map(|v| m.var(v)).collect();
    let mut f = Ref::TRUE;
    for chunk in lits.chunks(2) {
        let pair = m.or(chunk[0], chunk[1]);
        f = m.and(f, pair);
    }
    let before = m.stats();
    assert!(before.ite_cache_entries > 0, "ite work must populate cache");

    m.clear_op_caches();
    let after = m.stats();
    assert_eq!(after.ite_cache_entries, 0);
    // Unique table untouched: no node vanished, refs stay valid.
    assert_eq!(after.nodes, before.nodes);
    // Counters are cumulative, not reset.
    assert_eq!(after.cache_hits, before.cache_hits);
    assert_eq!(after.cache_misses, before.cache_misses);

    // Rebuilding the same function yields the same canonical Ref —
    // hash-consing still works and the old Ref is still meaningful.
    let mut g = Ref::TRUE;
    for chunk in lits.chunks(2) {
        let pair = m.or(chunk[0], chunk[1]);
        g = m.and(g, pair);
    }
    assert_eq!(f, g);
    assert!(m.eval(f, &|_| true));
}

#[test]
fn and_all_or_all() {
    let mut m = Manager::new(4);
    let lits: Vec<_> = (0..4).map(|v| m.var(v)).collect();
    let all = m.and_all(lits.iter().copied());
    assert_eq!(m.sat_count_exact(all), 1);
    let any = m.or_all(lits.iter().copied());
    assert_eq!(m.sat_count_exact(any), 15);
    assert_eq!(m.and_all(std::iter::empty()), Ref::TRUE);
    assert_eq!(m.or_all(std::iter::empty()), Ref::FALSE);
}

#[test]
#[should_panic(expected = "out of range")]
fn var_out_of_range_panics() {
    let mut m = Manager::new(2);
    m.var(2);
}

mod properties {
    use super::*;
    use clarify_testkit::{prop_assert, prop_assert_eq, property, Rng, Source};

    /// A tiny expression language for generating random Boolean functions.
    #[derive(Clone, Debug)]
    enum Expr {
        Var(u32),
        Not(Box<Expr>),
        And(Box<Expr>, Box<Expr>),
        Or(Box<Expr>, Box<Expr>),
        Xor(Box<Expr>, Box<Expr>),
    }

    const NVARS: u32 = 6;

    /// Choice 0 is a leaf variable, so the all-zeros shrink target is
    /// the single expression `Var(0)`.
    fn arb_expr(g: &mut Source) -> Expr {
        fn node(g: &mut Source, depth: usize) -> Expr {
            let k = if depth == 0 {
                0
            } else {
                g.gen_range(0usize..5)
            };
            match k {
                0 => Expr::Var(g.gen_range(0..NVARS)),
                1 => Expr::Not(Box::new(node(g, depth - 1))),
                2 => Expr::And(Box::new(node(g, depth - 1)), Box::new(node(g, depth - 1))),
                3 => Expr::Or(Box::new(node(g, depth - 1)), Box::new(node(g, depth - 1))),
                _ => Expr::Xor(Box::new(node(g, depth - 1)), Box::new(node(g, depth - 1))),
            }
        }
        node(g, 5)
    }

    fn build(m: &mut Manager, e: &Expr) -> Ref {
        match e {
            Expr::Var(v) => m.var(*v),
            Expr::Not(a) => {
                let a = build(m, a);
                m.not(a)
            }
            Expr::And(a, b) => {
                let (a, b) = (build(m, a), build(m, b));
                m.and(a, b)
            }
            Expr::Or(a, b) => {
                let (a, b) = (build(m, a), build(m, b));
                m.or(a, b)
            }
            Expr::Xor(a, b) => {
                let (a, b) = (build(m, a), build(m, b));
                m.xor(a, b)
            }
        }
    }

    fn eval_expr(e: &Expr, bits: u32) -> bool {
        match e {
            Expr::Var(v) => (bits >> v) & 1 == 1,
            Expr::Not(a) => !eval_expr(a, bits),
            Expr::And(a, b) => eval_expr(a, bits) && eval_expr(b, bits),
            Expr::Or(a, b) => eval_expr(a, bits) || eval_expr(b, bits),
            Expr::Xor(a, b) => eval_expr(a, bits) ^ eval_expr(b, bits),
        }
    }

    property! {
        /// The BDD agrees with direct expression evaluation on every input.
        fn bdd_matches_truth_table(e in arb_expr) {
            let mut m = Manager::new(NVARS);
            let f = build(&mut m, &e);
            for bits in 0..(1u32 << NVARS) {
                let want = eval_expr(&e, bits);
                let got = m.eval(f, &|v| (bits >> v) & 1 == 1);
                prop_assert_eq!(got, want, "input {:06b}", bits);
            }
        }

        /// sat_count_exact equals the brute-force model count.
        fn sat_count_matches_brute_force(e in arb_expr) {
            let mut m = Manager::new(NVARS);
            let f = build(&mut m, &e);
            let brute = (0..(1u32 << NVARS)).filter(|&bits| eval_expr(&e, bits)).count();
            prop_assert_eq!(m.sat_count_exact(f), brute as u128);
        }

        /// Canonicity: two syntactically different but equivalent builds
        /// produce the same Ref.
        fn double_negation_canonical(e in arb_expr) {
            let mut m = Manager::new(NVARS);
            let f = build(&mut m, &e);
            let nf = m.not(f);
            let nnf = m.not(nf);
            prop_assert_eq!(f, nnf);
        }

        /// any_sat returns a genuine model, and both witnesses are the
        /// truth table's extreme models, variable 0 most significant: with
        /// its free variables read as false, `any_sat` is the
        /// lexicographically least model; with them read as true,
        /// `any_sat_high` is the greatest.
        fn any_sat_is_model(e in arb_expr) {
            let mut m = Manager::new(NVARS);
            let f = build(&mut m, &e);
            match m.any_sat(f) {
                None => prop_assert_eq!(f, Ref::FALSE),
                Some(cube) => {
                    prop_assert!(m.eval(f, &|v| cube.value_or_false(v)));
                }
            }
            // An input holds variable v in bit v; its rank in the order
            // reads variable 0 as the most significant digit.
            let rank = |bits: u32| bits.reverse_bits() >> (32 - NVARS);
            let models = || (0..1u32 << NVARS).filter(|&bits| eval_expr(&e, bits));
            let bits_of = |cube: crate::Cube, free: bool| {
                (0..NVARS).fold(0u32, |acc, v| acc | u32::from(cube.get(v).unwrap_or(free)) << v)
            };
            let least = models().min_by_key(|&bits| rank(bits));
            let greatest = models().max_by_key(|&bits| rank(bits));
            let low = m.any_sat(f).map(|c| bits_of(c, false));
            let high = m.any_sat_high(f).map(|c| bits_of(c, true));
            prop_assert_eq!(low, least, "lex-least model");
            prop_assert_eq!(high, greatest, "lex-greatest model");
        }

        /// exists is monotone: f implies exists v. f
        fn exists_weakens(e in arb_expr, v in |g: &mut Source| g.gen_range(0..NVARS)) {
            let mut m = Manager::new(NVARS);
            let f = build(&mut m, &e);
            let ex = m.exists(f, &[v]);
            prop_assert!(m.implies_true(f, ex));
            // and it is the truth table's quantification: true on an input
            // iff f holds with v cleared or set, so v leaves the support
            for bits in 0..(1u32 << NVARS) {
                let want = eval_expr(&e, bits & !(1 << v)) || eval_expr(&e, bits | (1 << v));
                let got = m.eval(ex, &|u| (bits >> u) & 1 == 1);
                prop_assert_eq!(got, want, "input {:06b}", bits);
            }
        }

        /// Shannon expansion: f == (v & f|v=1) | (!v & f|v=0), with the
        /// cofactor f|v=b taken as exists v. (f & (v == b)).
        fn shannon_expansion(e in arb_expr, v in |g: &mut Source| g.gen_range(0..NVARS)) {
            let mut m = Manager::new(NVARS);
            let f = build(&mut m, &e);
            let vv = m.var(v);
            let on = m.and(f, vv);
            let hi = m.exists(on, &[v]);
            let off = m.diff(f, vv);
            let lo = m.exists(off, &[v]);
            let then = m.and(vv, hi);
            let other = m.diff(lo, vv);
            let rebuilt = m.or(then, other);
            prop_assert_eq!(f, rebuilt);
        }
    }
}

mod kernel_differential {
    //! Differential testing of the kernel against a brute-force
    //! truth-table oracle, over enough variables (16) that the tiny-cache
    //! manager's direct-mapped computed cache is forced through its
    //! eviction path. Failures name a seed replayable with
    //! `CLARIFY_PROP_SEED` (see `clarify-testkit`).

    use super::*;
    use clarify_testkit::{prop_assert_eq, property, Rng, Source};

    const NVARS: u32 = 16;
    /// 2^16 inputs packed 64 per word.
    const BLOCKS: usize = 1 << (NVARS - 6);

    /// Expression language covering every public connective, plus the
    /// if-then-else and implication shapes, which `build` writes out
    /// through the conjunction and exclusive-or kernels.
    #[derive(Clone, Debug)]
    enum Expr {
        Var(u32),
        Not(Box<Expr>),
        And(Box<Expr>, Box<Expr>),
        Or(Box<Expr>, Box<Expr>),
        Xor(Box<Expr>, Box<Expr>),
        Iff(Box<Expr>, Box<Expr>),
        Diff(Box<Expr>, Box<Expr>),
        Implies(Box<Expr>, Box<Expr>),
        Ite(Box<Expr>, Box<Expr>, Box<Expr>),
    }

    /// Choice 0 is a leaf, so the all-zeros shrink target is `Var(0)`.
    fn arb_expr(g: &mut Source) -> Expr {
        fn node(g: &mut Source, depth: usize) -> Expr {
            let k = if depth == 0 {
                0
            } else {
                g.gen_range(0usize..9)
            };
            let sub = |g: &mut Source| Box::new(node(g, depth - 1));
            match k {
                0 => Expr::Var(g.gen_range(0..NVARS)),
                1 => Expr::Not(sub(g)),
                2 => Expr::And(sub(g), sub(g)),
                3 => Expr::Or(sub(g), sub(g)),
                4 => Expr::Xor(sub(g), sub(g)),
                5 => Expr::Iff(sub(g), sub(g)),
                6 => Expr::Diff(sub(g), sub(g)),
                7 => Expr::Implies(sub(g), sub(g)),
                _ => {
                    let f = sub(g);
                    Expr::Ite(f, sub(g), sub(g))
                }
            }
        }
        node(g, 4)
    }

    fn build(m: &mut Manager, e: &Expr) -> Ref {
        match e {
            Expr::Var(v) => m.var(*v),
            Expr::Not(a) => {
                let a = build(m, a);
                m.not(a)
            }
            Expr::And(a, b) => {
                let (a, b) = (build(m, a), build(m, b));
                m.and(a, b)
            }
            Expr::Or(a, b) => {
                let (a, b) = (build(m, a), build(m, b));
                m.or(a, b)
            }
            Expr::Xor(a, b) => {
                let (a, b) = (build(m, a), build(m, b));
                m.xor(a, b)
            }
            Expr::Iff(a, b) => {
                let (a, b) = (build(m, a), build(m, b));
                m.iff(a, b)
            }
            Expr::Diff(a, b) => {
                let (a, b) = (build(m, a), build(m, b));
                m.diff(a, b)
            }
            Expr::Implies(a, b) => {
                let (a, b) = (build(m, a), build(m, b));
                let d = m.diff(a, b);
                m.not(d)
            }
            Expr::Ite(c, t, e) => {
                let (c, t, e) = (build(m, c), build(m, t), build(m, e));
                let then = m.and(c, t);
                let other = m.diff(e, c);
                m.or(then, other)
            }
        }
    }

    /// The full 2^16-entry truth table of variable `v`, bit-parallel.
    fn var_table(v: u32) -> Vec<u64> {
        let mut t = vec![0u64; BLOCKS];
        if v < 6 {
            // The pattern repeats inside every 64-input word.
            let mut word = 0u64;
            for j in 0..64u64 {
                if (j >> v) & 1 == 1 {
                    word |= 1 << j;
                }
            }
            t.fill(word);
        } else {
            // Whole words are constant; the block index carries the bit.
            for (b, w) in t.iter_mut().enumerate() {
                if (b >> (v - 6)) & 1 == 1 {
                    *w = !0;
                }
            }
        }
        t
    }

    /// Brute-force oracle: evaluates the expression on all 2^16 inputs
    /// at once with word-parallel Boolean algebra.
    fn oracle(e: &Expr) -> Vec<u64> {
        fn zip(a: Vec<u64>, b: Vec<u64>, f: impl Fn(u64, u64) -> u64) -> Vec<u64> {
            a.into_iter().zip(b).map(|(x, y)| f(x, y)).collect()
        }
        match e {
            Expr::Var(v) => var_table(*v),
            Expr::Not(a) => oracle(a).into_iter().map(|w| !w).collect(),
            Expr::And(a, b) => zip(oracle(a), oracle(b), |x, y| x & y),
            Expr::Or(a, b) => zip(oracle(a), oracle(b), |x, y| x | y),
            Expr::Xor(a, b) => zip(oracle(a), oracle(b), |x, y| x ^ y),
            Expr::Iff(a, b) => zip(oracle(a), oracle(b), |x, y| !(x ^ y)),
            Expr::Diff(a, b) => zip(oracle(a), oracle(b), |x, y| x & !y),
            Expr::Implies(a, b) => zip(oracle(a), oracle(b), |x, y| !x | y),
            Expr::Ite(f, g, h) => {
                let f = oracle(f);
                let g = oracle(g);
                let h = oracle(h);
                f.iter()
                    .zip(g)
                    .zip(h)
                    .map(|((&fw, gw), hw)| (fw & gw) | (!fw & hw))
                    .collect()
            }
        }
    }

    fn popcount(t: &[u64]) -> u128 {
        t.iter().map(|w| u128::from(w.count_ones())).sum()
    }

    fn table_bit(t: &[u64], input: usize) -> bool {
        (t[input / 64] >> (input % 64)) & 1 == 1
    }

    property! {
        /// The kernel agrees with the oracle on model counts and sampled
        /// inputs — both with a minimal (eviction-heavy) computed cache
        /// and with the default one, and rebuilding after a cache clear
        /// lands on the same canonical Refs.
        fn kernel_matches_oracle_through_evictions(
            e in arb_expr,
            samples in |g: &mut Source| -> Vec<usize> {
                (0..64).map(|_| g.gen_range(0usize..1 << 16)).collect()
            },
        ) cases 64 {
            let want = oracle(&e);
            let models = popcount(&want);

            // Minimal cache: with_capacity(…, 1) clamps to the floor, so
            // nontrivial expressions run the eviction path constantly.
            let mut tiny = Manager::with_capacity(NVARS, 1);
            let f = build(&mut tiny, &e);
            prop_assert_eq!(tiny.sat_count_exact(f), models, "tiny-cache model count");
            for &i in &samples {
                let got = tiny.eval(f, &|v| (i >> v) & 1 == 1);
                prop_assert_eq!(got, table_bit(&want, i), "tiny-cache eval at {:016b}", i);
            }

            // Default cache: same semantics.
            let mut big = Manager::new(NVARS);
            let fb = build(&mut big, &e);
            prop_assert_eq!(big.sat_count_exact(fb), models, "default-cache model count");
            for &i in &samples {
                let got = big.eval(fb, &|v| (i >> v) & 1 == 1);
                prop_assert_eq!(got, table_bit(&want, i), "default-cache eval at {:016b}", i);
            }

            // Clearing the lossy cache and rebuilding must reproduce the
            // identical node (canonicity is cache-independent).
            tiny.clear_op_caches();
            let again = build(&mut tiny, &e);
            prop_assert_eq!(f, again, "rebuild after clear_op_caches");
        }
    }

    property! {
        /// The kernel still agrees with the oracle after a collection
        /// mid-property: the rooted function keeps its semantics, and
        /// rebuilding the expression after the sweep lands on the
        /// identical canonical Ref.
        fn kernel_matches_oracle_across_gc(
            e in arb_expr,
            samples in |g: &mut Source| -> Vec<usize> {
                (0..32).map(|_| g.gen_range(0usize..1 << 16)).collect()
            },
        ) cases 32 {
            let want = oracle(&e);
            let models = popcount(&want);

            let mut m = Manager::new(NVARS);
            let f = build(&mut m, &e);
            let root = m.protect(f);

            // The sweep invalidates every unrooted ref; the root survives.
            m.gc();
            let f = root.as_ref();
            prop_assert_eq!(m.sat_count_exact(f), models, "model count after gc");
            for &i in &samples {
                let got = m.eval(f, &|v| (i >> v) & 1 == 1);
                prop_assert_eq!(got, table_bit(&want, i), "eval after gc at {:016b}", i);
            }
            let again = build(&mut m, &e);
            prop_assert_eq!(again, f, "rebuild after gc");
            m.unprotect(root);
        }
    }
}

#[test]
fn exact_sat_count_with_gaps_in_support() {
    let mut m = Manager::new(8);
    // Depends only on variables 2 and 5: each model leaves 6 vars free.
    let a = m.var(2);
    let b = m.var(5);
    let f = m.and(a, b);
    assert_eq!(m.sat_count_exact(f), 1 << 6);
    let g = m.xor(a, b);
    assert_eq!(m.sat_count_exact(g), 2 << 6);
}
#[test]
#[should_panic(expected = "does not fit")]
fn le_const_rejects_oversized_bound() {
    let mut m = Manager::new(4);
    m.le_const(&[0, 1, 2, 3], 16);
}

#[test]
fn wide_var_slices_work() {
    // More than 64 variables in one field: high positions are leading
    // zeros, not shift overflow.
    let mut m = Manager::new(70);
    let vars: Vec<u32> = (0..70).collect();
    let f = m.eq_const(&vars, 5);
    assert_eq!(m.sat_count_exact(f), 1);
    let g = m.le_const(&vars, 5);
    assert_eq!(m.sat_count_exact(g), 6);
}

#[test]
fn obs_counters_survive_clear_op_caches_but_gauge_drops() {
    let reg = clarify_obs::Registry::new();
    let mut m = Manager::with_registry(8, &reg);
    let a = m.var(0);
    let b = m.var(1);
    let c = m.var(2);
    let ab = m.and(a, b);
    let _f = m.or(ab, c);
    let _g = m.xor(a, c);

    let before = reg.snapshot();
    assert!(before.counter("bdd.ite_calls") > 0);
    assert!(before.counter("bdd.ite_cache_misses") > 0);
    assert!(before.gauge("bdd.ite_cache_entries") > 0);
    assert_eq!(before.counter("bdd.op_cache_clears"), 0);

    m.clear_op_caches();

    let after = reg.snapshot();
    // Counters are monotonic history: clearing the memo tables must not
    // erase them.
    assert_eq!(
        after.counter("bdd.ite_calls"),
        before.counter("bdd.ite_calls")
    );
    assert_eq!(
        after.counter("bdd.ite_cache_misses"),
        before.counter("bdd.ite_cache_misses")
    );
    // The live-entry gauge tracks the actual table, which is now empty.
    assert_eq!(after.gauge("bdd.ite_cache_entries"), 0);
    assert_eq!(after.counter("bdd.op_cache_clears"), 1);

    // Rebuilding after the clear re-populates the cache and the gauge.
    let _h = m.and(b, c);
    assert!(reg.snapshot().gauge("bdd.ite_cache_entries") > 0);

    // Dropping the manager returns the node gauge to zero.
    assert!(reg.snapshot().gauge("bdd.unique_nodes") > 0);
    drop(m);
    assert_eq!(reg.snapshot().gauge("bdd.unique_nodes"), 0);
    assert_eq!(reg.snapshot().gauge("bdd.ite_cache_entries"), 0);
}

mod gc {
    //! Complement-edge sharing and the root/collect lifecycle.

    use super::*;

    #[test]
    fn negation_allocates_nothing_and_shares_every_node() {
        let (mut m, a, b, c) = three();
        let ab = m.and(a, b);
        let f = m.or(ab, c);
        let nodes_before = m.live_node_count();
        let nf = m.not(f);
        assert_eq!(
            m.live_node_count(),
            nodes_before,
            "complement negation must not touch the arena"
        );
        assert_eq!(nf.index(), f.index(), "f and !f share their top node");
        assert_ne!(f, nf);
        // Rebuilding !f from scratch finds every node already interned.
        let (na, nb, nc) = (m.not(a), m.not(b), m.not(c));
        let nab = m.or(na, nb);
        let rebuilt = m.and(nab, nc);
        assert_eq!(rebuilt, nf);
        assert_eq!(
            m.live_node_count(),
            nodes_before,
            "f and !f share the whole diagram"
        );
    }

    #[test]
    fn complement_edges_appear_in_stats() {
        let (mut m, a, b, c) = three();
        // iff forces mixed-polarity else edges somewhere in the diagram.
        let ab = m.iff(a, b);
        let f = m.iff(ab, c);
        assert!(!f.is_const());
        assert!(
            m.stats().complement_edges > 0,
            "a chain of iffs must store at least one complemented else edge"
        );
    }

    #[test]
    fn gc_frees_unrooted_nodes_and_keeps_rooted_semantics() {
        let mut m = Manager::new(16);
        let vars: Vec<u32> = (0..16).collect();
        let keep = m.range_const(&vars, 100, 20_000);
        let root = m.protect(keep);
        // Garbage: never rooted, dropped by the next sweep.
        for i in 0..32u64 {
            let _ = m.range_const(&vars, i * 7, i * 7 + 1_000);
        }
        let before = m.live_node_count();
        let stats = m.gc();
        assert!(stats.freed > 0, "the unrooted ranges must be swept");
        assert_eq!(stats.live, m.live_node_count());
        assert!(m.live_node_count() < before);
        // The rooted function is untouched, down to its witnesses.
        let f = root.as_ref();
        assert_eq!(m.sat_count_exact(f), 20_000 - 100 + 1);
        assert_eq!(m.any_sat(f).expect("sat").decode(&vars), 100);
        assert_eq!(m.any_sat_high(f).expect("sat").decode(&vars), 20_000);
        m.unprotect(root);
    }

    #[test]
    fn swept_slots_are_reused_without_growing_the_arena() {
        let mut m = Manager::new(16);
        let vars: Vec<u32> = (0..16).collect();
        let f = m.eq_const(&vars, 12_345);
        let root = m.protect(f);
        // Plenty of garbage, so the sweep leaves a deep free list.
        for i in 0..64u64 {
            let _ = m.range_const(&vars, i * 13, i * 13 + 4_000);
        }
        let stats = m.gc();
        assert!(
            stats.freed > 100,
            "expected a deep free list, freed {}",
            stats.freed
        );
        let capacity = m.stats().capacity_nodes;
        // New allocations must draw from the free list, not grow the arena.
        for i in 0..16u64 {
            let g = m.eq_const(&vars, 20_000 + i);
            assert!(!g.is_const());
        }
        assert_eq!(
            m.stats().capacity_nodes,
            capacity,
            "allocation after gc must draw from the free list"
        );
        m.unprotect(root);
    }

    #[test]
    fn stats_distinguish_live_nodes_from_arena_capacity() {
        let mut m = Manager::new(16);
        let vars: Vec<u32> = (0..16).collect();
        let keep = m.eq_const(&vars, 99);
        let root = m.protect(keep);
        for i in 0..16u64 {
            let _ = m.range_const(&vars, i * 11, i * 11 + 2_000);
        }
        let before = m.stats();
        assert_eq!(before.nodes, before.capacity_nodes, "no dead slots yet");
        m.gc();
        let after = m.stats();
        assert_eq!(after.nodes, m.live_node_count());
        assert!(
            after.nodes < after.capacity_nodes,
            "post-gc stats must not report dead slots as resident nodes"
        );
        assert_eq!(
            after.capacity_nodes, before.capacity_nodes,
            "sweep never shrinks the arena"
        );
        assert_eq!(after.gc_runs, 1);
        assert!(after.gc_freed_nodes > 0);
        m.unprotect(root);
    }

    /// The GC-stress soak: hundreds of build/drop rounds with automatic
    /// collection armed must hold the live-node high-water flat instead of
    /// accumulating every round's garbage (the daemon-session regression
    /// this kernel exists to fix).
    #[test]
    fn auto_gc_keeps_session_live_nodes_bounded() {
        const ROUNDS: u64 = 220;
        let mut m = Manager::new(32);
        let vars: Vec<u32> = (0..32).collect();
        let valid = m.range_const(&vars, 0, u64::from(u32::MAX) / 2);
        let root = m.protect(valid);
        m.set_auto_gc(true);

        let mut high_water = 0usize;
        let mut allocated_total = 0usize;
        for round in 0..ROUNDS {
            // One "session turn": a handful of per-turn predicates that
            // nothing roots, then the turn-boundary cache clear.
            let mut acc = root.as_ref();
            for i in 0..8u64 {
                let lo = (round * 131 + i * 977) % 60_000;
                let r = m.range_const(&vars, lo, lo + 35_000);
                acc = m.xor(acc, r);
            }
            assert!(!acc.is_const());
            high_water = high_water.max(m.live_node_count());
            let capacity_before = m.stats().capacity_nodes;
            m.clear_op_caches(); // the auto-gc hook lives here
            allocated_total += capacity_before;
        }

        let stats = m.stats();
        assert!(stats.gc_runs >= 5, "auto-gc never fired: {stats:?}");
        assert!(
            high_water < 32_768,
            "live-node high-water {high_water} is not bounded"
        );
        assert!(
            stats.capacity_nodes < 32_768,
            "arena capacity {} keeps growing despite the free list",
            stats.capacity_nodes
        );
        assert!(
            allocated_total > 10 * high_water,
            "workload too small to prove anything"
        );
        // The rooted validity predicate is intact after every sweep.
        assert_eq!(
            m.sat_count_exact(root.as_ref()),
            u128::from(u32::MAX / 2) + 1
        );
        m.unprotect(root);
    }
}
