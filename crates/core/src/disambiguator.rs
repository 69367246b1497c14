//! The disambiguator: find where a verified rule belongs in an ordered
//! first-match policy by asking the user behavioural questions backed by
//! concrete differential examples.
//!
//! The §4 placement search is one algorithm over any such policy; this
//! module implements it once. A [`RuleKind`] — route-map stanzas, ACL
//! entries, prefix-list entries — supplies only what differs: the
//! symbolic space, the new rule's match set, the differential question
//! and the insertion itself. The overlap scan, the lint prune, the pivot
//! scan (serial or pooled), the plan replay and the insertion metrics
//! exist once, here.

use clarify_analysis::FirstMatchPolicy;
use clarify_bdd::Ref;
use clarify_lint::prune_candidates;
use clarify_netconfig::Config;

use crate::error::ClarifyError;
use crate::oracle::{Choice, UserOracle};
use crate::route_map::{DisambiguationQuestion, RouteMapInsertion};

/// How insertion points are explored.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum PlacementStrategy {
    /// The §4 algorithm: binary search over the overlapping rules, asking
    /// `O(log n)` questions.
    #[default]
    BinarySearch,
    /// The paper prototype's restriction: only the top and the bottom of
    /// the policy are considered (Figure 2 (a) and (b)); at most one
    /// question is asked.
    TopBottomOnly,
    /// Ablation baseline: walk the overlapping rules top-down, asking one
    /// question per overlap (`O(n)` questions).
    LinearScan,
}

/// One insertion problem — a base policy and the new rule — for one kind
/// of ordered first-match policy. Implemented by [`RouteMapInsertion`],
/// [`AclInsertion`](crate::AclInsertion) and
/// [`PrefixListInsertion`](crate::PrefixListInsertion).
pub trait RuleKind: Clone + std::fmt::Debug + Sync {
    /// The symbolic space the kind's sets live in.
    type Space;
    /// The policy object the new rule goes into; it supplies the existing
    /// rules' match and fire sets.
    type Policy: FirstMatchPolicy<Space = Self::Space>;
    /// One differential question, rendered to the user via `Display`.
    type Question: Clone + std::fmt::Debug + std::fmt::Display + Send;
    /// The mechanical edit report of an insertion.
    type Report: Clone + std::fmt::Debug;

    /// The base configuration.
    fn base(&self) -> &Config;
    /// The policy the new rule goes into, as it is in [`base`](Self::base).
    fn target(&self) -> &Self::Policy;
    /// A fresh space covering the base and the new rule (each pooled
    /// pivot-scan worker builds its own).
    fn new_space(&self) -> Result<Self::Space, ClarifyError>;
    /// The new rule's match set, restricted to valid inputs (`s*`).
    fn new_match(&self, space: &mut Self::Space) -> Result<Ref, ClarifyError>;
    /// The differential question between two placements of the new rule
    /// (`above` is OPTION 1), or `None` when they are equivalent. `pivot`
    /// is the index of the existing rule the question is about.
    fn question(
        &self,
        space: &mut Self::Space,
        above: &Config,
        below: &Config,
        pivot: usize,
    ) -> Result<Option<Self::Question>, ClarifyError>;
    /// Inserts the new rule at `position` of the base policy.
    fn insert(&self, position: usize) -> Result<(Config, Self::Report), ClarifyError>;
    /// How a question names its pivot rule to the user: a route-map
    /// stanza by its sequence number, an ACL or prefix-list entry by its
    /// index.
    fn pivot(question: &Self::Question) -> u64;
}

/// What the disambiguator did for one insertion.
#[derive(Clone, Debug)]
pub struct DisambiguationResult<K: RuleKind = RouteMapInsertion> {
    /// The final configuration with the new rule inserted.
    pub config: Config,
    /// Zero-based position of the new rule.
    pub position: usize,
    /// The mechanical edit report (for route-maps: renames, renumbering).
    pub report: K::Report,
    /// Number of questions the user answered.
    pub questions: usize,
    /// Number of existing rules whose match set overlaps the new rule's.
    pub overlap_candidates: usize,
    /// Overlap candidates discarded by the lint prune (the new rule is
    /// shadowed at those boundaries, so they are provably non-decisive).
    pub pruned_candidates: usize,
    /// Number of expensive above/below placement comparisons performed.
    pub comparisons: usize,
    /// The full question/answer transcript.
    pub transcript: Vec<(K::Question, Choice)>,
}

/// The disambiguator itself. Stateless apart from its strategy.
#[derive(Clone, Copy, Debug, Default)]
pub struct Disambiguator {
    /// Exploration strategy.
    pub strategy: PlacementStrategy,
}

impl Disambiguator {
    /// Creates a disambiguator with the given strategy.
    pub fn new(strategy: PlacementStrategy) -> Disambiguator {
        Disambiguator { strategy }
    }

    /// Plans `kind`'s insertion in a fresh space and drives it to
    /// completion against `oracle`.
    pub fn disambiguate<K: RuleKind>(
        &self,
        kind: K,
        oracle: &mut dyn UserOracle<K::Question>,
    ) -> Result<DisambiguationResult<K>, ClarifyError> {
        let mut space = kind.new_space()?;
        self.plan(&mut space, kind)?.drive(oracle)
    }

    /// Builds an [`InsertionPlan`] in a caller-owned space: the expensive
    /// symbolic work (overlap set, lint prune, per-pivot placement
    /// comparisons) runs here, once; the returned plan answers every
    /// subsequent [`InsertionPlan::step`] with pure in-memory replay.
    /// ROBDD canonicity makes the space's history invisible: a warm space
    /// (a session's packet space) and a fresh one built from the same
    /// configurations yield byte-identical questions (same witnesses, same
    /// order).
    ///
    /// The space must cover both the base and the new rule (for
    /// route-maps: an atom environment with an equal
    /// [`atom_env_hash`](clarify_analysis::atom_env_hash)).
    pub fn plan<K: RuleKind>(
        &self,
        space: &mut K::Space,
        kind: K,
    ) -> Result<InsertionPlan<K>, ClarifyError> {
        let _insert_span = clarify_obs::span!("disambiguator_insert");
        let s_star = kind.new_match(space)?;

        // The §4 candidate set: existing rules whose match set intersects
        // the new rule's, in original order.
        let match_sets = kind.target().match_sets(space, kind.base())?;
        let base_len = match_sets.len();
        let mgr = K::Policy::manager(space);
        let overlaps: Vec<usize> = (0..base_len)
            .filter(|&i| mgr.and(match_sets[i], s_star) != Ref::FALSE)
            .collect();
        let n = overlaps.len();

        // Lint-based pre-filter: a pivot where the new rule never reaches
        // the pivot rule's firing region (`s* ∧ fire_i = ⊥`) cannot be
        // decisive — above/below placements there are provably equivalent
        // — so its placement comparison is skipped outright.
        let (fires, _) = kind.target().fire_sets(space, kind.base())?;
        let candidates =
            prune_candidates(K::Policy::manager(space), &fires, s_star, &overlaps).kept;
        let pruned_candidates = n - candidates.len();

        // Keep only *decisive* pivots: candidates where inserting the new
        // rule immediately above vs immediately below actually changes
        // behaviour. An equivalence at a pivot (e.g. a deny rule crossing
        // a deny rule) means that boundary vanishes — the two adjacent
        // slots merge — and treating it as an answer would discard half
        // the search space that may hold the intent. Each decisive pivot
        // carries its precomputed differential question.
        //
        // The scan is the hot loop — one full policy comparison per
        // candidate — and each comparison is independent. With one thread
        // it runs directly on the shared space, whose unique table already
        // holds every rule encoding the comparisons rebuild; with more it
        // fans out over `clarify-par` with one worker-local space per
        // worker. ROBDD canonicity makes the choice invisible: a fresh
        // space built from the same configs yields the same witnesses as
        // the shared serial space, and results come back in input order.
        let differential = |space: &mut K::Space, above: usize, below: usize, pivot: usize| {
            let (above, _) = kind.insert(above)?;
            let (below, _) = kind.insert(below)?;
            kind.question(space, &above, &below, pivot)
        };
        let scan: Vec<Result<Option<K::Question>, ClarifyError>> = {
            let _scan_span = clarify_obs::span!("pivot_scan");
            if clarify_par::current_threads() == 1 {
                candidates
                    .iter()
                    .map(|&pivot| differential(&mut *space, pivot, pivot + 1, pivot))
                    .collect()
            } else {
                clarify_par::par_map_init(
                    &candidates,
                    || None,
                    |worker_space, _, &pivot| {
                        let space = match worker_space {
                            Some(s) => s,
                            None => worker_space.insert(kind.new_space()?),
                        };
                        differential(space, pivot, pivot + 1, pivot)
                    },
                )
            }
        };
        let mut pivots: Vec<(usize, K::Question)> = Vec::new();
        for (&pivot, q) in candidates.iter().zip(scan) {
            if let Some(q) = q? {
                pivots.push((pivot, q));
            }
        }
        // The overlap/prune round is done with the shared space's ite
        // cache; drop it (unique table preserved) before the placement
        // round so long sessions don't accrete dead cache entries.
        K::Policy::manager(space).clear_op_caches();
        let mut comparisons = candidates.len();

        // TopBottomOnly's single question is the differential between the
        // two extreme placements; precompute it here so the plan's replay
        // needs no symbolic work. When every boundary is non-decisive the
        // strategy never compares — as with the other strategies,
        // everything is equivalent and the plan appends.
        let top_bottom = if self.strategy == PlacementStrategy::TopBottomOnly && !pivots.is_empty()
        {
            comparisons += 1;
            differential(space, 0, base_len, 0)?
        } else {
            None
        };

        Ok(InsertionPlan {
            kind,
            base_len,
            strategy: self.strategy,
            pivots,
            top_bottom,
            overlap_candidates: n,
            pruned_candidates,
            comparisons,
        })
    }
}

/// A fully-precomputed insertion search: the decisive pivots with their
/// differential questions, plus everything needed to materialise the final
/// configuration. Produced by [`Disambiguator::plan`]; consumed either by
/// [`drive`](InsertionPlan::drive) against a [`UserOracle`] (the one-shot
/// path) or turn-by-turn via [`step`](InsertionPlan::step) /
/// [`finish`](InsertionPlan::finish) (the session-daemon path). Replay is
/// pure in-memory work — no symbolic recompute per answer — and both paths
/// walk the identical pivot table, so they produce byte-identical question
/// sequences.
#[derive(Clone, Debug)]
pub struct InsertionPlan<K: RuleKind = RouteMapInsertion> {
    kind: K,
    /// Rule count of the base policy: the append slot when no boundary is
    /// decisive.
    pub(crate) base_len: usize,
    strategy: PlacementStrategy,
    /// Decisive pivots in original rule order, each with its precomputed
    /// differential question.
    pub(crate) pivots: Vec<(usize, K::Question)>,
    /// TopBottomOnly's single question (`None` unless that strategy is
    /// active, at least one pivot is decisive, and the two extreme
    /// placements actually differ).
    top_bottom: Option<K::Question>,
    overlap_candidates: usize,
    pruned_candidates: usize,
    comparisons: usize,
}

/// What an [`InsertionPlan`] needs next, given an answer prefix.
#[derive(Clone, Debug)]
pub enum PlanStep<'a, Q = DisambiguationQuestion> {
    /// The search needs one more answer, to this question.
    Ask {
        /// 1-based ordinal of the question within the session.
        number: usize,
        /// The differential question to put to the user.
        question: &'a Q,
    },
    /// The answers fully determine the insertion point.
    Done {
        /// Zero-based position of the new rule.
        position: usize,
    },
}

/// Internal replay outcome: either the next unanswered question (with how
/// many answers were consumed reaching it) or the final position plus the
/// reconstructed transcript.
enum Replay<'a, Q> {
    Need(&'a Q, usize),
    Done {
        position: usize,
        transcript: Vec<(Q, Choice)>,
    },
}

impl<K: RuleKind> InsertionPlan<K> {
    /// Maps a slot index in the decisive-pivot order to a rule position.
    fn slot_to_position(&self, slot: usize) -> usize {
        match self.pivots.get(slot) {
            Some(&(pivot, _)) => pivot,
            None => self.pivots.last().map_or(self.base_len, |&(p, _)| p + 1),
        }
    }

    /// Replays the placement search against an answer prefix. Pure and
    /// deterministic: the same prefix always reaches the same point, so a
    /// session can re-derive its current question from stored answers
    /// alone.
    fn replay<'a>(&'a self, answers: &[Choice]) -> Replay<'a, K::Question> {
        let mut asked: Vec<&K::Question> = Vec::new();
        let position = self.search(|q| {
            let c = answers.get(asked.len()).copied().ok_or(q)?;
            asked.push(q);
            Ok(c)
        });
        match position {
            Err(q) => Replay::Need(q, asked.len()),
            Ok(position) => Replay::Done {
                position,
                transcript: asked
                    .into_iter()
                    .cloned()
                    .zip(answers.iter().copied())
                    .collect(),
            },
        }
    }

    /// The placement search itself, putting each question to `ask`; stops
    /// at the first question `ask` cannot answer and returns it.
    fn search<'a>(
        &'a self,
        mut ask: impl FnMut(&'a K::Question) -> Result<Choice, &'a K::Question>,
    ) -> Result<usize, &'a K::Question> {
        let m = self.pivots.len();
        // No decisive boundary anywhere: all positions are equivalent (or
        // there was no overlap at all); append — for every strategy.
        if m == 0 {
            return Ok(self.base_len);
        }
        Ok(match self.strategy {
            PlacementStrategy::BinarySearch => {
                let (mut lo, mut hi) = (0, m);
                while lo < hi {
                    let mid = (lo + hi) / 2;
                    match ask(&self.pivots[mid].1)? {
                        Choice::First => hi = mid,
                        Choice::Second => lo = mid + 1,
                    }
                }
                self.slot_to_position(lo)
            }
            PlacementStrategy::LinearScan => {
                let mut slot = m;
                for (k, (_, q)) in self.pivots.iter().enumerate() {
                    if ask(q)? == Choice::First {
                        slot = k;
                        break;
                    }
                }
                self.slot_to_position(slot)
            }
            PlacementStrategy::TopBottomOnly => match &self.top_bottom {
                // Extreme placements equivalent; bottom by convention.
                None => self.base_len,
                Some(q) => match ask(q)? {
                    Choice::First => 0,
                    Choice::Second => self.base_len,
                },
            },
        })
    }

    /// Given the answers so far, returns either the next question to ask
    /// or the determined insertion position. Surplus answers beyond what
    /// the search consumes are ignored.
    pub fn step(&self, answers: &[Choice]) -> PlanStep<'_, K::Question> {
        match self.replay(answers) {
            Replay::Need(question, used) => PlanStep::Ask {
                number: used + 1,
                question,
            },
            Replay::Done { position, .. } => PlanStep::Done { position },
        }
    }

    /// Materialises the final configuration from a complete answer
    /// sequence, recording the insertion metrics exactly once. Returns
    /// [`ClarifyError::OracleExhausted`] if the answers don't reach a
    /// determined position (callers should [`step`](Self::step) first).
    pub fn finish(&self, answers: &[Choice]) -> Result<DisambiguationResult<K>, ClarifyError> {
        let Replay::Done {
            position,
            transcript,
        } = self.replay(answers)
        else {
            return Err(ClarifyError::OracleExhausted);
        };
        let (config, report) = self.kind.insert(position)?;
        // Every insertion — whatever the rule kind — lands in the same
        // counters; zero-valued ones are still registered for traces.
        let obs = clarify_obs::global();
        obs.counter("disambiguator.insertions").incr();
        obs.counter("disambiguator.overlap_candidates")
            .add(self.overlap_candidates as u64);
        obs.counter("disambiguator.candidates_pruned")
            .add(self.pruned_candidates as u64);
        obs.counter("disambiguator.questions_asked")
            .add(transcript.len() as u64);
        obs.counter("disambiguator.comparisons")
            .add(self.comparisons as u64);
        Ok(DisambiguationResult {
            config,
            position,
            report,
            questions: transcript.len(),
            overlap_candidates: self.overlap_candidates,
            pruned_candidates: self.pruned_candidates,
            comparisons: self.comparisons,
            transcript,
        })
    }

    /// Runs the plan to completion against an oracle: the classic
    /// synchronous loop.
    pub fn drive(
        self,
        oracle: &mut dyn UserOracle<K::Question>,
    ) -> Result<DisambiguationResult<K>, ClarifyError> {
        let mut answers: Vec<Choice> = Vec::new();
        while let Replay::Need(q, _) = self.replay(&answers) {
            let _round_span = clarify_obs::span!("disambiguation_round");
            let q = q.clone();
            answers.push(oracle.choose(&q)?);
        }
        self.finish(&answers)
    }
}
