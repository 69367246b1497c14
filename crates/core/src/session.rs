//! The end-to-end Clarify session: English intents in, verified and
//! correctly placed configuration out, with the paper's Figure 4 counters.
//!
//! One *turn* is the paper's loop (§2, Figure 1) once, and every front end
//! — [`ClarifySession::add_stanza`], network updates, the `clarify` CLI and
//! the `clarify serve` daemon — runs it through the same three steps:
//! [`synthesize`](ClarifySession::synthesize) runs the LLM pipeline once,
//! [`plan`](ClarifySession::plan) precomputes the placement search as a
//! [`Turn`], and the user's answers replay that turn in memory until
//! [`finish`](ClarifySession::finish) (or [`drive`](ClarifySession::drive),
//! the synchronous loop) materialises the insertion.

use clarify_analysis::{PacketSpace, RouteAtoms, RouteSpace};
use clarify_llm::{Backend, LlmError, Pipeline, PipelineOutcome};
use clarify_netconfig::{Acl, Config, RouteMap};

use crate::acl::{AclInsertion, AclInsertionPlan};
use crate::disambiguator::{
    DisambiguationResult, Disambiguator, InsertionPlan, PlanStep, RuleKind,
};
use crate::error::ClarifyError;
use crate::oracle::{Choice, FnOracle, UserOracle};

/// Counters matching the paper's Figure 4 columns.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SessionStats {
    /// Network-level updates that were rolled back by an invariant check
    /// (their stanzas are *not* counted in `stanzas_added`).
    pub rollbacks: usize,
    /// Total LLM calls across all intents.
    pub llm_calls: usize,
    /// Total disambiguation questions the user answered.
    pub disambiguations: usize,
    /// Stanzas successfully added.
    pub stanzas_added: usize,
    /// Intents that ended in a punt.
    pub punts: usize,
}

/// The outcome of [`ClarifySession::add_stanza`].
#[derive(Clone, Debug)]
pub enum AddStanzaOutcome {
    /// The stanza was synthesized, verified, and inserted.
    Inserted {
        /// The updated configuration.
        config: Config,
        /// Disambiguator details (position, questions, transcript).
        result: Box<DisambiguationResult>,
        /// LLM calls this intent consumed.
        llm_calls: usize,
    },
    /// The synthesis loop exhausted its retries (step 5 of Figure 1).
    Punted {
        /// Why the last attempt failed verification.
        reason: String,
        /// LLM calls consumed before punting.
        llm_calls: usize,
    },
}

/// One planned turn: the precomputed placement search for a synthesized
/// rule, replayed against the user's answers.
#[derive(Clone, Debug)]
pub enum Turn {
    /// A route-map stanza's placement.
    RouteMap(Box<InsertionPlan>),
    /// An ACL entry's placement.
    Acl(Box<AclInsertionPlan>),
}

impl Turn {
    /// The next question `answers` leave open — its 1-based number, its
    /// [pivot](RuleKind::pivot) and its rendering — or `None` once they
    /// determine the position.
    pub fn question(&self, answers: &[Choice]) -> Option<(usize, u64, String)> {
        fn next<K: RuleKind>(
            plan: &InsertionPlan<K>,
            answers: &[Choice],
        ) -> Option<(usize, u64, String)> {
            match plan.step(answers) {
                PlanStep::Ask { number, question } => {
                    Some((number, K::pivot(question), question.to_string()))
                }
                PlanStep::Done { .. } => None,
            }
        }
        match self {
            Turn::RouteMap(plan) => next(plan, answers),
            Turn::Acl(plan) => next(plan, answers),
        }
    }
}

/// What a finished turn inserted, whatever the rule kind.
#[derive(Clone, Debug)]
pub struct Placement {
    /// The configuration with the new rule inserted.
    pub config: Config,
    /// Zero-based position of the new rule.
    pub position: usize,
    /// Questions the user answered.
    pub questions: usize,
}

impl<K: RuleKind> From<DisambiguationResult<K>> for Placement {
    fn from(result: DisambiguationResult<K>) -> Placement {
        Placement {
            config: result.config,
            position: result.position,
            questions: result.questions,
        }
    }
}

/// A long-lived interactive session: one pipeline, one disambiguator, a
/// warm packet space for ACL turns, the atoms of its last route-map turn,
/// and running statistics.
pub struct ClarifySession<B> {
    pipeline: Pipeline<B>,
    disambiguator: Disambiguator,
    /// The packet space's layout is config-independent, so one space
    /// serves every ACL turn of the session.
    packet_space: PacketSpace,
    /// The atoms of the last route-map turn's space, which the next turn's
    /// space is built from. Only the atoms are kept: a turn's manager goes
    /// with its turn.
    route_atoms: Option<RouteAtoms>,
    stats: SessionStats,
}

/// Mirrors one `SessionStats` bump into the global registry, so traces
/// carry the paper's Figure 4 counters without threading a registry
/// through every call site. Registering all five names up front (see
/// [`ClarifySession::new`]) keeps zero-valued counters visible in traces.
fn record_session_metric(field: &str, delta: usize) {
    clarify_obs::global()
        .counter(&format!("session.{field}"))
        .add(delta as u64);
}

impl<B: Backend> ClarifySession<B> {
    /// Creates a session over the given backend. `max_attempts` bounds the
    /// synthesis retry loop.
    pub fn new(backend: B, max_attempts: usize, disambiguator: Disambiguator) -> Self {
        for field in [
            "rollbacks",
            "llm_calls",
            "disambiguations",
            "stanzas_added",
            "punts",
        ] {
            record_session_metric(field, 0);
        }
        ClarifySession {
            pipeline: Pipeline::new(backend, max_attempts),
            disambiguator,
            packet_space: PacketSpace::new(),
            route_atoms: None,
            stats: SessionStats::default(),
        }
    }

    /// The running counters.
    pub fn stats(&self) -> SessionStats {
        self.stats
    }

    /// Records a network-level rollback: the stanza counted by the inner
    /// insertion never reached the network.
    pub(crate) fn record_rollback(&mut self) {
        self.stats.stanzas_added = self.stats.stanzas_added.saturating_sub(1);
        self.stats.rollbacks += 1;
        // The obs counters stay monotonic: only the rollback itself is
        // recorded, not the stanza decrement.
        record_session_metric("rollbacks", 1);
    }

    fn record_insertion(&mut self, questions: usize) {
        self.stats.disambiguations += questions;
        self.stats.stanzas_added += 1;
        record_session_metric("disambiguations", questions);
        record_session_metric("stanzas_added", 1);
    }

    /// The first step of a turn: runs the LLM pipeline once on `prompt`,
    /// counting its calls and any punt.
    pub fn synthesize(&mut self, prompt: &str) -> Result<PipelineOutcome, LlmError> {
        let outcome = self.pipeline.synthesize(prompt)?;
        self.stats.llm_calls += outcome.llm_calls();
        record_session_metric("llm_calls", outcome.llm_calls());
        if !outcome.is_success() {
            self.stats.punts += 1;
            record_session_metric("punts", 1);
        }
        Ok(outcome)
    }

    /// The second step: plans where `outcome`'s rule goes in `target` of
    /// `base`, creating the policy when it does not exist yet (building a
    /// policy from scratch, as the §5 evaluation does). A punt has nothing
    /// to place and is an error.
    pub fn plan(
        &mut self,
        base: &Config,
        target: &str,
        outcome: &PipelineOutcome,
    ) -> Result<Turn, ClarifyError> {
        let PipelineOutcome::Acl { entry, .. } = outcome else {
            return Ok(Turn::RouteMap(Box::new(
                self.plan_stanza(base, target, outcome)?,
            )));
        };
        let mut working = base.clone();
        working
            .acls
            .entry(target.to_string())
            .or_insert_with(|| Acl {
                name: target.to_string(),
                entries: Vec::new(),
            });
        let kind = AclInsertion::new(&working, target, entry)?;
        let plan = self.disambiguator.plan(&mut self.packet_space, kind)?;
        // Turn boundary: the plan is fully decoded (no Refs), so drop the
        // memo tables and let the kernel collect this turn's garbage — the
        // warm space keeps a flat arena.
        self.packet_space.manager().clear_op_caches();
        Ok(Turn::Acl(Box::new(plan)))
    }

    /// [`plan`](Self::plan) for front ends that place route-map stanzas
    /// only: any other outcome is an error. Each route-map turn builds its
    /// own space over `base` and the snippet, since the atom environment
    /// follows the configuration, but builds it from the previous turn's
    /// atoms: patterns the session has classified before are not
    /// classified again, unless the configuration dropped one of them.
    pub fn plan_stanza(
        &mut self,
        base: &Config,
        map: &str,
        outcome: &PipelineOutcome,
    ) -> Result<InsertionPlan, ClarifyError> {
        let PipelineOutcome::RouteMap {
            snippet, map_name, ..
        } = outcome
        else {
            let got = match outcome {
                PipelineOutcome::Acl { .. } => "an ACL intent",
                _ => "a punt",
            };
            return Err(LlmError::UnsupportedQuery(format!(
                "expected a route-map intent, got {got}"
            ))
            .into());
        };
        let mut working = base.clone();
        working
            .route_maps
            .entry(map.to_string())
            .or_insert_with(|| RouteMap::empty(map));
        let mut space = RouteSpace::with_atoms(&[&working, snippet], self.route_atoms.take())?;
        let plan = self
            .disambiguator
            .plan_in_space(&mut space, &working, map, snippet, map_name);
        // The same turn-boundary collection as an ACL turn's; then the
        // manager goes and the atoms stay.
        space.manager().clear_op_caches();
        self.route_atoms = Some(space.into_atoms());
        plan
    }

    /// The last step of a turn answered one request at a time: the
    /// insertion `answers` determine, counted once.
    pub fn finish(&mut self, turn: &Turn, answers: &[Choice]) -> Result<Placement, ClarifyError> {
        let placed: Placement = match turn {
            Turn::RouteMap(plan) => plan.finish(answers)?.into(),
            Turn::Acl(plan) => plan.finish(answers)?.into(),
        };
        self.record_insertion(placed.questions);
        Ok(placed)
    }

    /// Drives `turn` to completion in one call, putting each question —
    /// its [pivot](RuleKind::pivot) and its rendering — to `ask`, and
    /// counts the insertion.
    pub fn drive(
        &mut self,
        turn: Turn,
        ask: &mut dyn FnMut(u64, &str) -> Choice,
    ) -> Result<Placement, ClarifyError> {
        fn drive<K: RuleKind>(
            plan: InsertionPlan<K>,
            ask: &mut dyn FnMut(u64, &str) -> Choice,
        ) -> Result<Placement, ClarifyError> {
            let mut oracle = FnOracle(|q: &K::Question| ask(K::pivot(q), &q.to_string()));
            Ok(plan.drive(&mut oracle)?.into())
        }
        let placed = match turn {
            Turn::RouteMap(plan) => drive(*plan, ask)?,
            Turn::Acl(plan) => drive(*plan, ask)?,
        };
        self.record_insertion(placed.questions);
        Ok(placed)
    }

    /// Adds one stanza described by `prompt` to `map` in `base`, one whole
    /// turn against `oracle`. If `map` does not exist yet it is created
    /// empty first. The returned configuration is a new value; `base` is
    /// untouched.
    pub fn add_stanza(
        &mut self,
        base: &Config,
        map: &str,
        prompt: &str,
        oracle: &mut dyn UserOracle,
    ) -> Result<AddStanzaOutcome, ClarifyError> {
        let outcome = self.synthesize(prompt)?;
        let llm_calls = outcome.llm_calls();
        if let PipelineOutcome::Punt { reason, .. } = outcome {
            return Ok(AddStanzaOutcome::Punted { reason, llm_calls });
        }
        let result = self.plan_stanza(base, map, &outcome)?.drive(oracle)?;
        self.record_insertion(result.questions);
        Ok(AddStanzaOutcome::Inserted {
            config: result.config.clone(),
            result: Box::new(result),
            llm_calls,
        })
    }
}
