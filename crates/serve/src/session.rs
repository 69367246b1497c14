//! Per-session state and turn handling.
//!
//! A *config session* holds one configuration plus warm symbolic state:
//! a [`RouteSpace`] keyed by atom-environment hash, a [`PacketSpace`]
//! (whose layout never depends on the config), and an
//! [`IncrementalLinter`] for `lint` turns. An `ask` turn runs the LLM
//! pipeline once and precomputes an insertion plan
//! ([`clarify_core::InsertionPlan`]); every subsequent `answer` turn is a
//! pure in-memory replay — no symbolic recompute — so turn latency after
//! the first question is microseconds.
//!
//! A *network session* wraps [`NetworkSession`]; turns replay the whole
//! interaction from stored answers with a capturing oracle. The replay is
//! deterministic (the backend and disambiguator are), and the underlying
//! session state only mutates when a replay runs to completion, so a
//! half-answered turn can be resumed or abandoned safely.

use clarify_analysis::{atom_env_hash, PacketSpace, RouteSpace};
use clarify_core::{
    AclInsertionPlan, Choice, ClarifyError, DisambiguationQuestion, Disambiguator, InsertionPlan,
    Invariant, NetworkSession, NetworkUpdateOutcome, PlanStep, RuleKind, UserOracle,
};
use clarify_lint::IncrementalLinter;
use clarify_llm::{BackendStack, DynBackend, LlmError, Pipeline, PipelineOutcome};
use clarify_netconfig::{Acl, Config, RouteMap};

use crate::proto::{string_array, Frame, ProtoError};

/// Retry threshold for the synthesis loop, matching the one-shot CLI.
const MAX_ATTEMPTS: usize = 3;

/// What a turn produced: a complete response frame (without newline).
pub type TurnResult = Result<String, ProtoError>;

fn internal(e: impl std::fmt::Display) -> ProtoError {
    ProtoError {
        code: "internal",
        message: e.to_string(),
    }
}

fn intent_error(e: impl std::fmt::Display) -> ProtoError {
    ProtoError {
        code: "intent-error",
        message: e.to_string(),
    }
}

/// Maps a pipeline error onto the protocol: backend-layer failures
/// (replay mismatch or exhaustion, retry exhaustion) get their own code
/// so clients can tell "the transcript ran out" from "the intent was
/// malformed". Either way the session's configuration is untouched.
fn pipeline_error(e: LlmError) -> ProtoError {
    match e {
        LlmError::Backend(e) => ProtoError {
            code: "backend-error",
            message: e.to_string(),
        },
        other => intent_error(other),
    }
}

fn question_frame(session: u64, number: usize, pivot: u64, text: &str) -> String {
    let q = Frame::ok(true)
        .u64("number", number as u64)
        .u64("pivot", pivot)
        .str("text", text)
        .finish();
    // Reuse Frame for the outer object; the inner question is raw JSON.
    Frame::ok(true)
        .bool("done", false)
        .u64("session", session)
        .raw("question", q.replacen("\"ok\":true,", "", 1).as_str())
        .finish()
}

/// One live session: either a single-config or a network session.
pub enum SessionKind {
    /// Single configuration with warm symbolic state.
    Config(Box<ConfigSession>),
    /// Multi-router what-if session.
    Network(Box<NetSession>),
}

impl SessionKind {
    /// Dispatches an `ask` turn.
    pub fn ask(
        &mut self,
        session: u64,
        target: &str,
        router: Option<&str>,
        intent: &str,
    ) -> TurnResult {
        match self {
            SessionKind::Config(s) => {
                if router.is_some() {
                    return Err(ProtoError::bad(
                        "'router' is only valid on network sessions",
                    ));
                }
                s.ask(session, target, intent)
            }
            SessionKind::Network(s) => {
                let Some(router) = router else {
                    return Err(ProtoError::bad("network sessions require 'router'"));
                };
                s.ask(session, router, target, intent)
            }
        }
    }

    /// Dispatches an `answer` turn.
    pub fn answer(&mut self, session: u64, choice: Choice) -> TurnResult {
        match self {
            SessionKind::Config(s) => s.answer(session, choice),
            SessionKind::Network(s) => s.answer(session, choice),
        }
    }

    /// Dispatches a `lint` turn.
    pub fn lint(&mut self, session: u64) -> TurnResult {
        match self {
            SessionKind::Config(s) => s.lint(session),
            SessionKind::Network(_) => Err(ProtoError::bad(
                "lint is only available on config sessions (use `clarify lint --topology` offline)",
            )),
        }
    }
}

/// A pending (question asked, not yet fully answered) insertion turn.
struct Pending {
    plan: PendingPlan,
    answers: Vec<Choice>,
    llm_calls: usize,
}

/// The pending turn's plan, per rule kind.
enum PendingPlan {
    RouteMap(Box<InsertionPlan>),
    Acl(Box<AclInsertionPlan>),
}

/// Replays `plan` against the pending turn's answers: the next question's
/// frame (its pivot named by `pivot`), or the done frame together with the
/// configuration to commit.
fn progress<K: RuleKind>(
    plan: &InsertionPlan<K>,
    pending: &Pending,
    session: u64,
    pivot: fn(&K::Question) -> u64,
) -> Result<(String, Option<Config>), ProtoError> {
    let answers = &pending.answers;
    Ok(match plan.step(answers) {
        PlanStep::Ask { number, question } => {
            let frame = question_frame(session, number, pivot(question), &question.to_string());
            (frame, None)
        }
        PlanStep::Done { .. } => {
            let result = plan.finish(answers).map_err(internal)?;
            let frame = Frame::ok(true)
                .bool("done", true)
                .u64("session", session)
                .str("result", "inserted")
                .u64("position", result.position as u64)
                .u64("questions", result.questions as u64)
                .u64("llm_calls", pending.llm_calls as u64)
                .str("config", &result.config.to_string())
                .finish();
            (frame, Some(result.config))
        }
    })
}

/// A single-config session.
pub struct ConfigSession {
    config: Config,
    pipeline: Pipeline<DynBackend>,
    disambiguator: Disambiguator,
    /// Warm route space, keyed by the atom-environment hash it was built
    /// over. Reused across turns whenever the hash matches (ROBDD
    /// canonicity makes reuse byte-invisible); rebuilt when an edit
    /// changes the pattern set.
    route_space: Option<(u64, RouteSpace)>,
    /// Warm packet space: its variable layout is config-independent, so
    /// it lives for the whole session.
    packet_space: PacketSpace,
    /// Warm lint session (retains spaces + fire-set caches across turns).
    linter: Option<IncrementalLinter>,
    pending: Option<Pending>,
}

impl ConfigSession {
    /// Opens a session over `config`, building a fresh backend (with its
    /// own replay cursor, when the stack replays a transcript) from the
    /// server's configured stack.
    pub fn new(config: Config, stack: &BackendStack) -> ConfigSession {
        ConfigSession {
            config,
            pipeline: Pipeline::new(stack.build(), MAX_ATTEMPTS),
            disambiguator: Disambiguator::default(),
            route_space: None,
            packet_space: PacketSpace::new(),
            linter: None,
            pending: None,
        }
    }

    /// The session's current configuration.
    pub fn config(&self) -> &Config {
        &self.config
    }

    fn ask(&mut self, session: u64, target: &str, intent: &str) -> TurnResult {
        if self.pending.is_some() {
            return Err(ProtoError {
                code: "turn-in-flight",
                message: "a question is pending; send 'answer' (or 'close') first".to_string(),
            });
        }
        let outcome = self.pipeline.synthesize(intent).map_err(pipeline_error)?;
        let (plan, llm_calls) = match outcome {
            PipelineOutcome::RouteMap {
                snippet,
                map_name,
                llm_calls,
                ..
            } => {
                let mut working = self.config.clone();
                if working.route_map(target).is_none() {
                    working
                        .route_maps
                        .insert(target.to_string(), RouteMap::empty(target));
                }
                // Warm-space reuse: valid whenever the atom environment
                // (the regex pattern set) of [working, snippet] matches
                // the stored space's — equal hash ⇒ identical variable
                // layout ⇒ identical canonical BDDs.
                let hash = atom_env_hash(&[&working, &snippet]);
                let mut space = match self.route_space.take() {
                    Some((h, space)) if h == hash => space,
                    _ => RouteSpace::new(&[&working, &snippet]).map_err(internal)?,
                };
                let plan = self
                    .disambiguator
                    .plan_in_space(&mut space, &working, target, &snippet, &map_name)
                    .map_err(internal)?;
                // Turn boundary: the plan is fully decoded (no Refs), so
                // drop the memo tables and let the kernel collect this
                // turn's garbage — warm sessions keep a flat arena.
                space.manager().clear_op_caches();
                self.route_space = Some((hash, space));
                (PendingPlan::RouteMap(Box::new(plan)), llm_calls)
            }
            PipelineOutcome::Acl {
                entry, llm_calls, ..
            } => {
                let mut working = self.config.clone();
                if working.acl(target).is_none() {
                    working.acls.insert(
                        target.to_string(),
                        Acl {
                            name: target.to_string(),
                            entries: Vec::new(),
                        },
                    );
                }
                let plan = clarify_core::plan_acl_in_space(
                    &mut self.packet_space,
                    &working,
                    target,
                    &entry,
                    self.disambiguator.strategy,
                )
                .map_err(internal)?;
                // Same turn-boundary collection as the route-map path.
                self.packet_space.manager().clear_op_caches();
                (PendingPlan::Acl(Box::new(plan)), llm_calls)
            }
            PipelineOutcome::Punt { llm_calls, reason } => {
                return Ok(Frame::ok(true)
                    .bool("done", true)
                    .u64("session", session)
                    .str("result", "punted")
                    .str("reason", &reason)
                    .u64("llm_calls", llm_calls as u64)
                    .finish())
            }
        };
        self.pending = Some(Pending {
            plan,
            answers: Vec::new(),
            llm_calls,
        });
        self.progress(session)
    }

    fn answer(&mut self, session: u64, choice: Choice) -> TurnResult {
        match &mut self.pending {
            None => Err(ProtoError {
                code: "no-turn",
                message: "no question is pending on this session".to_string(),
            }),
            Some(pending) => {
                pending.answers.push(choice);
                self.progress(session)
            }
        }
    }

    /// Replays the pending plan against its answers: either the next
    /// question, or completion (which commits the new configuration).
    fn progress(&mut self, session: u64) -> TurnResult {
        let pending = self
            .pending
            .take()
            .expect("progress requires a pending turn");
        // Question frames name a route-map pivot by its stanza's sequence
        // number, an ACL pivot by its entry index.
        let (frame, done) = match &pending.plan {
            PendingPlan::RouteMap(plan) => {
                progress(plan, &pending, session, |q| u64::from(q.pivot_seq))?
            }
            PendingPlan::Acl(plan) => progress(plan, &pending, session, |q| q.pivot_index as u64)?,
        };
        match done {
            Some(config) => {
                self.config = config;
                self.route_space = None; // config changed: atom env may have too
            }
            None => self.pending = Some(pending),
        }
        Ok(frame)
    }

    fn lint(&mut self, session: u64) -> TurnResult {
        let (report, dirty, reused) = match self.linter.take() {
            None => {
                let (linter, report) =
                    IncrementalLinter::new(self.config.clone(), None).map_err(internal)?;
                let total = report.diagnostics.len();
                self.linter = Some(linter);
                (report, total, 0)
            }
            Some(mut linter) => {
                let (report, stats) = linter.relint(self.config.clone(), None).map_err(internal)?;
                self.linter = Some(linter);
                (report, stats.dirty_objects, stats.reused_objects)
            }
        };
        Ok(Frame::ok(true)
            .u64("session", session)
            .u64("findings", report.findings().count() as u64)
            .u64("diagnostics", report.diagnostics.len() as u64)
            .u64("dirty", dirty as u64)
            .u64("reused", reused as u64)
            .finish())
    }
}

/// An oracle that replays stored answers, then captures the next question
/// instead of blocking. The resulting [`ClarifyError::OracleExhausted`]
/// propagates out of the whole `add_stanza_on` call *before* any state is
/// committed, which is what makes per-answer replay safe.
struct ReplayOracle {
    answers: std::collections::VecDeque<Choice>,
    consumed: usize,
    captured: Option<DisambiguationQuestion>,
}

impl UserOracle for ReplayOracle {
    fn choose(&mut self, question: &DisambiguationQuestion) -> Result<Choice, ClarifyError> {
        match self.answers.pop_front() {
            Some(c) => {
                self.consumed += 1;
                Ok(c)
            }
            None => {
                self.captured = Some(question.clone());
                Err(ClarifyError::OracleExhausted)
            }
        }
    }
}

/// A network (multi-router what-if) session.
pub struct NetSession {
    session: NetworkSession<DynBackend>,
    pending: Option<NetPending>,
}

struct NetPending {
    router: String,
    map: String,
    intent: String,
    answers: Vec<Choice>,
}

impl NetSession {
    /// Opens a network session: converges the network and checks the
    /// invariants hold initially.
    pub fn new(
        network: clarify_netsim::Network,
        invariants: Vec<Invariant>,
        stack: &BackendStack,
    ) -> Result<NetSession, ClarifyError> {
        Ok(NetSession {
            session: NetworkSession::new(
                network,
                stack.build(),
                MAX_ATTEMPTS,
                Disambiguator::default(),
                invariants,
            )?,
            pending: None,
        })
    }

    fn ask(&mut self, session: u64, router: &str, map: &str, intent: &str) -> TurnResult {
        if self.pending.is_some() {
            return Err(ProtoError {
                code: "turn-in-flight",
                message: "a question is pending; send 'answer' (or 'close') first".to_string(),
            });
        }
        self.pending = Some(NetPending {
            router: router.to_string(),
            map: map.to_string(),
            intent: intent.to_string(),
            answers: Vec::new(),
        });
        self.progress(session)
    }

    fn answer(&mut self, session: u64, choice: Choice) -> TurnResult {
        match &mut self.pending {
            None => Err(ProtoError {
                code: "no-turn",
                message: "no question is pending on this session".to_string(),
            }),
            Some(p) => {
                p.answers.push(choice);
                self.progress(session)
            }
        }
    }

    /// Replays the whole interaction from the stored answers. Deterministic
    /// backend + deterministic disambiguator ⇒ the replay walks the same
    /// question sequence every time; the underlying session only commits
    /// when the replay runs past the last question.
    fn progress(&mut self, session: u64) -> TurnResult {
        let p = self
            .pending
            .take()
            .expect("progress requires a pending turn");
        let mut oracle = ReplayOracle {
            answers: p.answers.iter().copied().collect(),
            consumed: 0,
            captured: None,
        };
        match self
            .session
            .add_stanza_on(&p.router, &p.map, &p.intent, &mut oracle)
        {
            Err(ClarifyError::OracleExhausted) => {
                let q = oracle
                    .captured
                    .take()
                    .ok_or_else(|| internal("oracle exhausted without a captured question"))?;
                let number = oracle.consumed + 1;
                let frame = question_frame(session, number, q.pivot_seq as u64, &q.to_string());
                self.pending = Some(p);
                Ok(frame)
            }
            Err(e) => Err(intent_error(e)),
            Ok(NetworkUpdateOutcome::Committed {
                questions,
                llm_calls,
            }) => {
                let config = self
                    .session
                    .network()
                    .router(&p.router)
                    .map(|r| r.config.to_string())
                    .unwrap_or_default();
                Ok(Frame::ok(true)
                    .bool("done", true)
                    .u64("session", session)
                    .str("result", "committed")
                    .u64("questions", questions as u64)
                    .u64("llm_calls", llm_calls as u64)
                    .str("config", &config)
                    .finish())
            }
            Ok(NetworkUpdateOutcome::RolledBack {
                violated,
                questions,
                llm_calls,
            }) => Ok(Frame::ok(true)
                .bool("done", true)
                .u64("session", session)
                .str("result", "rolled-back")
                .raw("violated", &string_array(&violated))
                .u64("questions", questions as u64)
                .u64("llm_calls", llm_calls as u64)
                .finish()),
            Ok(NetworkUpdateOutcome::Punted { reason, llm_calls }) => Ok(Frame::ok(true)
                .bool("done", true)
                .u64("session", session)
                .str("result", "punted")
                .str("reason", &reason)
                .u64("llm_calls", llm_calls as u64)
                .finish()),
        }
    }
}
