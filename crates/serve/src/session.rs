//! Per-session state and turn handling.
//!
//! A *config session* holds one configuration, the [`ClarifySession`] that
//! places rules in it (whose warm packet space serves every ACL turn), and
//! an [`IncrementalLinter`] for `lint` turns. A *network session* holds a
//! [`NetworkSession`] over a whole simulated network. Both run the one
//! Clarify turn: `ask` synthesizes the intent once and plans its placement
//! ([`ClarifySession::plan`]); every `answer` replays that [`Turn`] in
//! memory — no LLM call, no symbolic recompute — so turn latency after the
//! first question is microseconds. The last answer commits: a config
//! session takes the new configuration, a network session applies it as a
//! what-if update that a broken invariant rolls back. Nothing changes
//! before then, so a half-answered turn can be resumed or abandoned safely.

use clarify_core::{
    Choice, ClarifyError, ClarifySession, Disambiguator, Invariant, NetworkSession,
    NetworkUpdateOutcome, Turn,
};
use clarify_lint::IncrementalLinter;
use clarify_llm::{BackendStack, DynBackend, LlmError, PipelineOutcome};
use clarify_netconfig::Config;
use clarify_netsim::Network;
use clarify_obs::json::Value;

use crate::proto::{ok, ProtoError};

/// Retry threshold for the synthesis loop, shared with the one-shot CLI.
pub const MAX_ATTEMPTS: usize = 3;

/// What a turn produced: a complete response frame.
pub type TurnResult = Result<Value, ProtoError>;

fn internal(e: impl std::fmt::Display) -> ProtoError {
    ProtoError::new("internal", e.to_string())
}

fn intent_error(e: impl std::fmt::Display) -> ProtoError {
    ProtoError::new("intent-error", e.to_string())
}

/// Maps a pipeline error onto the protocol: backend failures (replay
/// mismatch or exhaustion) get their own code so clients can tell "the
/// transcript ran out" from "the intent was malformed". Either way the
/// session's configuration is untouched.
fn pipeline_error(e: LlmError) -> ProtoError {
    match e {
        LlmError::Backend(e) => ProtoError::new("backend-error", e.to_string()),
        other => intent_error(other),
    }
}

/// The frame that closes a turn: its `result`, then `members`.
fn done<'a>(
    session: u64,
    result: &str,
    members: impl IntoIterator<Item = (&'a str, Value)>,
) -> Value {
    let head = [
        ("done", true.into()),
        ("session", session.into()),
        ("result", result.into()),
    ];
    ok(head.into_iter().chain(members))
}

fn punted(session: u64, reason: &str, llm_calls: usize) -> Value {
    done(
        session,
        "punted",
        [("reason", reason.into()), ("llm_calls", llm_calls.into())],
    )
}

/// One live session: what it is open over, and its turn in flight.
pub struct Session {
    kind: SessionKind,
    pending: Option<Pending>,
}

enum SessionKind {
    /// A single configuration, with its warm lint state (spaces and
    /// the previous run's diagnostics, retained across turns).
    Config {
        config: Config,
        clarify: ClarifySession<DynBackend>,
        linter: Option<Box<IncrementalLinter>>,
    },
    /// A multi-router what-if session.
    Network(NetworkSession<DynBackend>),
}

/// A turn in flight: its plan, the answers so far, and the LLM calls its
/// synthesis made.
struct Pending {
    turn: Turn,
    answers: Vec<Choice>,
    llm_calls: usize,
    /// The router a network session's turn updates.
    router: Option<String>,
}

impl Session {
    /// Opens a config session over `config`, building a fresh backend (with
    /// its own replay cursor, when the stack replays a transcript) from the
    /// server's configured stack.
    pub fn new_config(config: Config, stack: &BackendStack) -> Session {
        let clarify = ClarifySession::new(stack.build(), MAX_ATTEMPTS, Disambiguator::default());
        Session {
            kind: SessionKind::Config {
                config,
                clarify,
                linter: None,
            },
            pending: None,
        }
    }

    /// Opens a network session: converges the network and checks the
    /// invariants hold initially.
    pub fn new_network(
        network: Network,
        invariants: Vec<Invariant>,
        stack: &BackendStack,
    ) -> Result<Session, ClarifyError> {
        let session = NetworkSession::new(
            network,
            stack.build(),
            MAX_ATTEMPTS,
            Disambiguator::default(),
            invariants,
        )?;
        Ok(Session {
            kind: SessionKind::Network(session),
            pending: None,
        })
    }

    /// Handles an `ask` turn: synthesizes `intent` and plans its placement
    /// in `target` (on `router`, for a network session), then asks the
    /// first question — or closes the turn when there is none.
    pub fn ask(
        &mut self,
        session: u64,
        target: &str,
        router: Option<&str>,
        intent: &str,
    ) -> TurnResult {
        let network = matches!(self.kind, SessionKind::Network(_));
        if network != router.is_some() {
            return Err(ProtoError::bad(if network {
                "network sessions require 'router'"
            } else {
                "'router' is only valid on network sessions"
            }));
        }
        if self.pending.is_some() {
            return Err(ProtoError::new(
                "turn-in-flight",
                "a question is pending; send 'answer' (or 'close') first",
            ));
        }
        let (clarify, base) = match &mut self.kind {
            SessionKind::Config {
                config, clarify, ..
            } => (clarify, &*config),
            SessionKind::Network(net) => net
                .turn_on(router.unwrap_or_default())
                .map_err(intent_error)?,
        };
        // A config session tells a backend failure from a malformed intent,
        // and both from a planning failure; a network session reports each
        // as an intent error.
        let synthesis_error: fn(LlmError) -> ProtoError = if network {
            intent_error
        } else {
            pipeline_error
        };
        let outcome = clarify.synthesize(intent).map_err(synthesis_error)?;
        let llm_calls = outcome.llm_calls();
        let turn = match &outcome {
            PipelineOutcome::Punt { reason, .. } => return Ok(punted(session, reason, llm_calls)),
            // Only route-map stanzas update a network.
            _ if network => Turn::RouteMap(Box::new(
                clarify
                    .plan_stanza(base, target, &outcome)
                    .map_err(intent_error)?,
            )),
            _ => clarify.plan(base, target, &outcome).map_err(internal)?,
        };
        self.pending = Some(Pending {
            turn,
            answers: Vec::new(),
            llm_calls,
            router: router.map(str::to_string),
        });
        self.progress(session)
    }

    /// Handles an `answer` turn: records `choice` and moves the pending
    /// turn on.
    pub fn answer(&mut self, session: u64, choice: Choice) -> TurnResult {
        match &mut self.pending {
            None => Err(ProtoError::new(
                "no-turn",
                "no question is pending on this session",
            )),
            Some(pending) => {
                pending.answers.push(choice);
                self.progress(session)
            }
        }
    }

    /// Replays the pending turn against its answers: the next question, or
    /// — once the answers determine the position — the commit.
    fn progress(&mut self, session: u64) -> TurnResult {
        let pending = self
            .pending
            .take()
            .expect("progress requires a pending turn");
        if let Some((number, pivot, text)) = pending.turn.question(&pending.answers) {
            self.pending = Some(pending);
            let question = Value::object([
                ("number", number.into()),
                ("pivot", pivot.into()),
                ("text", text.into()),
            ]);
            return Ok(ok([
                ("done", false.into()),
                ("session", session.into()),
                ("question", question),
            ]));
        }
        match &mut self.kind {
            SessionKind::Config {
                config, clarify, ..
            } => {
                let placed = clarify
                    .finish(&pending.turn, &pending.answers)
                    .map_err(internal)?;
                let frame = done(
                    session,
                    "inserted",
                    [
                        ("position", placed.position.into()),
                        ("questions", placed.questions.into()),
                        ("llm_calls", pending.llm_calls.into()),
                        ("config", placed.config.to_string().into()),
                    ],
                );
                *config = placed.config;
                Ok(frame)
            }
            SessionKind::Network(net) => {
                let router = pending.router.as_deref().unwrap_or_default();
                let (clarify, _) = net.turn_on(router).map_err(intent_error)?;
                let placed = clarify
                    .finish(&pending.turn, &pending.answers)
                    .map_err(intent_error)?;
                let outcome = net
                    .commit(router, placed.config, placed.questions, pending.llm_calls)
                    .map_err(intent_error)?;
                Ok(match outcome {
                    NetworkUpdateOutcome::Committed {
                        questions,
                        llm_calls,
                    } => {
                        let config = net.network().router(router).map(|r| r.config.to_string());
                        done(
                            session,
                            "committed",
                            [
                                ("questions", questions.into()),
                                ("llm_calls", llm_calls.into()),
                                ("config", config.unwrap_or_default().into()),
                            ],
                        )
                    }
                    NetworkUpdateOutcome::RolledBack {
                        violated,
                        questions,
                        llm_calls,
                    } => done(
                        session,
                        "rolled-back",
                        [
                            (
                                "violated",
                                Value::array(violated.into_iter().map(Value::from)),
                            ),
                            ("questions", questions.into()),
                            ("llm_calls", llm_calls.into()),
                        ],
                    ),
                    NetworkUpdateOutcome::Punted { reason, llm_calls } => {
                        punted(session, &reason, llm_calls)
                    }
                })
            }
        }
    }

    /// Handles a `lint` turn on a config session's current configuration.
    pub fn lint(&mut self, session: u64) -> TurnResult {
        let SessionKind::Config { config, linter, .. } = &mut self.kind else {
            return Err(ProtoError::bad(
                "lint is only available on config sessions (use `clarify lint --topology` offline)",
            ));
        };
        let (report, dirty, reused) = match linter.take() {
            None => {
                let (fresh, report) =
                    IncrementalLinter::new(config.clone(), None).map_err(internal)?;
                let total = report.diagnostics.len();
                *linter = Some(Box::new(fresh));
                (report, total, 0)
            }
            Some(mut warm) => {
                let (report, stats) = warm.relint(config.clone(), None).map_err(internal)?;
                *linter = Some(warm);
                (report, stats.dirty_objects, stats.reused_objects)
            }
        };
        Ok(ok([
            ("session", session.into()),
            ("findings", report.findings().count().into()),
            ("diagnostics", report.diagnostics.len().into()),
            ("dirty", dirty.into()),
            ("reused", reused.into()),
        ]))
    }
}
