//! The end-to-end Clarify session: English intents in, verified and
//! correctly placed configuration out, with the paper's Figure 4 counters.

use clarify_llm::{Backend, Pipeline, PipelineOutcome};
use clarify_netconfig::{Acl, Config, RouteMap};

use crate::acl::{AclInsertion, AclQuestion};
use crate::disambiguator::{DisambiguationResult, Disambiguator, RuleKind};
use crate::error::ClarifyError;
use crate::oracle::UserOracle;
use crate::route_map::RouteMapInsertion;

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

/// Result of one `add_stanza` or `add_acl_entry` interaction.
#[derive(Clone, Debug)]
pub enum AddOutcome<K: RuleKind = RouteMapInsertion> {
    /// The rule was synthesized, verified, and inserted.
    Inserted {
        /// The updated configuration.
        config: Config,
        /// Disambiguator details (position, questions, transcript).
        result: Box<DisambiguationResult<K>>,
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

/// The outcome of [`ClarifySession::add_stanza`].
pub type AddStanzaOutcome = AddOutcome;
/// The outcome of [`ClarifySession::add_acl_entry`].
pub type AddAclOutcome = AddOutcome<AclInsertion>;

/// A long-lived interactive session: one pipeline, one disambiguator, and
/// running statistics.
pub struct ClarifySession<B> {
    pipeline: Pipeline<B>,
    disambiguator: Disambiguator,
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

    /// Adds one stanza described by `prompt` to `map` in `base`.
    ///
    /// If `map` does not exist yet it is created empty first (building a
    /// policy from scratch, as the §5 evaluation does). The returned
    /// configuration is a new value; `base` is untouched.
    pub fn add_stanza(
        &mut self,
        base: &Config,
        map: &str,
        prompt: &str,
        oracle: &mut dyn UserOracle,
    ) -> Result<AddStanzaOutcome, ClarifyError> {
        self.add(prompt, oracle, "a route-map", |outcome| {
            let PipelineOutcome::RouteMap {
                snippet, map_name, ..
            } = outcome
            else {
                return None;
            };
            let mut working = base.clone();
            working
                .route_maps
                .entry(map.to_string())
                .or_insert_with(|| RouteMap::empty(map));
            Some(RouteMapInsertion::new(&working, map, snippet, map_name))
        })
    }

    /// Adds one ACL entry described by `prompt` to `acl_name` in `base`,
    /// creating the ACL when it does not exist yet.
    pub fn add_acl_entry(
        &mut self,
        base: &Config,
        acl_name: &str,
        prompt: &str,
        oracle: &mut dyn UserOracle<AclQuestion>,
    ) -> Result<AddAclOutcome, ClarifyError> {
        self.add(prompt, oracle, "an ACL", |outcome| {
            let PipelineOutcome::Acl { entry, .. } = outcome else {
                return None;
            };
            let mut working = base.clone();
            working
                .acls
                .entry(acl_name.to_string())
                .or_insert_with(|| Acl {
                    name: acl_name.to_string(),
                    entries: Vec::new(),
                });
            Some(AclInsertion::new(&working, acl_name, entry))
        })
    }

    /// The one insertion body: synthesizes `prompt`, accounts its LLM
    /// calls, and either punts or disambiguates the insertion `insertion`
    /// reads from the outcome — `None` when the intent is of another kind
    /// than the `expected` one.
    fn add<K: RuleKind>(
        &mut self,
        prompt: &str,
        oracle: &mut dyn UserOracle<K::Question>,
        expected: &str,
        insertion: impl FnOnce(&PipelineOutcome) -> Option<Result<K, ClarifyError>>,
    ) -> Result<AddOutcome<K>, ClarifyError> {
        let outcome = self.pipeline.synthesize(prompt)?;
        let llm_calls = outcome.llm_calls();
        self.stats.llm_calls += llm_calls;
        record_session_metric("llm_calls", llm_calls);
        let kind = match (insertion(&outcome), outcome) {
            (Some(kind), _) => kind?,
            (None, PipelineOutcome::Punt { reason, .. }) => {
                self.stats.punts += 1;
                record_session_metric("punts", 1);
                return Ok(AddOutcome::Punted { reason, llm_calls });
            }
            (None, other) => {
                let got = match other {
                    PipelineOutcome::Acl { .. } => "an ACL",
                    _ => "a route-map",
                };
                return Err(ClarifyError::Llm(clarify_llm::LlmError::UnsupportedQuery(
                    format!("expected {expected} intent, got {got} intent"),
                )));
            }
        };
        let result = self.disambiguator.disambiguate(kind, oracle)?;
        self.stats.disambiguations += result.questions;
        self.stats.stanzas_added += 1;
        record_session_metric("disambiguations", result.questions);
        record_session_metric("stanzas_added", 1);
        Ok(AddOutcome::Inserted {
            config: result.config.clone(),
            result: Box::new(result),
            llm_calls,
        })
    }
}
