//! Network-level safe updates: what-if simulation with invariant checks
//! and rollback.
//!
//! The paper's motivation is that "a small error in intent can break
//! existing policies and cause major network downtime" (§3, citing the
//! Pakistan/YouTube incident). A [`NetworkSession`] closes that loop at
//! the network level: each Clarify update is applied to the target
//! router's configuration, the BGP simulation reconverges, and a set of
//! declarative **invariants** (the operator's global policies) is checked
//! before the update is committed — a violated invariant rolls the whole
//! update back and reports exactly which policies would have broken.

use clarify_llm::Backend;
use clarify_netconfig::Config;
use clarify_netsim::Network;
use clarify_nettypes::Prefix;

use crate::disambiguator::Disambiguator;
use crate::error::ClarifyError;
use crate::oracle::UserOracle;
use crate::session::{AddStanzaOutcome, ClarifySession};

/// A declarative global routing policy, checkable on a converged network.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Invariant {
    /// `router` must hold a route for `prefix`.
    Reachable {
        /// Router name.
        router: String,
        /// The prefix that must be present.
        prefix: Prefix,
    },
    /// `router` must hold **no** route for `prefix`.
    Unreachable {
        /// Router name.
        router: String,
        /// The prefix that must be absent.
        prefix: Prefix,
    },
    /// `router` must forward towards `prefix` via `neighbor`.
    PrefersVia {
        /// Router name.
        router: String,
        /// The prefix whose best path is constrained.
        prefix: Prefix,
        /// Required next-hop router.
        neighbor: String,
    },
    /// `router`'s route for `prefix` must be its own origination, not
    /// learned (the reused-prefix invisibility pattern of §5).
    LocallyOriginated {
        /// Router name.
        router: String,
        /// The prefix that must stay local.
        prefix: Prefix,
    },
}

impl Invariant {
    /// Whether the invariant holds on a converged network.
    pub fn holds(&self, net: &Network) -> bool {
        match self {
            Invariant::Reachable { router, prefix } => net.can_reach(router, prefix),
            Invariant::Unreachable { router, prefix } => !net.can_reach(router, prefix),
            Invariant::PrefersVia {
                router,
                prefix,
                neighbor,
            } => net.next_hop_router(router, prefix) == Some(neighbor.as_str()),
            Invariant::LocallyOriginated { router, prefix } => net
                .best_route(router, prefix)
                .is_some_and(|e| e.learned_from.is_none()),
        }
    }
}

impl std::fmt::Display for Invariant {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Invariant::Reachable { router, prefix } => {
                write!(f, "{router} can reach {prefix}")
            }
            Invariant::Unreachable { router, prefix } => {
                write!(f, "{router} cannot reach {prefix}")
            }
            Invariant::PrefersVia {
                router,
                prefix,
                neighbor,
            } => {
                write!(f, "{router} reaches {prefix} via {neighbor}")
            }
            Invariant::LocallyOriginated { router, prefix } => {
                write!(f, "{router}'s {prefix} stays locally originated")
            }
        }
    }
}

/// What became of one network-level update.
#[derive(Clone, Debug)]
pub enum NetworkUpdateOutcome {
    /// The update was applied, the network reconverged, and every
    /// invariant still holds.
    Committed {
        /// Disambiguation questions asked.
        questions: usize,
        /// LLM calls consumed.
        llm_calls: usize,
    },
    /// The update would have violated global policy; the previous
    /// configuration was kept.
    RolledBack {
        /// The invariants the update would have broken (rendered).
        violated: Vec<String>,
        /// Disambiguation questions asked before the what-if check.
        questions: usize,
        /// LLM calls consumed.
        llm_calls: usize,
    },
    /// Synthesis punted; nothing was changed.
    Punted {
        /// Why the last attempt failed verification.
        reason: String,
        /// LLM calls consumed.
        llm_calls: usize,
    },
}

/// A Clarify session bound to a whole simulated network.
pub struct NetworkSession<B> {
    session: ClarifySession<B>,
    network: Network,
    invariants: Vec<Invariant>,
}

impl<B: Backend> NetworkSession<B> {
    /// Creates a session over a network (converges it first) and a set of
    /// invariants, which must hold initially.
    pub fn new(
        network: Network,
        backend: B,
        max_attempts: usize,
        disambiguator: Disambiguator,
        invariants: Vec<Invariant>,
    ) -> Result<NetworkSession<B>, ClarifyError> {
        let network = network
            .converge()
            .map_err(|e| ClarifyError::Simulation(e.to_string()))?;
        for inv in &invariants {
            if !inv.holds(&network) {
                return Err(ClarifyError::Simulation(format!(
                    "invariant does not hold on the initial network: {inv}"
                )));
            }
        }
        Ok(NetworkSession {
            session: ClarifySession::new(backend, max_attempts, disambiguator),
            network,
            invariants,
        })
    }

    /// The current (converged, invariant-satisfying) network.
    pub fn network(&self) -> &Network {
        &self.network
    }

    /// The underlying session's counters.
    pub fn stats(&self) -> crate::session::SessionStats {
        self.session.stats()
    }

    /// The ask step of an update on `router`: the session that
    /// synthesizes, plans and finishes the update's turn, and the router's
    /// configuration the turn plans against.
    pub fn turn_on(
        &mut self,
        router: &str,
    ) -> Result<(&mut ClarifySession<B>, &Config), ClarifyError> {
        let base = self.network.router(router).ok_or_else(|| {
            ClarifyError::Simulation(format!("no router '{router}' in the network"))
        })?;
        Ok((&mut self.session, &base.config))
    }

    /// The what-if commit step of an update: applies `config`, the
    /// insertion a finished turn on `router` produced, to a copy of the
    /// network, reconverges, and commits only if every invariant still
    /// holds; otherwise the update is rolled back and the turn's stanza
    /// uncounted. `questions` and `llm_calls` are the turn's, for the
    /// report.
    pub fn commit(
        &mut self,
        router: &str,
        config: Config,
        questions: usize,
        llm_calls: usize,
    ) -> Result<NetworkUpdateOutcome, ClarifyError> {
        // What-if: apply on a clone and reconverge.
        let mut candidate = self.network.clone();
        let slot = candidate.router_config_mut(router).ok_or_else(|| {
            ClarifyError::Simulation(format!(
                "router '{router}' disappeared while preparing the update"
            ))
        })?;
        *slot = config;
        let candidate = candidate
            .converge()
            .map_err(|e| ClarifyError::Simulation(e.to_string()))?;
        let violated: Vec<String> = self
            .invariants
            .iter()
            .filter(|inv| !inv.holds(&candidate))
            .map(|inv| inv.to_string())
            .collect();
        if violated.is_empty() {
            self.network = candidate;
            Ok(NetworkUpdateOutcome::Committed {
                questions,
                llm_calls,
            })
        } else {
            self.session.record_rollback();
            Ok(NetworkUpdateOutcome::RolledBack {
                violated,
                questions,
                llm_calls,
            })
        }
    }

    /// Adds one stanza described by `prompt` to `map` on `router`,
    /// simulates the result, and commits only if every invariant holds.
    pub fn add_stanza_on(
        &mut self,
        router: &str,
        map: &str,
        prompt: &str,
        oracle: &mut dyn UserOracle,
    ) -> Result<NetworkUpdateOutcome, ClarifyError> {
        let (session, base) = self.turn_on(router)?;
        match session.add_stanza(base, map, prompt, oracle)? {
            AddStanzaOutcome::Punted { reason, llm_calls } => {
                Ok(NetworkUpdateOutcome::Punted { reason, llm_calls })
            }
            AddStanzaOutcome::Inserted {
                config,
                result,
                llm_calls,
            } => self.commit(router, config, result.questions, llm_calls),
        }
    }
}
