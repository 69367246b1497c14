//! # Clarify
//!
//! Interactive disambiguation for LLM-based network configuration
//! synthesis — a from-scratch reproduction of the HotNets '25 paper
//! *“Tackling Ambiguity in User Intent for LLM-based Network Configuration
//! Synthesis”* (Mondal, Bjørner, Millstein, Tang, Varghese).
//!
//! This facade crate re-exports the public API of every subsystem:
//!
//! * [`bdd`] — hash-consed ROBDDs (the symbolic substrate);
//! * [`automata`] — Cisco-style regexes, DFAs, atomic predicates;
//! * [`nettypes`] — prefixes, communities, AS paths, routes, packets;
//! * [`netconfig`] — the IOS-subset configuration model, parser, printer,
//!   evaluator, and insertion engine;
//! * [`analysis`] — the Batfish-substitute analyses: `searchFilters`,
//!   `searchRoutePolicies`, `compareRoutePolicies`, and the §3 overlap
//!   census;
//! * [`lint`] — the symbolic config linter (shadowed/redundant/conflicting
//!   rules) and the disambiguator's candidate-pruning pass;
//! * [`llm`] — the simulated LLM pipeline with fault injection;
//! * [`core`] — the disambiguator, user oracles, the §4 formal model, and
//!   the end-to-end session;
//! * [`netsim`] — a deterministic BGP propagation simulator for global
//!   policy checks;
//! * [`workload`] — seeded synthetic populations calibrated to the paper's
//!   §3 measurements;
//! * [`par`] — the zero-dependency scoped worker pool behind the parallel
//!   lint passes and census sweeps;
//! * [`obs`] — the zero-dependency metrics registry (counters, gauges,
//!   log-scale histograms, spans) behind the CLIs' `--trace-json` and
//!   `--stats` flags.
//!
//! ## Quickstart
//!
//! ```
//! use clarify::core::{ClarifySession, Disambiguator, IntentOracle};
//! use clarify::llm::SemanticBackend;
//! use clarify::netconfig::Config;
//!
//! // An existing policy...
//! let base = Config::parse(
//!     "route-map EDGE deny 10\n match local-preference 50\n",
//! )
//! .unwrap();
//! // ...the user's intended final policy (the oracle plays the user)...
//! let intended = Config::parse(
//!     "ip prefix-list P seq 5 permit 100.0.0.0/16 le 23\n\
//!      route-map EDGE permit 10\n match ip address prefix-list P\n set metric 55\n\
//!      route-map EDGE deny 20\n match local-preference 50\n",
//! )
//! .unwrap();
//! let mut oracle = IntentOracle::new(&intended, "EDGE");
//!
//! // One English sentence in, a verified and correctly placed stanza out.
//! let mut session = ClarifySession::new(SemanticBackend::new(), 3, Disambiguator::default());
//! let outcome = session
//!     .add_stanza(
//!         &base,
//!         "EDGE",
//!         "Write a route-map stanza that permits routes containing the prefix \
//!          100.0.0.0/16 with mask length less than or equal to 23. \
//!          Their MED value should be set to 55.",
//!         &mut oracle,
//!     )
//!     .unwrap();
//! assert!(matches!(outcome, clarify::core::AddStanzaOutcome::Inserted { .. }));
//! ```

#![warn(missing_docs)]

pub use clarify_analysis as analysis;
pub use clarify_automata as automata;
pub use clarify_bdd as bdd;
pub use clarify_core as core;
pub use clarify_lint as lint;
pub use clarify_llm as llm;
pub use clarify_netconfig as netconfig;
pub use clarify_netsim as netsim;
pub use clarify_nettypes as nettypes;
pub use clarify_obs as obs;
pub use clarify_par as par;
pub use clarify_serve as serve;
pub use clarify_workload as workload;
