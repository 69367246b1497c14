//! Clarify: interactive disambiguation for LLM-based incremental network
//! configuration synthesis.
//!
//! This crate is the paper's primary contribution. Given an existing
//! ordered first-match policy — a route-map, an ACL or a prefix list — and
//! a freshly synthesized, *verified* rule, the **disambiguator** determines
//! where the rule belongs by asking the user a logarithmic number of
//! behavioural questions, each grounded in a concrete differential example
//! computed by `clarify-analysis`:
//!
//! ```text
//!            user intent (English)
//!                  │
//!        ┌─────────▼─────────┐    classify, retrieve, synthesize,
//!        │  clarify-llm      │    extract spec, verify, retry, punt
//!        └─────────┬─────────┘
//!                  │ verified snippet (one stanza)
//!        ┌─────────▼─────────┐    overlap set, binary search,
//!        │  Disambiguator    │    differential examples, user choice
//!        └─────────┬─────────┘
//!                  │ insertion point
//!        ┌─────────▼─────────┐    name freshening, renumbering
//!        │  clarify-netconfig │
//!        └───────────────────┘
//! ```
//!
//! The [`model`] module contains the paper's §4 formalization (the three
//! conditions on the intended semantics `M'`), checkable on finite input
//! universes. The [`Disambiguator`] implements the binary-search algorithm
//! once, plus the paper prototype's top-or-bottom-only mode for fidelity:
//! a [`RuleKind`] — [`RouteMapInsertion`], [`AclInsertion`] or
//! [`PrefixListInsertion`] — supplies the symbolic space, the new rule's
//! match set, the differential question and the insertion, and the engine
//! does the rest (overlap scan, the prune of candidates where the new rule
//! is shadowed, pivot scan, plan replay via [`InsertionPlan`], metrics).
//! Answers come from any [`UserOracle`] over the kind's question type.

#![warn(missing_docs)]

mod acl;
mod disambiguator;
mod error;
pub mod model;
mod network_session;
mod oracle;
mod prefix_list;
mod route_map;
mod session;

pub use acl::{
    plan_acl_in_space, verify_acl_against_intent, AclDisambiguationResult, AclInsertion,
    AclInsertionPlan, AclIntentOracle, AclPlanStep, AclQuestion,
};
pub use disambiguator::{
    DisambiguationResult, Disambiguator, InsertionPlan, PlacementStrategy, PlanStep, RuleKind,
};
pub use error::ClarifyError;
pub use network_session::{Invariant, NetworkSession, NetworkUpdateOutcome};
pub use oracle::{Choice, FnOracle, FnOracle as FnAclOracle, ScriptedOracle, UserOracle};
pub use prefix_list::{
    PrefixDisambiguationResult, PrefixIntentOracle, PrefixListInsertion, PrefixQuestion,
};
pub use route_map::{
    verify_against_intent, DisambiguationQuestion, IntentOracle, RouteMapInsertion,
};
pub use session::{AddStanzaOutcome, ClarifySession, Placement, SessionStats, Turn};

#[cfg(test)]
mod tests;
