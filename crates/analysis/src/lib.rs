//! Symbolic (BDD-based) analyses of route-maps, ACLs and prefix lists.
//!
//! This crate stands in for the Batfish analyses the paper relies on. Every
//! first-match policy kind supplies its encoding through
//! [`FirstMatchPolicy`]; the analyses over such policies are written once
//! on top of it:
//!
//! * [`search`] — find an input a policy handles with a given action,
//!   optionally constrained (Batfish `searchRoutePolicies` and
//!   `searchFilters`);
//! * [`compare_route_policies`] — find concrete routes on which two
//!   policies behave differently, with both outcomes (Batfish
//!   `compareRoutePolicies`); this is what powers the disambiguator's
//!   differential examples. [`compare_filters`] and
//!   [`compare_prefix_lists`] are the ACL and prefix-list analogues;
//! * [`overlaps`] / [`acl_overlaps`] — the overlap census of §3 (the
//!   paper's own Batfish extension), symbolic for every kind and by
//!   interval arithmetic for ACLs;
//! * [`witnesses`] — several distinct example inputs from one region.
//!
//! Routes are encoded over BDD variables: 32 prefix bits, 6 prefix-length
//! bits, 16-bit local-preference / metric / tag fields, one variable per
//! **community atomic predicate**, and a binary-encoded **AS-path atomic
//! predicate** index. Atomic predicates are computed by
//! `clarify-automata` from the exact set of regexes appearing in the
//! configurations under analysis, so every Boolean combination of the
//! config's lists is represented exactly and every witness decodes to a
//! concrete [`BgpRoute`](clarify_nettypes::BgpRoute).

#![warn(missing_docs)]

mod error;
mod filter_compare;
mod first_match;
mod incr;
mod network_space;
mod overlap;
mod packet_space;
mod route_compare;
mod route_space;
mod spec;

pub use error::AnalysisError;
pub use filter_compare::{
    compare_filters, compare_prefix_lists, filters_equivalent, prefix_lists_equivalent, FilterDiff,
    PrefixListDiff, PrefixSpace,
};
pub use first_match::{search, witnesses, FirstMatchPolicy};
pub use incr::{atom_env_hash, fire_sets_cached, FireSetCache, FireSets};
pub use network_space::NetworkSpace;
pub use overlap::{
    acl_overlaps, overlaps, route_map_chain_overlaps, ChainOverlapPair, OverlapPair, OverlapReport,
};
pub use packet_space::PacketSpace;
pub use route_compare::{compare_route_policies, policies_equivalent, RouteDiff};
pub use route_space::{OutputConstraints, RouteSpace};
pub use spec::{verify_stanza_against_spec, SpecVerdict, StanzaSpec};

#[cfg(test)]
mod tests;
