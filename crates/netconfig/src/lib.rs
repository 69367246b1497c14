//! A Cisco IOS-subset configuration model: route-maps, extended ACLs, and
//! the ancillary lists they reference.
//!
//! This crate owns the *concrete* side of Clarify: the abstract syntax of
//! policies, a line-oriented parser for the IOS syntax used throughout the
//! paper, a pretty-printer whose output round-trips through the parser, a
//! reference evaluator (first-match semantics with the implicit trailing
//! deny), and the insertion engine that splices an LLM-synthesized snippet
//! into an existing policy — renaming ancillary data structures to fresh
//! names and renumbering sequence numbers, exactly as the tool in the paper
//! does ("data structure names are automatically updated by the tool during
//! insertion").
//!
//! ```
//! use clarify_netconfig::Config;
//!
//! let cfg = Config::parse(
//!     "ip prefix-list D1 seq 10 permit 10.0.0.0/8 le 24\n\
//!      route-map ISP_OUT deny 10\n \
//!      match ip address prefix-list D1\n\
//!      route-map ISP_OUT permit 20\n \
//!      match local-preference 300\n",
//! )
//! .unwrap();
//! let rm = cfg.route_map("ISP_OUT").unwrap();
//! assert_eq!(rm.stanzas.len(), 2);
//! ```

#![warn(missing_docs)]

mod ast;
mod error;
mod eval;
mod hash;
mod insert;
mod parser;
mod print;
mod span;

pub use ast::{
    Acl, AclEntry, Action, AddrMatch, AsPathList, AsPathListEntry, CommunityList,
    CommunityListEntry, Config, PrefixList, PrefixListEntry, RouteMap, RouteMapMatch, RouteMapSet,
    RouteMapStanza,
};
pub use error::ConfigError;
pub use eval::{AclVerdict, RouteMapVerdict};
pub use hash::{fnv1a64, fnv1a64_combine, ObjectHashes};
pub use insert::{
    insert_acl_entry, insert_prefix_list_entry, insert_route_map_stanza, InsertReport,
};
pub use span::{ObjectKind, RuleId, RuleKey, SourceMap};

#[cfg(test)]
mod tests;
