//! The simulated user's answer rule.
//!
//! A user who wants the new rule at zero-based `slot` of the target answers
//! a question about pivot rule `i` (OPTION 1 = new rule above `i`, OPTION 2
//! = below) with OPTION 1 exactly when `slot <= i`. The pivot arrives as a
//! route-map sequence number (mapped to a stanza index through the
//! client's copy of the configuration) or directly as an ACL entry index.
//! `tests/answer_rule.rs` checks this rule against the repository's
//! intent oracles on every slot.

use clarify_core::Choice;
use clarify_netconfig::Config;

use crate::inputs::Kind;

/// The answer for a question whose pivot is rule index `pivot_index`.
pub fn choose(slot: usize, pivot_index: usize) -> Choice {
    if slot <= pivot_index {
        Choice::First
    } else {
        Choice::Second
    }
}

/// Maps a question frame's `pivot` field to a rule index of `target`.
pub fn pivot_index(config: &Config, kind: Kind, target: &str, pivot: u64) -> Option<usize> {
    match kind {
        Kind::Acl => usize::try_from(pivot).ok(),
        Kind::RouteMap => config
            .route_map(target)?
            .stanzas
            .iter()
            .position(|s| u64::from(s.seq) == pivot),
    }
}
