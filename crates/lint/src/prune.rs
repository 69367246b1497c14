//! Lint-based pruning of insertion candidates for the disambiguator.
//!
//! The §4 disambiguator enumerates every existing rule whose match set
//! intersects the new rule's (`s*`) as a candidate pivot, then decides for
//! each whether inserting above vs below it changes behaviour. This module
//! supplies a sound pre-filter built on the same firing-region analysis
//! the shadowed-rule lint uses:
//!
//! Inserting the new rule immediately above rule *i* differs from
//! inserting it immediately below only on inputs that both reach rule *i*
//! (are unmatched by rules before it) and match both rule *i* and the new
//! rule. That region is exactly `s* ∧ fire_i`, where `fire_i` is rule
//! *i*'s first-match firing region. When it is ⊥ the two placements are
//! provably equivalent — the new rule would be shadowed at that boundary —
//! so the pivot can never be decisive and is pruned without running the
//! comparison. Pruning therefore cannot change which configuration the
//! disambiguator produces; it only removes provably-redundant work. A
//! surviving pivot's question is then decided on that same region.

use clarify_bdd::{Manager, Ref};

/// Which candidates survived the prune.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PruneOutcome {
    /// Candidates that may still be decisive, in input order.
    pub kept: Vec<usize>,
    /// Candidates proven non-decisive (the new rule is shadowed there).
    pub pruned: Vec<usize>,
}

/// Prunes insertion candidates (rule indices into a policy whose
/// first-match firing regions are `fires`, built in `mgr`) against the
/// new rule's valid match set `s_star`: keeps candidate `i` iff
/// `s_star ∧ fire_i ≠ ⊥`. One function serves route-maps, ACLs and
/// prefix lists alike.
pub fn prune_candidates(
    mgr: &mut Manager,
    fires: &[Ref],
    s_star: Ref,
    candidates: &[usize],
) -> PruneOutcome {
    let (kept, pruned) = candidates
        .iter()
        .copied()
        .partition(|&i| mgr.and(s_star, fires[i]) != Ref::FALSE);
    PruneOutcome { kept, pruned }
}
