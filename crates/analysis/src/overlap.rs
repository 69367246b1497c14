//! Overlap census of ACLs and route-maps — the paper's §3 measurement
//! extension to Batfish.
//!
//! Two ACL rules have a **conflicting overlap** when some packet matches
//! both and their actions differ. Two route-map stanzas **overlap** when
//! some route matches both (actions are ignored for route-maps, because a
//! stanza may chain to other policies via goto/continue/call — the paper
//! treats the count as an upper bound, and so do we; we additionally
//! report whether the actions differ, which §3.2 uses for the campus
//! numbers).
//!
//! ACL entries are hyperrectangles (prefix × prefix × protocol × port-range
//! × port-range), so ACL overlap is decided with exact interval arithmetic
//! in [`acl_overlaps`]; the symbolic census [`overlaps`], written once for
//! every first-match policy kind, cross-validates it and is used for
//! route-maps, whose match conditions are not rectangular.

use clarify_bdd::Ref;
use clarify_netconfig::{Acl, Config, RouteMap};

use crate::error::AnalysisError;
use crate::first_match::FirstMatchPolicy;
use crate::route_space::RouteSpace;

/// One overlapping rule pair.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct OverlapPair {
    /// Index of the earlier rule.
    pub i: usize,
    /// Index of the later rule.
    pub j: usize,
    /// Whether the two rules' actions differ.
    pub conflicting: bool,
    /// Whether one rule's match set contains the other's (the "trivial
    /// subset" case §3.2 filters out, e.g. `permit tcp host A host B`
    /// under `deny ip any any`).
    pub subset: bool,
}

/// The overlap census of one ACL or route-map.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct OverlapReport {
    /// Number of rules in the policy.
    pub num_rules: usize,
    /// Every overlapping pair, in (i, j) order.
    pub pairs: Vec<OverlapPair>,
}

impl OverlapReport {
    /// Total number of overlapping pairs.
    pub fn count(&self) -> usize {
        self.pairs.len()
    }

    /// Pairs whose actions differ.
    pub fn conflict_count(&self) -> usize {
        self.pairs.iter().filter(|p| p.conflicting).count()
    }

    /// Conflicting pairs that are not subset-shaped (the §3.2 "non-trivial"
    /// measure).
    pub fn nontrivial_conflict_count(&self) -> usize {
        self.pairs
            .iter()
            .filter(|p| p.conflicting && !p.subset)
            .count()
    }

    /// Whether any overlap exists.
    pub fn has_overlap(&self) -> bool {
        !self.pairs.is_empty()
    }
}

/// Exact interval-arithmetic overlap analysis of an ACL.
pub fn acl_overlaps(acl: &Acl) -> OverlapReport {
    let mut pairs = Vec::new();
    for i in 0..acl.entries.len() {
        for j in (i + 1)..acl.entries.len() {
            let a = &acl.entries[i];
            let b = &acl.entries[j];
            let proto_overlap = a.protocol.matches(b.protocol) || b.protocol.matches(a.protocol);
            let overlap = proto_overlap
                && a.src.as_prefix().overlaps(&b.src.as_prefix())
                && a.dst.as_prefix().overlaps(&b.dst.as_prefix())
                && a.src_ports.overlaps(&b.src_ports)
                && a.dst_ports.overlaps(&b.dst_ports);
            if overlap {
                pairs.push(OverlapPair {
                    i,
                    j,
                    conflicting: a.action != b.action,
                    subset: a.match_superset_of(b) || b.match_superset_of(a),
                });
            }
        }
    }
    OverlapReport {
        num_rules: acl.entries.len(),
        pairs,
    }
}

/// Symbolic (BDD) overlap census of one policy: rule pairs whose match
/// sets intersect on at least one valid input. On ACLs it agrees with
/// [`acl_overlaps`], which it cross-validates.
pub fn overlaps<P: FirstMatchPolicy>(
    space: &mut P::Space,
    cfg: &Config,
    policy: &P,
) -> Result<OverlapReport, AnalysisError> {
    let valid = P::valid(space);
    let sets = policy.match_sets(space, cfg)?;
    let mgr = P::manager(space);
    let sets: Vec<Ref> = sets.into_iter().map(|m| mgr.and(m, valid)).collect();
    let mut pairs = Vec::new();
    for (i, &vi) in sets.iter().enumerate() {
        for (j, &vj) in sets.iter().enumerate().skip(i + 1) {
            if mgr.and(vi, vj) == Ref::FALSE {
                continue;
            }
            pairs.push(OverlapPair {
                i,
                j,
                conflicting: policy.action(i) != policy.action(j),
                subset: mgr.implies_true(vi, vj) || mgr.implies_true(vj, vi),
            });
        }
    }
    Ok(OverlapReport {
        num_rules: sets.len(),
        pairs,
    })
}

/// One overlapping stanza pair across a *chain* of route-maps applied in
/// sequence to the same neighbor (§3.1: "there can be overlaps not just
/// between different stanzas within a single route map, but also between
/// different route maps applied to the same neighbor").
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ChainOverlapPair {
    /// Index of the earlier map in the chain.
    pub map_i: usize,
    /// Stanza index within the earlier map.
    pub stanza_i: usize,
    /// Index of the later map (may equal `map_i` for intra-map pairs).
    pub map_j: usize,
    /// Stanza index within the later map.
    pub stanza_j: usize,
    /// Whether the two stanzas' actions differ.
    pub conflicting: bool,
}

/// Overlap census across a chain of route-maps: every pair of stanzas
/// (within one map or across maps) whose match sets intersect on a valid
/// route. Intra-map pairs have `map_i == map_j`.
pub fn route_map_chain_overlaps(
    space: &mut RouteSpace,
    cfg: &Config,
    chain: &[&RouteMap],
) -> Result<Vec<ChainOverlapPair>, AnalysisError> {
    // Flatten to (map index, stanza index, match set, action).
    let valid = space.valid();
    let mut flat = Vec::new();
    for (mi, rm) in chain.iter().enumerate() {
        let sets = rm.match_sets(space, cfg)?;
        for (si, set) in sets.into_iter().enumerate() {
            let vset = space.manager().and(set, valid);
            flat.push((mi, si, vset, rm.stanzas[si].action));
        }
    }
    let mut pairs = Vec::new();
    for a in 0..flat.len() {
        for b in (a + 1)..flat.len() {
            let (mi, si, sa, aa) = flat[a];
            let (mj, sj, sb, ab) = flat[b];
            if space.manager().and(sa, sb) != Ref::FALSE {
                pairs.push(ChainOverlapPair {
                    map_i: mi,
                    stanza_i: si,
                    map_j: mj,
                    stanza_j: sj,
                    conflicting: aa != ab,
                });
            }
        }
    }
    Ok(pairs)
}
