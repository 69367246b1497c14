//! Differential comparison of ACLs (the packet-filter counterpart of
//! [`crate::compare_route_policies`]) and of prefix lists.

use clarify_bdd::{Manager, Ref};
use clarify_netconfig::{Acl, AclVerdict, Config, PrefixList};
use clarify_nettypes::{Packet, Prefix, PrefixRange};

use crate::error::AnalysisError;
use crate::first_match::{encode_network, witnesses, FirstMatchPolicy};
use crate::packet_space::PacketSpace;

/// One concrete packet on which two ACLs disagree.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FilterDiff {
    /// The differential packet.
    pub packet: Packet,
    /// Verdict under the first ACL.
    pub a: AclVerdict,
    /// Verdict under the second ACL.
    pub b: AclVerdict,
}

/// Up to `limit` inputs on which two policies of one kind decide
/// differently: witnesses of the symmetric difference of their permit
/// sets. Lists and ACLs reference no other objects, so no configuration
/// is needed to encode them.
fn permit_diff<P: FirstMatchPolicy>(
    space: &mut P::Space,
    a: &P,
    b: &P,
    limit: usize,
) -> Result<Vec<P::Input>, AnalysisError> {
    let cfg = Config::new();
    let pa = a.permit_set(space, &cfg)?;
    let pb = b.permit_set(space, &cfg)?;
    let region = P::manager(space).xor(pa, pb);
    witnesses::<P>(space, region, limit)
}

/// Finds up to `limit` packets on which the two ACLs differ. ACL outcomes
/// are pure permit/deny, so the difference region is exactly the symmetric
/// difference of the permit sets; each witness is re-validated concretely.
pub fn compare_filters(
    space: &mut PacketSpace,
    a: &Acl,
    b: &Acl,
    limit: usize,
) -> Result<Vec<FilterDiff>, AnalysisError> {
    let packets = permit_diff(space, a, b, limit)?;
    Ok(packets
        .into_iter()
        .map(|packet| {
            let (va, vb) = (a.eval(&packet), b.eval(&packet));
            debug_assert_ne!(va.action, vb.action, "witness must differ");
            FilterDiff {
                packet,
                a: va,
                b: vb,
            }
        })
        .collect())
}

/// Whether two ACLs permit exactly the same packets. Packet encodings
/// cannot fail, so the comparison always completes.
pub fn filters_equivalent(space: &mut PacketSpace, a: &Acl, b: &Acl) -> bool {
    compare_filters(space, a, b, 1).is_ok_and(|d| d.is_empty())
}

// ---------------------------------------------------------------------
// Prefix lists (the paper's §7 future work: disambiguating insertions
// into ancillary structures that can themselves conflict).
// ---------------------------------------------------------------------

/// The symbolic space of route prefixes: 32 address bits plus 6 length
/// bits, with `len <= 32` as the validity constraint. This is the input
/// space of a prefix list viewed as a standalone filter.
pub struct PrefixSpace {
    mgr: Manager,
    addr_vars: Vec<u32>,
    len_vars: Vec<u32>,
    valid: Ref,
    /// Pins `valid` across the manager's collections (never unprotected).
    _valid_root: clarify_bdd::Root,
}

impl Default for PrefixSpace {
    fn default() -> Self {
        Self::new()
    }
}

impl PrefixSpace {
    /// Builds the space.
    pub fn new() -> PrefixSpace {
        let addr_vars: Vec<u32> = (0..32).collect();
        let len_vars: Vec<u32> = (32..38).collect();
        // Prefix-list comparisons stay small (38 variables, interval
        // constraints only); a modest pre-size avoids the first rehashes
        // without over-allocating per comparison.
        let mut mgr = Manager::with_capacity(38, 1 << 12);
        let valid = mgr.le_const(&len_vars, 32);
        // Pin it; unrooted garbage is collected between comparisons.
        let valid_root = mgr.protect(valid);
        mgr.set_auto_gc(true);
        PrefixSpace {
            mgr,
            addr_vars,
            len_vars,
            valid,
            _valid_root: valid_root,
        }
    }

    /// The manager, for custom constraints.
    pub fn manager(&mut self) -> &mut Manager {
        &mut self.mgr
    }

    /// The well-formedness constraint (`len <= 32`).
    pub fn valid(&self) -> Ref {
        self.valid
    }

    /// Encodes the set of prefixes a range matches.
    pub fn encode_range(&mut self, range: &PrefixRange) -> Ref {
        let covered = encode_network(&mut self.mgr, &self.addr_vars, &range.prefix);
        let len_ok = self.mgr.range_const(
            &self.len_vars.clone(),
            u64::from(range.min_len),
            u64::from(range.max_len),
        );
        self.mgr.and(covered, len_ok)
    }

    /// Encodes a single concrete prefix as a point.
    pub fn encode_prefix(&mut self, p: &Prefix) -> Ref {
        // Constrain only the first `len` address bits: decoding normalizes
        // host bits away, so this encodes the full equivalence class of
        // assignments for `p`, which makes witness point-exclusion sound.
        let acc = encode_network(&mut self.mgr, &self.addr_vars, p);
        let len = self
            .mgr
            .eq_const(&self.len_vars.clone(), u64::from(p.len()));
        self.mgr.and(acc, len)
    }

    /// A concrete prefix from a region, or `None` when empty. The decoded
    /// prefix is normalized to its length.
    pub fn witness(&mut self, region: Ref) -> Option<Prefix> {
        let r = self.mgr.and(region, self.valid);
        let cube = self.mgr.any_sat(r)?;
        let addr = cube.decode(&self.addr_vars) as u32;
        let len = (cube.decode(&self.len_vars) as u8).min(32);
        Some(Prefix::from_u32(addr, len))
    }
}

/// One concrete prefix on which two prefix lists disagree.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PrefixListDiff {
    /// The differential prefix.
    pub prefix: Prefix,
    /// Whether the first list permits it.
    pub a_permits: bool,
    /// Whether the second list permits it.
    pub b_permits: bool,
}

/// Finds up to `limit` prefixes on which the two lists disagree.
pub fn compare_prefix_lists(
    space: &mut PrefixSpace,
    a: &PrefixList,
    b: &PrefixList,
    limit: usize,
) -> Result<Vec<PrefixListDiff>, AnalysisError> {
    let prefixes = permit_diff(space, a, b, limit)?;
    Ok(prefixes
        .into_iter()
        .map(|prefix| {
            let (a_permits, b_permits) = (a.permits(&prefix), b.permits(&prefix));
            debug_assert_ne!(a_permits, b_permits, "witness must differ");
            PrefixListDiff {
                prefix,
                a_permits,
                b_permits,
            }
        })
        .collect())
}

/// Whether two prefix lists permit exactly the same prefixes.
pub fn prefix_lists_equivalent(
    space: &mut PrefixSpace,
    a: &PrefixList,
    b: &PrefixList,
) -> Result<bool, AnalysisError> {
    Ok(compare_prefix_lists(space, a, b, 1)?.is_empty())
}
