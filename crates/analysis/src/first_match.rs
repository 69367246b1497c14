//! One first-match analysis layer.
//!
//! Route-maps, ACLs and prefix lists are all ordered lists of rules in
//! which the first matching rule decides. A kind of policy supplies only
//! its encoding through [`FirstMatchPolicy`]: its symbolic space, the
//! space's validity constraint, each rule's action and match set, and the
//! decoding and encoding of one concrete input. Every first-match analysis
//! is then written once, on top of it: match sets, fire sets and the
//! permit set (provided methods), Batfish-style [`search`], [`witnesses`]
//! by point exclusion, and the overlap census
//! [`overlaps`](crate::overlaps).

use clarify_bdd::{Manager, Ref};
use clarify_netconfig::{Acl, Action, Config, ObjectKind, PrefixList, RouteMap, RuleId};
use clarify_nettypes::{BgpRoute, Packet, Prefix};

use crate::error::AnalysisError;
use crate::filter_compare::PrefixSpace;
use crate::packet_space::PacketSpace;
use crate::route_space::RouteSpace;

/// An ordered first-match policy object — a route-map, ACL or prefix
/// list — and the symbolic space its rules are encoded in. Code written
/// once for every kind of policy (the analyses in this crate, the cached
/// fire-sets, the lint pass and the disambiguation engine) is generic
/// over this trait.
pub trait FirstMatchPolicy {
    /// The space the policy's rule sets live in.
    type Space;
    /// One concrete input the policy decides: a route, packet or prefix.
    type Input: std::fmt::Display;
    /// The span timing one fire-set build.
    const FIRE_SETS_SPAN: &'static str;

    /// The policy's identity; with a content hash, its cache key.
    fn object_id(&self) -> RuleId;
    /// The space's BDD manager.
    fn manager(space: &mut Self::Space) -> &mut Manager;
    /// The assignments of the space that decode to inputs.
    fn valid(space: &Self::Space) -> Ref;
    /// The number of rules.
    fn rule_count(&self) -> usize;
    /// The action of rule `i`.
    fn action(&self, i: usize) -> Action;
    /// Rule `i`'s raw match set (`cfg` resolves list references).
    fn rule_match(
        &self,
        space: &mut Self::Space,
        cfg: &Config,
        i: usize,
    ) -> Result<Ref, AnalysisError>;
    /// A concrete input in `region` (within `valid`), if there is one.
    fn witness(space: &mut Self::Space, region: Ref) -> Result<Option<Self::Input>, AnalysisError>;
    /// Every assignment that decodes to `input`, so that excluding it from
    /// a region removes the input entirely.
    fn encode_input(space: &mut Self::Space, input: &Self::Input) -> Result<Ref, AnalysisError>;

    /// Raw per-rule match sets, in order (ignoring earlier rules).
    fn match_sets(&self, space: &mut Self::Space, cfg: &Config) -> Result<Vec<Ref>, AnalysisError> {
        (0..self.rule_count())
            .map(|i| self.rule_match(space, cfg, i))
            .collect()
    }

    /// First-match firing region per rule, plus the fall-through
    /// remainder (valid inputs no rule matches: the implicit trailing
    /// deny).
    fn fire_sets(
        &self,
        space: &mut Self::Space,
        cfg: &Config,
    ) -> Result<(Vec<Ref>, Ref), AnalysisError> {
        let _span = clarify_obs::span!(Self::FIRE_SETS_SPAN);
        clarify_obs::global()
            .counter("analysis.fire_set_builds")
            .incr();
        let mut fires = Vec::with_capacity(self.rule_count());
        let mut unmatched = Self::valid(space);
        for i in 0..self.rule_count() {
            let m = self.rule_match(space, cfg, i)?;
            let mgr = Self::manager(space);
            fires.push(mgr.and(unmatched, m));
            let nm = mgr.not(m);
            unmatched = mgr.and(unmatched, nm);
        }
        Ok((fires, unmatched))
    }

    /// The valid inputs the policy permits (first match, implicit
    /// trailing deny).
    fn permit_set(&self, space: &mut Self::Space, cfg: &Config) -> Result<Ref, AnalysisError> {
        let valid = Self::valid(space);
        first_match_permits(
            space,
            Self::manager,
            valid,
            0..self.rule_count(),
            |space, i| Ok((self.action(i), self.rule_match(space, cfg, i)?)),
        )
    }
}

/// The first-match permit fold: rule by rule, the inputs still unmatched
/// that a rule matches fire on it, and a permit rule adds them to the
/// result. `unmatched` starts as the inputs under consideration; `rule`
/// yields one rule's action and match set and runs interleaved with the
/// fold, so every rule is encoded just before its own operations.
pub(crate) fn first_match_permits<S, R>(
    space: &mut S,
    manager: fn(&mut S) -> &mut Manager,
    mut unmatched: Ref,
    rules: impl IntoIterator<Item = R>,
    mut rule: impl FnMut(&mut S, R) -> Result<(Action, Ref), AnalysisError>,
) -> Result<Ref, AnalysisError> {
    let mut permitted = Ref::FALSE;
    for r in rules {
        let (action, m) = rule(space, r)?;
        let mgr = manager(space);
        let fires = mgr.and(unmatched, m);
        if action == Action::Permit {
            permitted = mgr.or(permitted, fires);
        }
        let nm = mgr.not(m);
        unmatched = mgr.and(unmatched, nm);
    }
    Ok(permitted)
}

/// "The first `p.len()` of the address variables `vars` (MSB first) hold
/// `p`'s network bits": the one address encoder behind every space's
/// prefix, address and point encodings.
pub(crate) fn encode_network(mgr: &mut Manager, vars: &[u32], p: &Prefix) -> Ref {
    let len = usize::from(p.len());
    mgr.eq_const(&vars[..len], u64::from(p.addr_u32()) >> (32 - len))
}

/// Up to `limit` pairwise-distinct inputs from `region`, by repeated
/// witness extraction with point exclusion. A witness's point is encoded
/// and excluded only while another witness is still wanted, so a
/// one-witness search builds nothing beyond the search itself.
pub fn witnesses<P: FirstMatchPolicy>(
    space: &mut P::Space,
    mut region: Ref,
    limit: usize,
) -> Result<Vec<P::Input>, AnalysisError> {
    let mut out = Vec::new();
    while out.len() < limit {
        let Some(input) = P::witness(space, region)? else {
            break;
        };
        if out.len() + 1 < limit {
            let point = P::encode_input(space, &input)?;
            let mgr = P::manager(space);
            let np = mgr.not(point);
            region = mgr.and(region, np);
        }
        out.push(input);
    }
    Ok(out)
}

/// Batfish-style `searchRoutePolicies` / `searchFilters`: an input the
/// policy handles with `action`, optionally constrained further.
pub fn search<P: FirstMatchPolicy>(
    space: &mut P::Space,
    cfg: &Config,
    policy: &P,
    action: Action,
    constraint: Option<Ref>,
) -> Result<Option<P::Input>, AnalysisError> {
    let permits = policy.permit_set(space, cfg)?;
    let mgr = P::manager(space);
    let region = match action {
        Action::Permit => permits,
        // The witness search keeps it within the valid inputs.
        Action::Deny => mgr.not(permits),
    };
    let region = match constraint {
        Some(c) => mgr.and(region, c),
        None => region,
    };
    P::witness(space, region)
}

impl FirstMatchPolicy for RouteMap {
    type Space = RouteSpace;
    type Input = BgpRoute;
    const FIRE_SETS_SPAN: &'static str = "route_fire_sets";

    fn object_id(&self) -> RuleId {
        RuleId::object(ObjectKind::RouteMap, &self.name)
    }
    fn manager(space: &mut RouteSpace) -> &mut Manager {
        space.manager()
    }
    fn valid(space: &RouteSpace) -> Ref {
        space.valid()
    }
    fn rule_count(&self) -> usize {
        self.stanzas.len()
    }
    fn action(&self, i: usize) -> Action {
        self.stanzas[i].action
    }
    fn rule_match(
        &self,
        space: &mut RouteSpace,
        cfg: &Config,
        i: usize,
    ) -> Result<Ref, AnalysisError> {
        space.encode_stanza_match(cfg, &self.stanzas[i])
    }
    fn witness(space: &mut RouteSpace, region: Ref) -> Result<Option<BgpRoute>, AnalysisError> {
        space.witness(region)
    }
    fn encode_input(space: &mut RouteSpace, route: &BgpRoute) -> Result<Ref, AnalysisError> {
        space.encode_route(route)
    }
}

impl FirstMatchPolicy for Acl {
    type Space = PacketSpace;
    type Input = Packet;
    const FIRE_SETS_SPAN: &'static str = "acl_fire_sets";

    fn object_id(&self) -> RuleId {
        RuleId::object(ObjectKind::Acl, &self.name)
    }
    fn manager(space: &mut PacketSpace) -> &mut Manager {
        space.manager()
    }
    fn valid(space: &PacketSpace) -> Ref {
        space.valid()
    }
    fn rule_count(&self) -> usize {
        self.entries.len()
    }
    fn action(&self, i: usize) -> Action {
        self.entries[i].action
    }
    fn rule_match(
        &self,
        space: &mut PacketSpace,
        _: &Config,
        i: usize,
    ) -> Result<Ref, AnalysisError> {
        Ok(space.encode_entry(&self.entries[i]))
    }
    fn witness(space: &mut PacketSpace, region: Ref) -> Result<Option<Packet>, AnalysisError> {
        Ok(space.witness(region))
    }
    fn encode_input(space: &mut PacketSpace, packet: &Packet) -> Result<Ref, AnalysisError> {
        Ok(space.encode_packet(packet))
    }
}

impl FirstMatchPolicy for PrefixList {
    type Space = PrefixSpace;
    type Input = Prefix;
    const FIRE_SETS_SPAN: &'static str = "prefix_fire_sets";

    fn object_id(&self) -> RuleId {
        RuleId::object(ObjectKind::PrefixList, &self.name)
    }
    fn manager(space: &mut PrefixSpace) -> &mut Manager {
        space.manager()
    }
    fn valid(space: &PrefixSpace) -> Ref {
        space.valid()
    }
    fn rule_count(&self) -> usize {
        self.entries.len()
    }
    fn action(&self, i: usize) -> Action {
        self.entries[i].action
    }
    fn rule_match(
        &self,
        space: &mut PrefixSpace,
        _: &Config,
        i: usize,
    ) -> Result<Ref, AnalysisError> {
        Ok(space.encode_range(&self.entries[i].range))
    }
    fn witness(space: &mut PrefixSpace, region: Ref) -> Result<Option<Prefix>, AnalysisError> {
        Ok(space.witness(region))
    }
    fn encode_input(space: &mut PrefixSpace, prefix: &Prefix) -> Result<Ref, AnalysisError> {
        Ok(space.encode_prefix(prefix))
    }
}
