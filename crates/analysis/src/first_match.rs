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
//! [`overlaps`](crate::overlaps). Fire sets are one fold over match sets
//! the caller already holds, so every rule is encoded once per analysis;
//! the permit set, the route space's list encoders and the network
//! transfer read the same fold.

use clarify_bdd::{Manager, Ref};
use clarify_netconfig::{Acl, Action, Config, PrefixList, RouteMap};
use clarify_nettypes::{BgpRoute, Packet, Prefix};

use crate::error::AnalysisError;
use crate::filter_compare::PrefixSpace;
use crate::packet_space::PacketSpace;
use crate::route_space::RouteSpace;

/// An ordered first-match policy object — a route-map, ACL or prefix
/// list — and the symbolic space its rules are encoded in. Code written
/// once for every kind of policy (the analyses in this crate, the lint
/// pass and the disambiguation engine) is generic over this trait.
pub trait FirstMatchPolicy {
    /// The space the policy's rule sets live in.
    type Space;
    /// One concrete input the policy decides: a route, packet or prefix.
    type Input: std::fmt::Display;
    /// The span timing one fire-set build.
    const FIRE_SETS_SPAN: &'static str;

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

    /// First-match firing region per rule, from the rules' match sets in
    /// order (see [`match_sets`](Self::match_sets)), plus the
    /// fall-through remainder (valid inputs no rule matches: the implicit
    /// trailing deny). The fold encodes nothing, so a caller that holds
    /// the match sets encodes each rule once.
    fn fire_sets(space: &mut Self::Space, matches: &[Ref]) -> (Vec<Ref>, Ref) {
        let _span = clarify_obs::span!(Self::FIRE_SETS_SPAN);
        clarify_obs::global()
            .counter("analysis.fire_set_builds")
            .incr();
        let valid = Self::valid(space);
        first_match(Self::manager(space), valid, matches)
    }

    /// The valid inputs the policy permits (first match, implicit
    /// trailing deny): the union of its permit rules' fires.
    fn permit_set(&self, space: &mut Self::Space, cfg: &Config) -> Result<Ref, AnalysisError> {
        let matches = self.match_sets(space, cfg)?;
        let valid = Self::valid(space);
        let mgr = Self::manager(space);
        let (fires, _) = first_match(mgr, valid, &matches);
        let actions = (0..self.rule_count()).map(|i| self.action(i));
        Ok(permits(mgr, actions, &fires))
    }
}

/// The first-match fold, the one place rules are ordered: rule by rule,
/// the inputs of `unmatched` that no earlier rule matched and the rule's
/// match set (in `matches`) contains fire on it. Returns each rule's fire
/// set and the inputs left unmatched at the end.
pub(crate) fn first_match(
    mgr: &mut Manager,
    mut unmatched: Ref,
    matches: &[Ref],
) -> (Vec<Ref>, Ref) {
    let fires = matches
        .iter()
        .map(|&m| {
            let fire = mgr.and(unmatched, m);
            let nm = mgr.not(m);
            unmatched = mgr.and(unmatched, nm);
            fire
        })
        .collect();
    (fires, unmatched)
}

/// The union of the fires of the rules whose action (in `actions`, in
/// rule order) is permit: what the policy permits.
pub(crate) fn permits(
    mgr: &mut Manager,
    actions: impl IntoIterator<Item = Action>,
    fires: &[Ref],
) -> Ref {
    let permitted = actions.into_iter().zip(fires);
    mgr.or_all(
        permitted
            .filter(|&(action, _)| action == Action::Permit)
            .map(|(_, &fire)| fire),
    )
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
