//! The symbolic route space: BDD variables for every matchable field of a
//! BGP route, plus encode/decode between [`BgpRoute`]s and BDD sets.

use std::collections::HashMap;

use clarify_automata::{AtomSpace, Regex};
use clarify_bdd::{Cube, Manager, Ref};
use clarify_netconfig::{
    Action, AsPathList, CommunityList, Config, PrefixList, RouteMapMatch, RouteMapStanza,
};
use clarify_nettypes::{AsPath, BgpRoute, Community, Prefix, PrefixRange};

use crate::error::AnalysisError;
use crate::first_match::{encode_network, first_match_permits, FirstMatchPolicy};

/// All syntactically valid community subject strings: `N:M` with one to
/// five digits per half. Values above 65535 are rejected when a witness is
/// decoded; shortest-witness extraction never produces them for the
/// patterns real configurations use.
const COMMUNITY_UNIVERSE: &str = "^[0-9][0-9]?[0-9]?[0-9]?[0-9]?:[0-9][0-9]?[0-9]?[0-9]?[0-9]?$";

/// All syntactically valid AS-path subject strings: possibly empty,
/// space-separated AS numbers of one to five digits.
const AS_PATH_UNIVERSE: &str =
    "^([0-9][0-9]?[0-9]?[0-9]?[0-9]?( [0-9][0-9]?[0-9]?[0-9]?[0-9]?)*)?$";

/// Width of the numeric attribute fields (local-pref, metric, tag).
const FIELD_BITS: u32 = 16;

/// A numeric route attribute the space encodes in [`FIELD_BITS`] bits.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Field {
    LocalPref,
    Metric,
    Tag,
}

impl Field {
    /// The attribute's configuration keyword, as errors name it.
    fn name(self) -> &'static str {
        match self {
            Field::LocalPref => "local-preference",
            Field::Metric => "metric",
            Field::Tag => "tag",
        }
    }

    /// `value` as an encodable field value, or an error past 16 bits.
    pub(crate) fn value(self, value: u32) -> Result<u64, AnalysisError> {
        if value >= 1 << FIELD_BITS {
            Err(AnalysisError::ValueTooLarge {
                field: self.name(),
                value,
            })
        } else {
            Ok(u64::from(value))
        }
    }
}

/// The symbolic input space of route-map analysis.
///
/// Built once per analysis session from every configuration that will be
/// involved (base config plus snippet), so that all of them share one set
/// of atomic predicates; encoding a config whose regexes were not part of
/// the construction fails with [`AnalysisError::UnknownPattern`].
pub struct RouteSpace {
    pub(crate) mgr: Manager,
    pub(crate) comm_atoms: AtomSpace,
    pub(crate) path_atoms: AtomSpace,
    comm_pattern_idx: HashMap<String, usize>,
    path_pattern_idx: HashMap<String, usize>,
    prefix_vars: Vec<u32>,
    plen_vars: Vec<u32>,
    lp_vars: Vec<u32>,
    metric_vars: Vec<u32>,
    tag_vars: Vec<u32>,
    pub(crate) comm_vars: Vec<u32>,
    pub(crate) path_vars: Vec<u32>,
    valid: Ref,
    /// Pins `valid` across the manager's collections for the lifetime of
    /// the space (never unprotected — the safe failure mode).
    _valid_root: clarify_bdd::Root,
}

impl RouteSpace {
    /// Builds the space for analyses over the given configurations.
    pub fn new(configs: &[&Config]) -> Result<RouteSpace, AnalysisError> {
        let _span = clarify_obs::span!("route_space_build");
        clarify_obs::global()
            .counter("analysis.route_space_builds")
            .incr();
        // Collect regex patterns in deterministic first-seen order.
        let mut comm_patterns: Vec<Regex> = Vec::new();
        let mut comm_pattern_idx = HashMap::new();
        let mut path_patterns: Vec<Regex> = Vec::new();
        let mut path_pattern_idx = HashMap::new();
        for cfg in configs {
            for cl in cfg.community_lists.values() {
                for e in &cl.entries {
                    let key = e.regex.pattern().to_string();
                    if let std::collections::hash_map::Entry::Vacant(v) =
                        comm_pattern_idx.entry(key)
                    {
                        v.insert(comm_patterns.len());
                        comm_patterns.push(e.regex.clone());
                    }
                }
            }
            for al in cfg.as_path_lists.values() {
                for e in &al.entries {
                    let key = e.regex.pattern().to_string();
                    if let std::collections::hash_map::Entry::Vacant(v) =
                        path_pattern_idx.entry(key)
                    {
                        v.insert(path_patterns.len());
                        path_patterns.push(e.regex.clone());
                    }
                }
            }
        }

        let comm_universe = Regex::parse(COMMUNITY_UNIVERSE)
            .expect("community universe regex is valid")
            .to_dfa();
        let path_universe = Regex::parse(AS_PATH_UNIVERSE)
            .expect("AS-path universe regex is valid")
            .to_dfa();
        let comm_atoms = AtomSpace::build(&comm_universe, &comm_patterns)
            .ok_or(AnalysisError::AtomLimitExceeded)?;
        let path_atoms = AtomSpace::build(&path_universe, &path_patterns)
            .ok_or(AnalysisError::AtomLimitExceeded)?;

        let path_bits = {
            let n = path_atoms.len().max(1);
            // Bits needed to index n atoms.
            (usize::BITS - (n - 1).leading_zeros()) as usize
        };

        // Variable layout, in order.
        let mut next = 0u32;
        let mut take = |n: usize| -> Vec<u32> {
            let vars: Vec<u32> = (next..next + n as u32).collect();
            next += n as u32;
            vars
        };
        let prefix_vars = take(32);
        let plen_vars = take(6);
        let lp_vars = take(FIELD_BITS as usize);
        let metric_vars = take(FIELD_BITS as usize);
        let tag_vars = take(FIELD_BITS as usize);
        let comm_vars = take(comm_atoms.len());
        let path_vars = take(path_bits);

        // Pre-size the kernel tables from the atomic-predicate counts: the
        // fixed fields contribute a roughly constant footprint, and every
        // community/path atom multiplies the stanza encodings it appears in.
        let node_hint = 1 << 13 | ((comm_atoms.len() + path_atoms.len()) * 512).next_power_of_two();
        let mut mgr = Manager::with_capacity(next, node_hint);
        let mut valid = mgr.le_const(&plen_vars, 32);
        if !path_vars.is_empty() {
            let in_range = mgr.le_const(&path_vars, (path_atoms.len().max(1) - 1) as u64);
            valid = mgr.and(valid, in_range);
        }
        // Pin the validity predicate and let the kernel collect everything
        // unrooted (and re-sift a degraded order) at the clear_op_caches
        // seams between work items. Witnesses are order-invariant, so
        // neither touches decoded output.
        let valid_root = mgr.protect(valid);
        mgr.set_auto_gc(true);
        mgr.set_auto_reorder(true);

        Ok(RouteSpace {
            mgr,
            comm_atoms,
            path_atoms,
            comm_pattern_idx,
            path_pattern_idx,
            prefix_vars,
            plen_vars,
            lp_vars,
            metric_vars,
            tag_vars,
            comm_vars,
            path_vars,
            valid,
            _valid_root: valid_root,
        })
    }

    /// The BDD manager (exposed for composing custom constraints).
    pub fn manager(&mut self) -> &mut Manager {
        &mut self.mgr
    }

    /// The set of assignments that decode to well-formed routes.
    pub fn valid(&self) -> Ref {
        self.valid
    }

    /// Number of community atomic predicates.
    pub fn num_community_atoms(&self) -> usize {
        self.comm_atoms.len()
    }

    /// Number of AS-path atomic predicates.
    pub fn num_path_atoms(&self) -> usize {
        self.path_atoms.len()
    }

    /// The variables encoding `field`, MSB first.
    pub(crate) fn field_vars(&self, field: Field) -> &[u32] {
        match field {
            Field::LocalPref => &self.lp_vars,
            Field::Metric => &self.metric_vars,
            Field::Tag => &self.tag_vars,
        }
    }

    /// Encodes "the route's `field` equals `value`".
    pub(crate) fn field_eq(&mut self, field: Field, value: u32) -> Result<Ref, AnalysisError> {
        let value = field.value(value)?;
        let vars = self.field_vars(field).to_vec();
        Ok(self.mgr.eq_const(&vars, value))
    }

    /// Encodes "the route's prefix matches this prefix range".
    pub fn encode_prefix_range(&mut self, range: &PrefixRange) -> Ref {
        let covered = encode_network(&mut self.mgr, &self.prefix_vars, &range.prefix);
        let len_ok = self.mgr.range_const(
            &self.plen_vars,
            u64::from(range.min_len),
            u64::from(range.max_len),
        );
        self.mgr.and(covered, len_ok)
    }

    /// Encodes a prefix list's *permit* set (first match wins, default deny).
    pub fn encode_prefix_list(&mut self, list: &PrefixList) -> Result<Ref, AnalysisError> {
        first_match_permits(
            self,
            RouteSpace::manager,
            Ref::TRUE,
            &list.entries,
            |s, e| Ok((e.action, s.encode_prefix_range(&e.range))),
        )
    }

    fn pattern_set(&mut self, kind: &'static str, pattern: &str) -> Result<Ref, AnalysisError> {
        match kind {
            "community" => {
                let &idx = self
                    .comm_pattern_idx
                    .get(pattern)
                    .ok_or_else(|| AnalysisError::UnknownPattern(pattern.to_string()))?;
                let members: Vec<usize> = self.comm_atoms.members_of(idx).to_vec();
                let lits: Vec<Ref> = members
                    .iter()
                    .map(|&a| self.mgr.var(self.comm_vars[a]))
                    .collect();
                Ok(self.mgr.or_all(lits))
            }
            "as-path" => {
                let &idx = self
                    .path_pattern_idx
                    .get(pattern)
                    .ok_or_else(|| AnalysisError::UnknownPattern(pattern.to_string()))?;
                let members: Vec<usize> = self.path_atoms.members_of(idx).to_vec();
                let path_vars = self.path_vars.clone();
                let terms: Vec<Ref> = members
                    .iter()
                    .map(|&a| self.mgr.eq_const(&path_vars, a as u64))
                    .collect();
                Ok(self.mgr.or_all(terms))
            }
            _ => unreachable!("pattern kind"),
        }
    }

    /// Encodes a community list's permit set.
    pub fn encode_community_list(&mut self, list: &CommunityList) -> Result<Ref, AnalysisError> {
        first_match_permits(
            self,
            RouteSpace::manager,
            Ref::TRUE,
            &list.entries,
            |s, e| Ok((e.action, s.pattern_set("community", e.regex.pattern())?)),
        )
    }

    /// Encodes an AS-path list's permit set.
    pub fn encode_as_path_list(&mut self, list: &AsPathList) -> Result<Ref, AnalysisError> {
        first_match_permits(
            self,
            RouteSpace::manager,
            Ref::TRUE,
            &list.entries,
            |s, e| Ok((e.action, s.pattern_set("as-path", e.regex.pattern())?)),
        )
    }

    /// Encodes one match clause.
    pub fn encode_match(&mut self, cfg: &Config, m: &RouteMapMatch) -> Result<Ref, AnalysisError> {
        Ok(match m {
            RouteMapMatch::PrefixList(names) => {
                let mut acc = Ref::FALSE;
                for n in names {
                    let pl = cfg.prefix_list(n)?.clone();
                    let enc = self.encode_prefix_list(&pl)?;
                    acc = self.mgr.or(acc, enc);
                }
                acc
            }
            RouteMapMatch::Community(names) => {
                let mut acc = Ref::FALSE;
                for n in names {
                    let cl = cfg.community_list(n)?.clone();
                    let enc = self.encode_community_list(&cl)?;
                    acc = self.mgr.or(acc, enc);
                }
                acc
            }
            RouteMapMatch::AsPath(names) => {
                let mut acc = Ref::FALSE;
                for n in names {
                    let al = cfg.as_path_list(n)?.clone();
                    let enc = self.encode_as_path_list(&al)?;
                    acc = self.mgr.or(acc, enc);
                }
                acc
            }
            RouteMapMatch::LocalPref(v) => self.field_eq(Field::LocalPref, *v)?,
            RouteMapMatch::Metric(v) => self.field_eq(Field::Metric, *v)?,
            RouteMapMatch::Tag(v) => self.field_eq(Field::Tag, *v)?,
        })
    }

    /// Encodes a stanza's full match condition (conjunction of clauses).
    pub fn encode_stanza_match(
        &mut self,
        cfg: &Config,
        stanza: &RouteMapStanza,
    ) -> Result<Ref, AnalysisError> {
        let mut acc = Ref::TRUE;
        for m in &stanza.matches {
            let enc = self.encode_match(cfg, m)?;
            acc = self.mgr.and(acc, enc);
        }
        Ok(acc)
    }

    /// Encodes a single concrete route as a point in the space.
    pub fn encode_route(&mut self, route: &BgpRoute) -> Result<Ref, AnalysisError> {
        // Only the first `len` address bits identify the route: decode
        // normalizes host bits away, and no match clause ever constrains a
        // bit at or beyond the route's own prefix length. Encoding the
        // whole equivalence class keeps point membership faithful *and*
        // makes point exclusion in [`witnesses`](crate::witnesses) sound
        // (a 32-bit point would leave same-route assignments behind,
        // yielding duplicate witnesses).
        let mut acc = encode_network(&mut self.mgr, &self.prefix_vars, &route.network);
        let plen = self
            .mgr
            .eq_const(&self.plen_vars.clone(), u64::from(route.network.len()));
        acc = self.mgr.and(acc, plen);
        for (field, value) in [
            (Field::LocalPref, route.local_pref),
            (Field::Metric, route.metric),
            (Field::Tag, route.tag),
        ] {
            let eq = self.field_eq(field, value)?;
            acc = self.mgr.and(acc, eq);
        }

        // Community atoms: variable i is true iff the route carries a
        // community inside atom i.
        for (i, &v) in self.comm_vars.clone().iter().enumerate() {
            let has = route.communities.iter().any(|c| {
                self.comm_atoms
                    .classify(&c.subject())
                    .map(|a| a == i)
                    .unwrap_or(false)
            });
            let lit = self.mgr.literal(v, has);
            acc = self.mgr.and(acc, lit);
        }
        // Every community must classify somewhere, or the encoding would
        // silently under-represent the route.
        for c in &route.communities {
            if self.comm_atoms.classify(&c.subject()).is_none() {
                return Err(AnalysisError::OutsideUniverse {
                    kind: "community",
                    value: c.subject(),
                });
            }
        }

        if !self.path_vars.is_empty() {
            let idx = self
                .path_atoms
                .classify(&route.as_path.subject())
                .ok_or_else(|| AnalysisError::OutsideUniverse {
                    kind: "AS path",
                    value: route.as_path.subject(),
                })?;
            let enc = self.mgr.eq_const(&self.path_vars.clone(), idx as u64);
            acc = self.mgr.and(acc, enc);
        } else if self.path_atoms.len() == 1
            && self.path_atoms.classify(&route.as_path.subject()).is_none()
        {
            return Err(AnalysisError::OutsideUniverse {
                kind: "AS path",
                value: route.as_path.subject(),
            });
        }
        Ok(acc)
    }

    /// Decodes a satisfying assignment into a concrete route.
    ///
    /// Unconstrained variables default to zero; the prefix is normalized to
    /// its decoded length; unencoded fields (next hop, weight) get the
    /// paper's default values.
    pub fn decode_route(&self, cube: &Cube) -> Result<BgpRoute, AnalysisError> {
        let addr = cube.decode(&self.prefix_vars) as u32;
        let plen = (cube.decode(&self.plen_vars) as u8).min(32);
        let network = Prefix::from_u32(addr, plen);
        let mut route = BgpRoute::with_defaults(network);
        route.local_pref = cube.decode(&self.lp_vars) as u32;
        route.metric = cube.decode(&self.metric_vars) as u32;
        route.tag = cube.decode(&self.tag_vars) as u32;

        for (i, &v) in self.comm_vars.iter().enumerate() {
            if cube.value_or_false(v) {
                let w = self.comm_atoms.witness(i);
                let c: Community = w.parse().map_err(|_| AnalysisError::OutsideUniverse {
                    kind: "community witness",
                    value: w.to_string(),
                })?;
                route.communities.insert(c);
            }
        }

        if !self.path_atoms.is_empty() {
            let idx = (cube.decode(&self.path_vars) as usize).min(self.path_atoms.len() - 1);
            let w = self.path_atoms.witness(idx);
            let path: AsPath = w.parse().map_err(|_| AnalysisError::OutsideUniverse {
                kind: "AS-path witness",
                value: w.to_string(),
            })?;
            route.as_path = path;
        }
        Ok(route)
    }

    /// A concrete route from a region, or `None` if it is empty (after
    /// intersecting with the validity constraint).
    pub fn witness(&mut self, region: Ref) -> Result<Option<BgpRoute>, AnalysisError> {
        let r = self.mgr.and(region, self.valid);
        match self.mgr.any_sat(r) {
            None => Ok(None),
            Some(cube) => Ok(Some(self.decode_route(&cube)?)),
        }
    }

    /// Like [`RouteSpace::witness`] but walks high branches first, which
    /// usually yields a different example.
    pub fn witness_alt(&mut self, region: Ref) -> Result<Option<BgpRoute>, AnalysisError> {
        let r = self.mgr.and(region, self.valid);
        match self.mgr.any_sat_high(r) {
            None => Ok(None),
            Some(cube) => Ok(Some(self.decode_route(&cube)?)),
        }
    }
}

/// Constraints on the *output* route of a permitting policy, for
/// [`RouteSpace::search_route_policies_out`] (Batfish's
/// `searchRoutePolicies` supports the same via `outputConstraints`).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct OutputConstraints {
    /// Required MED of the outgoing route.
    pub metric: Option<u32>,
    /// Required LOCAL_PREF of the outgoing route.
    pub local_pref: Option<u32>,
    /// Required tag of the outgoing route.
    pub tag: Option<u32>,
}

impl RouteSpace {
    /// Finds an input route the policy *permits* whose **output** satisfies
    /// the given constraints, optionally restricted by an input-side
    /// constraint. Returns `(input, output)` with the output computed by
    /// the concrete evaluator.
    ///
    /// Exact for the constrained fields: a stanza that sets the field
    /// contributes its whole firing region iff the set value matches; a
    /// stanza that leaves it alone contributes the sub-region where the
    /// *input* already carries the required value.
    pub fn search_route_policies_out(
        &mut self,
        cfg: &Config,
        name: &str,
        input_constraint: Option<Ref>,
        out: &OutputConstraints,
    ) -> Result<Option<(BgpRoute, BgpRoute)>, AnalysisError> {
        use clarify_netconfig::RouteMapSet;
        let map = cfg
            .route_map(name)
            .ok_or_else(|| {
                AnalysisError::Config(clarify_netconfig::ConfigError::NotFound {
                    kind: "route-map",
                    name: name.to_string(),
                })
            })?
            .clone();
        let (fires, _) = map.fire_sets(self, cfg)?;
        let mut region = Ref::FALSE;
        for (stanza, &fire) in map.stanzas.iter().zip(&fires) {
            if stanza.action != Action::Permit {
                continue;
            }
            // Last assignment wins within a stanza.
            let mut set_metric = None;
            let mut set_lp = None;
            let mut set_tag = None;
            for s in &stanza.sets {
                match s {
                    RouteMapSet::Metric(v) => set_metric = Some(*v),
                    RouteMapSet::LocalPref(v) => set_lp = Some(*v),
                    RouteMapSet::Tag(v) => set_tag = Some(*v),
                    _ => {}
                }
            }
            let mut r = fire;
            for (want, assigned, field) in [
                (out.metric, set_metric, Field::Metric),
                (out.local_pref, set_lp, Field::LocalPref),
                (out.tag, set_tag, Field::Tag),
            ] {
                let Some(w) = want else { continue };
                match assigned {
                    Some(v) if v == w => {}
                    Some(_) => {
                        r = Ref::FALSE;
                    }
                    None => {
                        // Output equals input: constrain the input field.
                        let eq = self.field_eq(field, w)?;
                        r = self.mgr.and(r, eq);
                    }
                }
                if r == Ref::FALSE {
                    break;
                }
            }
            region = self.mgr.or(region, r);
        }
        if let Some(c) = input_constraint {
            region = self.mgr.and(region, c);
        }
        let Some(input) = self.witness(region)? else {
            return Ok(None);
        };
        let verdict = cfg.eval_route_map(name, &input)?;
        // `region` is an OR of permit-stanza fire regions, so any witness
        // drawn from it must evaluate to a permit; a deny here means the
        // symbolic encoding diverged from concrete evaluation, which we
        // surface as an error rather than panicking the caller.
        let output = verdict
            .route()
            .ok_or(AnalysisError::InvariantViolated(
                "witness from a permit-only region evaluated to deny",
            ))?
            .clone();
        debug_assert!(out.metric.is_none_or(|w| output.metric == w));
        debug_assert!(out.local_pref.is_none_or(|w| output.local_pref == w));
        debug_assert!(out.tag.is_none_or(|w| output.tag == w));
        Ok(Some((input, output)))
    }
}
