//! The symbolic route space: BDD variables for every matchable field of a
//! BGP route, plus encode/decode between [`BgpRoute`]s and BDD sets.

use std::collections::HashSet;
use std::sync::OnceLock;

use clarify_automata::{AtomSpace, Dfa, Regex};
use clarify_bdd::{Cube, Manager, Ref};
use clarify_netconfig::{
    fnv1a64, fnv1a64_combine, Action, AsPathList, CommunityList, Config, PrefixList, RouteMap,
    RouteMapMatch, RouteMapStanza,
};
use clarify_nettypes::{AsPath, BgpRoute, Community, Prefix, PrefixRange};

use crate::effect::SetEffect;
use crate::error::AnalysisError;
use crate::first_match::{encode_network, first_match, permits, FirstMatchPolicy};

/// All syntactically valid community subject strings: `N:M` with one to
/// five digits per half. It admits halves past 65535, which no community
/// has; [`RouteSpace::new`] deals with the atoms that hold only those.
const COMMUNITY_UNIVERSE: &str = "^[0-9][0-9]?[0-9]?[0-9]?[0-9]?:[0-9][0-9]?[0-9]?[0-9]?[0-9]?$";

/// One community half as [`Community`]'s `Display` writes it: 0 to 65535,
/// without leading zeros.
const COMMUNITY_HALF: &str =
    "(0|[1-9][0-9]?[0-9]?[0-9]?|[1-5][0-9][0-9][0-9][0-9]|6[0-4][0-9][0-9][0-9]|65[0-4][0-9][0-9]|655[0-2][0-9]|6553[0-5])";

/// All syntactically valid AS-path subject strings: possibly empty,
/// space-separated AS numbers of one to five digits.
const AS_PATH_UNIVERSE: &str =
    "^([0-9][0-9]?[0-9]?[0-9]?[0-9]?( [0-9][0-9]?[0-9]?[0-9]?[0-9]?)*)?$";

/// The automaton of a constant pattern, compiled on the first call for
/// its `cell` and shared by every later route space in the process.
fn constant(cell: &'static OnceLock<Regex>, pattern: &str) -> &'static Dfa {
    cell.get_or_init(|| Regex::parse(pattern).expect("constant regex is valid"))
        .dfa()
}

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

/// The regexes that define a route space's atoms: the community and the
/// AS-path patterns of `configs`, each deduplicated in first-seen order
/// (configurations in order, lists by name, entries in order).
/// [`RouteSpace::new`] builds its atoms from them and [`atom_env_hash`]
/// hashes them, so the two agree on what changes a space's layout.
pub(crate) fn atom_patterns<'a>(configs: &[&'a Config]) -> [Vec<&'a Regex>; 2] {
    fn dedup<'a>(regexes: impl Iterator<Item = &'a Regex>) -> Vec<&'a Regex> {
        let mut seen = HashSet::new();
        regexes.filter(|r| seen.insert(r.pattern())).collect()
    }
    let comm = configs
        .iter()
        .flat_map(|c| c.community_lists.values())
        .flat_map(|l| &l.entries);
    let path = configs
        .iter()
        .flat_map(|c| c.as_path_lists.values())
        .flat_map(|l| &l.entries);
    [dedup(comm.map(|e| &e.regex)), dedup(path.map(|e| &e.regex))]
}

/// Hash of the **atom environment** a [`RouteSpace`] would build for the
/// given configurations: the deduplicated community and AS-path regex
/// patterns it builds its atoms from, in order. Two configurations with
/// equal atom-env hashes produce route spaces with identical variable
/// layouts and atom witnesses, so route-map findings (including decoded
/// witnesses) carry over verbatim; when the hash changes, every route-map
/// analysis is dirty, because atom witnesses — and with them, rendered
/// diagnostics — may shift even for untouched maps.
pub fn atom_env_hash(configs: &[&Config]) -> u64 {
    let [comm, path] = atom_patterns(configs);
    let fold = |h, pats: Vec<&Regex>| {
        let hashes = pats.iter().map(|r| fnv1a64(r.pattern().as_bytes()));
        hashes.fold(h, fnv1a64_combine)
    };
    let h = fold(fnv1a64(b"atom-env/v1"), comm);
    fold(fnv1a64_combine(h, 0xa5a5_a5a5_a5a5_a5a5), path) // comm/path separator
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
    prefix_vars: Vec<u32>,
    plen_vars: Vec<u32>,
    lp_vars: Vec<u32>,
    metric_vars: Vec<u32>,
    tag_vars: Vec<u32>,
    pub(crate) comm_vars: Vec<u32>,
    /// Per community atom, the community a decoded route carries for it;
    /// `None` for an atom that holds no community (excluded from `valid`).
    comm_witnesses: Vec<Option<Community>>,
    pub(crate) path_vars: Vec<u32>,
    valid: Ref,
    /// Pins `valid` across the manager's collections for the lifetime of
    /// the space (never unprotected — the safe failure mode).
    _valid_root: clarify_bdd::Root,
}

/// A route space's community and AS-path atoms, handed over by
/// [`RouteSpace::into_atoms`] so that the next space is built from them
/// ([`RouteSpace::with_atoms`]) while the manager goes.
#[derive(Debug)]
pub struct RouteAtoms {
    comm: AtomSpace,
    path: AtomSpace,
}

/// The atoms of `patterns`: `prev` [extended](AtomSpace::extend) by them
/// when they hold all of its patterns, else built from `universe`.
fn atoms(
    prev: Option<AtomSpace>,
    universe: &Dfa,
    patterns: &[&Regex],
) -> Result<AtomSpace, AnalysisError> {
    let atoms = match prev.filter(|atoms| atoms.extends_to(patterns)) {
        Some(prev) => prev.extend(patterns),
        None => {
            clarify_obs::global()
                .counter("analysis.atom_space_builds")
                .incr();
            AtomSpace::build(universe, patterns)
        }
    };
    atoms.ok_or(AnalysisError::AtomLimitExceeded)
}

impl RouteSpace {
    /// Builds the space for analyses over the given configurations.
    pub fn new(configs: &[&Config]) -> Result<RouteSpace, AnalysisError> {
        RouteSpace::with_atoms(configs, None)
    }

    /// [`new`](RouteSpace::new), with each kind of atoms (community,
    /// AS-path) extended from `prev`'s when the configurations still hold
    /// all of its patterns, in any order: the space is the one `new`
    /// builds, and only the patterns `prev` lacks are classified.
    pub fn with_atoms(
        configs: &[&Config],
        prev: Option<RouteAtoms>,
    ) -> Result<RouteSpace, AnalysisError> {
        let _span = clarify_obs::span!("route_space_build");
        clarify_obs::global()
            .counter("analysis.route_space_builds")
            .incr();
        static COMM_UNIVERSE: OnceLock<Regex> = OnceLock::new();
        static PATH_UNIVERSE: OnceLock<Regex> = OnceLock::new();
        static COMM_VALUES: OnceLock<Regex> = OnceLock::new();
        let [comm_patterns, path_patterns] = atom_patterns(configs);
        let (prev_comm, prev_path) = prev.map(|p| (p.comm, p.path)).unzip();
        let comm_universe = constant(&COMM_UNIVERSE, COMMUNITY_UNIVERSE);
        let path_universe = constant(&PATH_UNIVERSE, AS_PATH_UNIVERSE);
        let comm_atoms = atoms(prev_comm, comm_universe, &comm_patterns)?;
        let path_atoms = atoms(prev_path, path_universe, &path_patterns)?;
        // An atom's shortest witness can have a half past 65535. Such an
        // atom takes its witness from the communities it holds instead,
        // and one that holds none is excluded from `valid` below. Atoms
        // whose witness parses need no automata work.
        let comm_witnesses: Vec<Option<Community>> = (0..comm_atoms.len())
            .map(|i| {
                comm_atoms.witness(i).parse().ok().or_else(|| {
                    let values = constant(
                        &COMM_VALUES,
                        &format!("^{COMMUNITY_HALF}:{COMMUNITY_HALF}$"),
                    );
                    let w = comm_atoms.atom(i).intersect(values).witness()?;
                    Some(w.parse().expect("the community values parse"))
                })
            })
            .collect();

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
        for (&v, w) in comm_vars.iter().zip(&comm_witnesses) {
            if w.is_none() {
                let absent = mgr.literal(v, false);
                valid = mgr.and(valid, absent);
            }
        }
        // Pin the validity predicate and let the kernel collect everything
        // unrooted at the clear_op_caches seams between work items.
        let valid_root = mgr.protect(valid);
        mgr.set_auto_gc(true);

        Ok(RouteSpace {
            mgr,
            comm_atoms,
            path_atoms,
            prefix_vars,
            plen_vars,
            lp_vars,
            metric_vars,
            tag_vars,
            comm_vars,
            comm_witnesses,
            path_vars,
            valid,
            _valid_root: valid_root,
        })
    }

    /// Hands over the space's atoms for the next space to be built from;
    /// the manager and everything encoded in it are dropped.
    pub fn into_atoms(self) -> RouteAtoms {
        RouteAtoms {
            comm: self.comm_atoms,
            path: self.path_atoms,
        }
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
        let entries = list.entries.iter();
        let matches: Vec<Ref> = entries
            .clone()
            .map(|e| self.encode_prefix_range(&e.range))
            .collect();
        Ok(self.list_permits(entries.map(|e| e.action), &matches))
    }

    /// What a list whose entries have `actions` and `matches` permits of
    /// every route: first match wins, default deny.
    fn list_permits(&mut self, actions: impl Iterator<Item = Action>, matches: &[Ref]) -> Ref {
        let (fires, _) = first_match(&mut self.mgr, Ref::TRUE, matches);
        permits(&mut self.mgr, actions, &fires)
    }

    fn pattern_set(&mut self, kind: &'static str, pattern: &str) -> Result<Ref, AnalysisError> {
        let unknown = || AnalysisError::UnknownPattern(pattern.to_string());
        match kind {
            "community" => {
                let idx = self.comm_atoms.position(pattern).ok_or_else(unknown)?;
                let members: Vec<usize> = self.comm_atoms.members_of(idx).to_vec();
                let lits: Vec<Ref> = members
                    .iter()
                    .map(|&a| self.mgr.var(self.comm_vars[a]))
                    .collect();
                Ok(self.mgr.or_all(lits))
            }
            "as-path" => {
                let idx = self.path_atoms.position(pattern).ok_or_else(unknown)?;
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
        let entries = list.entries.iter();
        let matches = entries
            .clone()
            .map(|e| self.pattern_set("community", e.regex.pattern()))
            .collect::<Result<Vec<Ref>, _>>()?;
        Ok(self.list_permits(entries.map(|e| e.action), &matches))
    }

    /// Encodes an AS-path list's permit set.
    pub fn encode_as_path_list(&mut self, list: &AsPathList) -> Result<Ref, AnalysisError> {
        let entries = list.entries.iter();
        let matches = entries
            .clone()
            .map(|e| self.pattern_set("as-path", e.regex.pattern()))
            .collect::<Result<Vec<Ref>, _>>()?;
        Ok(self.list_permits(entries.map(|e| e.action), &matches))
    }

    /// Encodes one match clause.
    pub fn encode_match(&mut self, cfg: &Config, m: &RouteMapMatch) -> Result<Ref, AnalysisError> {
        Ok(match m {
            RouteMapMatch::PrefixList(names) => {
                let mut acc = Ref::FALSE;
                for n in names {
                    let enc = self.encode_prefix_list(cfg.prefix_list(n)?)?;
                    acc = self.mgr.or(acc, enc);
                }
                acc
            }
            RouteMapMatch::Community(names) => {
                let mut acc = Ref::FALSE;
                for n in names {
                    let enc = self.encode_community_list(cfg.community_list(n)?)?;
                    acc = self.mgr.or(acc, enc);
                }
                acc
            }
            RouteMapMatch::AsPath(names) => {
                let mut acc = Ref::FALSE;
                for n in names {
                    let enc = self.encode_as_path_list(cfg.as_path_list(n)?)?;
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

        for (i, (&v, &w)) in self.comm_vars.iter().zip(&self.comm_witnesses).enumerate() {
            if cube.value_or_false(v) {
                let c = w.ok_or_else(|| AnalysisError::OutsideUniverse {
                    kind: "community witness",
                    value: self.comm_atoms.witness(i).to_string(),
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
        let map = cfg
            .route_map(name)
            .ok_or_else(|| {
                AnalysisError::Config(clarify_netconfig::ConfigError::NotFound {
                    kind: "route-map",
                    name: name.to_string(),
                })
            })?
            .clone();
        let matches = map.match_sets(self, cfg)?;
        let (fires, _) = RouteMap::fire_sets(self, &matches);
        let mut region = Ref::FALSE;
        for (stanza, &fire) in map.stanzas.iter().zip(&fires) {
            if stanza.action != Action::Permit {
                continue;
            }
            let effect = SetEffect::of(&stanza.sets);
            let mut r = fire;
            for (want, assigned, field) in [
                (out.metric, effect.metric, Field::Metric),
                (out.local_pref, effect.local_pref, Field::LocalPref),
                (out.tag, effect.tag, Field::Tag),
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
