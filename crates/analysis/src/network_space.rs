//! Symbolic policy *transfer functions* for cross-device analysis.
//!
//! [`NetworkSpace`] wraps a [`RouteSpace`] with the image computation the
//! network linter needs: given the set of routes arriving at a policy, what
//! set can leave it? A route-map is a first-match cascade whose permit
//! stanzas rewrite attributes, so the image is the union, over permit
//! stanzas, of the stanza's `set` clauses applied to `fire ∩ input`. Each
//! `set` is an existential quantification of the written field followed by
//! re-constraining it — exact for the encoded fields (local-preference,
//! metric, tag, community atoms) and the identity for unencoded ones
//! (weight, next hop).
//!
//! Crossing an AS boundary additionally resets LOCAL_PREF to 100 and
//! prepends the sender's ASN; [`NetworkSpace::cross_as_normalize`] models
//! this by pinning LOCAL_PREF and forgetting the AS-path atom (any valid
//! path), which over-approximates the prepend without tracking per-hop
//! path strings. All transfers are monotone in their input, so composing
//! them over topology edges yields sound over-approximations of what the
//! BGP fixed point can carry (see DESIGN.md §10).

use std::collections::HashMap;

use clarify_bdd::Ref;
use clarify_netconfig::{Action, Config, RouteMap, RouteMapSet};
use clarify_nettypes::{BgpRoute, Prefix};

use crate::error::AnalysisError;
use crate::incr::FireSetCache;
use crate::route_space::{Field, RouteSpace};

/// A [`RouteSpace`] plus private [`FireSetCache`]s, extended with policy
/// transfer functions. One instance serves a whole topology; build it from
/// **every** config in the network so all policies share one atom
/// environment.
pub struct NetworkSpace {
    space: RouteSpace,
    /// One cache per salted map hash. Same-named maps on different routers
    /// share a [`RuleId`](clarify_netconfig::RuleId) but are different
    /// objects; a cache each keeps the per-object generation bound from
    /// evicting one router's map for another's.
    caches: HashMap<u64, FireSetCache>,
}

impl NetworkSpace {
    /// Builds the space over all configurations of a topology.
    pub fn new(configs: &[&Config]) -> Result<NetworkSpace, AnalysisError> {
        clarify_obs::global()
            .counter("analysis.network_space_builds")
            .incr();
        Ok(NetworkSpace {
            space: RouteSpace::new(configs)?,
            caches: HashMap::new(),
        })
    }

    /// The underlying route space (for witnesses, permit sets, manager).
    pub fn space_mut(&mut self) -> &mut RouteSpace {
        &mut self.space
    }

    /// The set of assignments that decode to well-formed routes.
    pub fn valid(&self) -> Ref {
        self.space.valid()
    }

    /// First-match firing regions of `map`, through the internal cache.
    ///
    /// `hash` keys the cache together with the map's name. Because one
    /// space serves **many configs**, same-named maps on different routers
    /// collide on name — and an object hash from
    /// [`Config::object_hashes`](clarify_netconfig::Config::object_hashes)
    /// covers only the map's own text, not the lists it references. The
    /// caller must therefore mix a per-config discriminator (e.g. a hash
    /// of the whole config source) into `hash` before passing it here.
    pub fn fire_sets(
        &mut self,
        cfg: &Config,
        map: &RouteMap,
        hash: u64,
    ) -> Result<crate::incr::FireSets, AnalysisError> {
        let cache = self.caches.entry(hash).or_default();
        crate::incr::fire_sets_cached(&mut self.space, cache, cfg, map, hash)
    }

    /// The region a route-map permits (union of permit firing regions),
    /// using the internal cache.
    pub fn permit_region(
        &mut self,
        cfg: &Config,
        map: &RouteMap,
        hash: u64,
    ) -> Result<Ref, AnalysisError> {
        let sets = self.fire_sets(cfg, map, hash)?;
        let permits: Vec<Ref> = map
            .stanzas
            .iter()
            .zip(&sets.fires)
            .filter(|(s, _)| s.action == Action::Permit)
            .map(|(_, &f)| f)
            .collect();
        Ok(self.space.mgr.or_all(permits))
    }

    /// The image of `input` under the route-map: the set of routes that
    /// can emerge from some permit stanza, with that stanza's rewrites
    /// applied. Monotone in `input`; `⊥` in yields `⊥` out.
    pub fn transfer(
        &mut self,
        cfg: &Config,
        map: &RouteMap,
        hash: u64,
        input: Ref,
    ) -> Result<Ref, AnalysisError> {
        let _span = clarify_obs::span!("network_transfer");
        clarify_obs::global().counter("analysis.transfers").incr();
        let sets = self.fire_sets(cfg, map, hash)?;
        let mut out = Ref::FALSE;
        for (stanza, &fire) in map.stanzas.iter().zip(&sets.fires) {
            if stanza.action != Action::Permit {
                continue;
            }
            let taken = self.space.mgr.and(fire, input);
            if taken == Ref::FALSE {
                continue;
            }
            let written = self.apply_sets(taken, &stanza.sets)?;
            out = self.space.mgr.or(out, written);
        }
        Ok(out)
    }

    /// Applies a stanza's `set` clauses, in order, to a region. Later
    /// writes to the same field win, exactly as the concrete evaluator's
    /// [`Config::apply_sets`](clarify_netconfig::Config) does.
    fn apply_sets(&mut self, region: Ref, sets: &[RouteMapSet]) -> Result<Ref, AnalysisError> {
        let mut r = region;
        for s in sets {
            r = match s {
                RouteMapSet::Metric(v) => self.assign(r, Field::Metric, Field::Metric.value(*v)?),
                RouteMapSet::LocalPref(v) => {
                    self.assign(r, Field::LocalPref, Field::LocalPref.value(*v)?)
                }
                RouteMapSet::Tag(v) => self.assign(r, Field::Tag, Field::Tag.value(*v)?),
                // Weight and next hop are not encoded in the space, so the
                // assignment is the identity on the symbolic region.
                RouteMapSet::Weight(_) | RouteMapSet::NextHop(_) => r,
                RouteMapSet::CommunityAdd(cs) => {
                    let mut acc = r;
                    for c in cs {
                        let atom =
                            self.space
                                .comm_atoms
                                .classify(&c.subject())
                                .ok_or_else(|| AnalysisError::OutsideUniverse {
                                    kind: "community",
                                    value: c.subject(),
                                })?;
                        let var = self.space.comm_vars[atom];
                        acc = self.space.mgr.exists(acc, &[var]);
                        let lit = self.space.mgr.var(var);
                        acc = self.space.mgr.and(acc, lit);
                    }
                    acc
                }
                RouteMapSet::CommunityReplace(cs) => {
                    let mut member = vec![false; self.space.comm_vars.len()];
                    for c in cs {
                        let atom =
                            self.space
                                .comm_atoms
                                .classify(&c.subject())
                                .ok_or_else(|| AnalysisError::OutsideUniverse {
                                    kind: "community",
                                    value: c.subject(),
                                })?;
                        member[atom] = true;
                    }
                    let vars = self.space.comm_vars.clone();
                    let mut acc = self.space.mgr.exists(r, &vars);
                    for (i, &v) in vars.iter().enumerate() {
                        let lit = self.space.mgr.literal(v, member[i]);
                        acc = self.space.mgr.and(acc, lit);
                    }
                    acc
                }
            };
        }
        Ok(r)
    }

    fn assign(&mut self, region: Ref, field: Field, value: u64) -> Ref {
        let vars = self.space.field_vars(field).to_vec();
        let forgotten = self.space.mgr.exists(region, &vars);
        let eq = self.space.mgr.eq_const(&vars, value);
        self.space.mgr.and(forgotten, eq)
    }

    /// What an eBGP receiver sees of `region` before its import policy
    /// runs: LOCAL_PREF resets to 100 and the AS path gains the sender's
    /// ASN — modelled by forgetting the path atom entirely (any valid
    /// path), a sound over-approximation of the prepend.
    pub fn cross_as_normalize(&mut self, region: Ref) -> Ref {
        let r = self.assign(region, Field::LocalPref, 100);
        let path_vars = self.space.path_vars.clone();
        let r = self.space.mgr.exists(r, &path_vars);
        let valid = self.space.valid();
        self.space.mgr.and(r, valid)
    }

    /// The exact region of locally originated routes: one point per
    /// prefix, with the simulator's origination defaults.
    pub fn origination_region(&mut self, prefixes: &[Prefix]) -> Result<Ref, AnalysisError> {
        let mut acc = Ref::FALSE;
        for p in prefixes {
            let point = self.space.encode_route(&BgpRoute::with_defaults(*p))?;
            acc = self.space.mgr.or(acc, point);
        }
        Ok(acc)
    }

    /// Drops the manager's memoization tables between work items — and,
    /// since the route space arms auto-GC, lets the kernel collect
    /// unrooted nodes (or re-sift a degraded order) here. Cached fire-set
    /// `Ref`s stay valid because the internal [`FireSetCache`]s root every
    /// entry; any other ref held across this call does not survive.
    pub fn clear_op_caches(&mut self) {
        self.space.manager().clear_op_caches();
    }
}
