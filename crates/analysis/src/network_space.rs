//! Symbolic policy *transfer functions* for cross-device analysis.
//!
//! [`NetworkSpace`] wraps a [`RouteSpace`] with the image computation the
//! network linter needs: given the set of routes arriving at a policy, what
//! set can leave it? A route-map is a first-match cascade whose permit
//! stanzas rewrite attributes, so the image is the union, over permit
//! stanzas, of the stanza's net `set` effect applied to `fire ∩ input`.
//! Each written field is existentially quantified once and re-constrained
//! to its final value — exact for the encoded fields (local-preference,
//! metric, tag, community atoms) and the identity for unencoded ones
//! (weight, next hop). A value past a field's 16 bits only forgets the
//! field, an over-approximation.
//!
//! Crossing an AS boundary additionally resets LOCAL_PREF to 100 and
//! prepends the sender's ASN; [`NetworkSpace::cross_as_normalize`] models
//! this by pinning LOCAL_PREF and forgetting the AS-path atom (any valid
//! path), which over-approximates the prepend without tracking per-hop
//! path strings. All transfers are monotone in their input, so composing
//! them over topology edges yields sound over-approximations of what the
//! BGP fixed point can carry (see DESIGN.md §10).

use std::collections::HashMap;

use clarify_bdd::{Ref, Root};
use clarify_netconfig::{Action, Config, RouteMap, RouteMapSet};
use clarify_nettypes::{BgpRoute, Prefix};

use crate::effect::{CommunityEffect, SetEffect};
use crate::error::AnalysisError;
use crate::first_match::{permits, FirstMatchPolicy};
use crate::route_space::{Field, RouteSpace};

/// A [`RouteSpace`] plus a memo of each map's fire sets, extended with
/// policy transfer functions. One instance serves a whole topology for one
/// run; build it from **every** config in the network so all policies
/// share one atom environment.
pub struct NetworkSpace {
    space: RouteSpace,
    /// Per map, keyed by a hash identifying its config and its name, its
    /// fire sets, rooted so they survive the manager's collections.
    /// Same-named maps in different configs share a name but are different
    /// objects, so the name alone would not do.
    fires: HashMap<(u64, String), Vec<Root>>,
}

impl NetworkSpace {
    /// Builds the space over all configurations of a topology.
    pub fn new(configs: &[&Config]) -> Result<NetworkSpace, AnalysisError> {
        clarify_obs::global()
            .counter("analysis.network_space_builds")
            .incr();
        Ok(NetworkSpace {
            space: RouteSpace::new(configs)?,
            fires: HashMap::new(),
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

    /// First-match firing regions of `map`'s stanzas, built on the map's
    /// first use in the run and read from the memo after that.
    ///
    /// `hash` must identify the config `map` belongs to (e.g. a hash of
    /// the whole config source). One space serves **many configs**, so
    /// same-named maps in different configs collide on name, and an
    /// object hash from
    /// [`Config::object_hashes`](clarify_netconfig::Config::object_hashes)
    /// alone would not do: it covers only the map's own text, not the
    /// lists it references.
    pub fn fire_sets(
        &mut self,
        cfg: &Config,
        map: &RouteMap,
        hash: u64,
    ) -> Result<Vec<Ref>, AnalysisError> {
        let key = (hash, map.name.clone());
        if let Some(roots) = self.fires.get(&key) {
            return Ok(roots.iter().map(Root::as_ref).collect());
        }
        let matches = map.match_sets(&mut self.space, cfg)?;
        let (fires, _) = RouteMap::fire_sets(&mut self.space, &matches);
        let roots = fires.iter().map(|&f| self.space.mgr.protect(f)).collect();
        self.fires.insert(key, roots);
        Ok(fires)
    }

    /// The region a route-map permits (union of permit firing regions),
    /// from the memo.
    pub fn permit_region(
        &mut self,
        cfg: &Config,
        map: &RouteMap,
        hash: u64,
    ) -> Result<Ref, AnalysisError> {
        let fires = self.fire_sets(cfg, map, hash)?;
        let actions = map.stanzas.iter().map(|s| s.action);
        Ok(permits(&mut self.space.mgr, actions, &fires))
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
        let fires = self.fire_sets(cfg, map, hash)?;
        let mut out = Ref::FALSE;
        for (stanza, &fire) in map.stanzas.iter().zip(&fires) {
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

    /// Applies a stanza's net `set` effect to a region: each written field
    /// is forgotten and re-constrained once, and so are the community
    /// atoms. BDDs are canonical, so this is the region that applying the
    /// clauses in order, as the concrete evaluator's
    /// [`Config::apply_sets`](clarify_netconfig::Config) does, would give.
    fn apply_sets(&mut self, region: Ref, sets: &[RouteMapSet]) -> Result<Ref, AnalysisError> {
        let effect = SetEffect::of(sets);
        let mut r = region;
        for (field, value) in [
            (Field::Metric, effect.metric),
            (Field::LocalPref, effect.local_pref),
            (Field::Tag, effect.tag),
        ] {
            if let Some(v) = value {
                r = self.assign(r, field, v);
            }
        }
        // Weight and next hop are not encoded in the space, so writing
        // them is the identity on the symbolic region.
        let (written, replace) = match &effect.communities {
            CommunityEffect::Keep => return Ok(r),
            CommunityEffect::Add(cs) => (cs, false),
            CommunityEffect::Replace(cs) => (cs, true),
        };
        let mut member = vec![false; self.space.comm_vars.len()];
        for c in written {
            let atom = self
                .space
                .comm_atoms
                .classify(&c.subject())
                .ok_or_else(|| AnalysisError::OutsideUniverse {
                    kind: "community",
                    value: c.subject(),
                })?;
            member[atom] = true;
        }
        // A replace rewrites every atom; an add only the atoms it sets.
        let rewritten: Vec<(u32, bool)> = self
            .space
            .comm_vars
            .iter()
            .copied()
            .zip(member)
            .filter(|&(_, m)| replace || m)
            .collect();
        let vars: Vec<u32> = rewritten.iter().map(|&(v, _)| v).collect();
        r = self.space.mgr.exists(r, &vars);
        for (v, m) in rewritten {
            let lit = self.space.mgr.literal(v, m);
            r = self.space.mgr.and(r, lit);
        }
        Ok(r)
    }

    /// `region` with `field` rewritten to `value`. A value past the
    /// field's width is carried by no encoded route, so the field is only
    /// forgotten: the image over-approximates, which keeps the emptiness
    /// verdicts sound (DESIGN.md §10).
    fn assign(&mut self, region: Ref, field: Field, value: u32) -> Ref {
        let vars = self.space.field_vars(field).to_vec();
        let forgotten = self.space.mgr.exists(region, &vars);
        let Ok(value) = field.value(value) else {
            return forgotten;
        };
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
    /// unrooted nodes here. Memoised fire-set `Ref`s stay valid because
    /// the memo roots every one; any other ref held across this call does
    /// not survive.
    pub fn clear_op_caches(&mut self) {
        self.space.manager().clear_op_caches();
    }
}
