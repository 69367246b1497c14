//! Route-map stanza insertion: the paper's primary case, over the symbolic
//! route space.

use clarify_analysis::{compare_route_policies, stanza_pair_diff, RouteDiff, RouteSpace};
use clarify_bdd::Ref;
use clarify_netconfig::{
    insert_route_map_stanza, Config, ConfigError, InsertReport, RouteMap, RouteMapStanza,
    RouteMapVerdict,
};
use clarify_nettypes::BgpRoute;

use crate::disambiguator::{DisambiguationResult, Disambiguator, InsertionPlan, RuleKind};
use crate::error::ClarifyError;
use crate::oracle::{Choice, UserOracle};

/// One question to the user: a concrete route and the two behaviours it
/// would get, exactly the paper's OPTION 1 / OPTION 2 exchange.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DisambiguationQuestion {
    /// The differential input route.
    pub route: BgpRoute,
    /// Behaviour if the new stanza is placed *above* the pivot stanza.
    pub option_first: RouteMapVerdict,
    /// Behaviour if the new stanza is placed *below* the pivot stanza.
    pub option_second: RouteMapVerdict,
    /// Sequence number of the pivot stanza in the original policy.
    pub pivot_seq: u32,
}

impl std::fmt::Display for DisambiguationQuestion {
    /// Renders in the paper's §2.2 format.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "{}", self.route)?;
        writeln!(f)?;
        writeln!(f, "OPTION 1:")?;
        writeln!(f, "{}", render_verdict(&self.option_first))?;
        writeln!(f, "OPTION 2:")?;
        write!(f, "{}", render_verdict(&self.option_second))
    }
}

fn render_verdict(v: &RouteMapVerdict) -> String {
    match v {
        RouteMapVerdict::Permit { route, .. } => format!("ACTION: permit\n{route}"),
        RouteMapVerdict::DenyBy { .. } | RouteMapVerdict::ImplicitDeny => {
            "ACTION: deny".to_string()
        }
    }
}

/// Inserting the single stanza of a snippet route-map into a base
/// route-map.
#[derive(Clone, Debug)]
pub struct RouteMapInsertion {
    base: Config,
    snippet: Config,
    snippet_map: String,
    target: RouteMap,
    stanza: RouteMapStanza,
}

impl RouteMapInsertion {
    /// The insertion of `snippet`'s route-map `snippet_map` (which must
    /// have exactly one stanza) into `base`'s route-map `map`.
    pub fn new(
        base: &Config,
        map: &str,
        snippet: &Config,
        snippet_map: &str,
    ) -> Result<RouteMapInsertion, ClarifyError> {
        let not_found = |name: &str| ConfigError::NotFound {
            kind: "route-map",
            name: name.to_string(),
        };
        let target = base.route_map(map).ok_or_else(|| not_found(map))?;
        let source = snippet
            .route_map(snippet_map)
            .ok_or_else(|| not_found(snippet_map))?;
        let [stanza] = source.stanzas.as_slice() else {
            return Err(ConfigError::InvalidEdit(format!(
                "snippet route-map '{snippet_map}' must have exactly one stanza"
            ))
            .into());
        };
        Ok(RouteMapInsertion {
            base: base.clone(),
            snippet: snippet.clone(),
            snippet_map: snippet_map.to_string(),
            target: target.clone(),
            stanza: stanza.clone(),
        })
    }

    /// The target route-map in a configuration
    /// [`insert`](RuleKind::insert) produced, which keeps it.
    fn placed<'c>(&self, cfg: &'c Config) -> &'c RouteMap {
        cfg.route_map(&self.target.name)
            .expect("insert_route_map_stanza preserves the route-map it inserted into")
    }

    /// The question a difference between the two placements around
    /// `pivot` puts to the user.
    fn ask(&self, d: RouteDiff, pivot: usize) -> DisambiguationQuestion {
        DisambiguationQuestion {
            route: d.route,
            option_first: d.a,
            option_second: d.b,
            pivot_seq: self.target.stanzas[pivot].seq,
        }
    }
}

impl RuleKind for RouteMapInsertion {
    type Space = RouteSpace;
    type Policy = RouteMap;
    type Question = DisambiguationQuestion;
    type Report = InsertReport;

    fn base(&self) -> &Config {
        &self.base
    }

    fn target(&self) -> &RouteMap {
        &self.target
    }

    fn new_space(&self) -> Result<RouteSpace, ClarifyError> {
        Ok(RouteSpace::new(&[&self.base, &self.snippet])?)
    }

    fn new_match(&self, space: &mut RouteSpace) -> Result<Ref, ClarifyError> {
        let valid = space.valid();
        let raw = space.encode_stanza_match(&self.snippet, &self.stanza)?;
        Ok(space.manager().and(raw, valid))
    }

    fn question(
        &self,
        space: &mut RouteSpace,
        above: &Config,
        below: &Config,
        pivot: usize,
    ) -> Result<Option<DisambiguationQuestion>, ClarifyError> {
        let map = &self.target.name;
        let diffs = compare_route_policies(space, above, map, below, map, 1)?;
        Ok(diffs.into_iter().next().map(|d| self.ask(d, pivot)))
    }

    /// The new stanza at `pivot` in `above` against stanza `pivot` at
    /// `pivot` in `below`, on `region`.
    fn pivot_question(
        &self,
        space: &mut RouteSpace,
        region: Ref,
        pivot: usize,
    ) -> Result<Option<DisambiguationQuestion>, ClarifyError> {
        let (above, _) = self.insert(pivot)?;
        let (below, _) = self.insert(pivot + 1)?;
        let map = &self.target.name;
        let new = &self.placed(&above).stanzas[pivot];
        let old = &self.placed(&below).stanzas[pivot];
        let diff = stanza_pair_diff(space, region, Some(new), Some(old), |route| {
            Ok((
                above.eval_route_map(map, route)?,
                below.eval_route_map(map, route)?,
            ))
        })?;
        Ok(diff.map(|d| self.ask(d, pivot)))
    }

    fn insert(&self, position: usize) -> Result<(Config, InsertReport), ClarifyError> {
        Ok(insert_route_map_stanza(
            &self.base,
            &self.target.name,
            &self.snippet,
            &self.snippet_map,
            position,
        )?)
    }

    fn pivot(question: &DisambiguationQuestion) -> u64 {
        u64::from(question.pivot_seq)
    }
}

impl Disambiguator {
    /// Inserts the single stanza of `snippet`'s `snippet_map` into `base`'s
    /// route-map `map`, interacting with `oracle` to pin down the intent.
    pub fn insert(
        &self,
        base: &Config,
        map: &str,
        snippet: &Config,
        snippet_map: &str,
        oracle: &mut dyn UserOracle,
    ) -> Result<DisambiguationResult, ClarifyError> {
        let kind = RouteMapInsertion::new(base, map, snippet, snippet_map)?;
        self.disambiguate(kind, oracle)
    }

    /// [`Disambiguator::plan`] for a route-map insertion, in a
    /// caller-owned [`RouteSpace`] built over an atom environment covering
    /// both `base` and `snippet` (e.g. `RouteSpace::new(&[base,
    /// snippet])`, or any config set with an equal
    /// [`atom_env_hash`](clarify_analysis::atom_env_hash)).
    pub fn plan_in_space(
        &self,
        space: &mut RouteSpace,
        base: &Config,
        map: &str,
        snippet: &Config,
        snippet_map: &str,
    ) -> Result<InsertionPlan, ClarifyError> {
        self.plan(
            space,
            RouteMapInsertion::new(base, map, snippet, snippet_map)?,
        )
    }
}

/// Answers from a ground-truth configuration: the desired final policy.
/// Used by the evaluation harness — it plays a user who knows exactly what
/// they want and always answers consistently.
pub struct IntentOracle<'a> {
    /// The configuration holding the intended policy.
    pub intended: &'a Config,
    /// Name of the intended route-map.
    pub map: &'a str,
}

impl<'a> IntentOracle<'a> {
    /// Creates the oracle.
    pub fn new(intended: &'a Config, map: &'a str) -> Self {
        IntentOracle { intended, map }
    }
}

impl UserOracle for IntentOracle<'_> {
    fn choose(&mut self, q: &DisambiguationQuestion) -> Result<Choice, ClarifyError> {
        let want = self
            .intended
            .eval_route_map(self.map, &q.route)
            .map_err(ClarifyError::Config)?;
        if want.same_behaviour(&q.option_first) {
            Ok(Choice::First)
        } else if want.same_behaviour(&q.option_second) {
            Ok(Choice::Second)
        } else {
            // Neither option matches the intent: the update cannot be
            // realized by inserting this snippet anywhere (condition
            // violation); surface it with the example route.
            Err(ClarifyError::NoValidInsertion {
                witness: Box::new(q.route.clone()),
            })
        }
    }
}

/// Checks that the final configuration implements the intended policy
/// everywhere; returns [`ClarifyError::NoValidInsertion`] with a witness
/// route otherwise. The evaluation harness runs this after every insertion
/// to confirm the disambiguator converged on the user's intent.
pub fn verify_against_intent(
    final_cfg: &Config,
    map: &str,
    intended: &Config,
    intended_map: &str,
) -> Result<(), ClarifyError> {
    let mut space = RouteSpace::new(&[final_cfg, intended])?;
    let diffs = compare_route_policies(&mut space, final_cfg, map, intended, intended_map, 1)?;
    match diffs.into_iter().next() {
        None => Ok(()),
        Some(d) => Err(ClarifyError::NoValidInsertion {
            witness: Box::new(d.route),
        }),
    }
}
