//! ACL entry insertion, over the packet space. ACLs are the paper's
//! second first-class policy kind ("updates to routing policy
//! (route-maps) and access control (ACLs)").

use clarify_analysis::{compare_filters, PacketSpace};
use clarify_bdd::Ref;
use clarify_netconfig::{insert_acl_entry, Acl, AclEntry, AclVerdict, Config, ConfigError};
use clarify_nettypes::Packet;

use crate::disambiguator::{
    DisambiguationResult, Disambiguator, InsertionPlan, PlacementStrategy, PlanStep, RuleKind,
};
use crate::error::ClarifyError;
use crate::oracle::{Choice, UserOracle};

/// The ACL instantiation of [`InsertionPlan`].
pub type AclInsertionPlan = InsertionPlan<AclInsertion>;
/// The ACL instantiation of [`PlanStep`].
pub type AclPlanStep<'a> = PlanStep<'a, AclQuestion>;
/// The ACL instantiation of [`DisambiguationResult`].
pub type AclDisambiguationResult = DisambiguationResult<AclInsertion>;

/// One question to the user: a concrete packet and the action it would
/// get under each placement.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AclQuestion {
    /// The differential packet.
    pub packet: Packet,
    /// Verdict if the new entry is placed *above* the pivot entry.
    pub option_first: AclVerdict,
    /// Verdict if the new entry is placed *below* the pivot entry.
    pub option_second: AclVerdict,
    /// Zero-based index of the pivot entry in the original ACL.
    pub pivot_index: usize,
}

impl std::fmt::Display for AclQuestion {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "Packet: {}", self.packet)?;
        writeln!(f)?;
        writeln!(f, "OPTION 1:")?;
        writeln!(f, "ACTION: {}", self.option_first.action)?;
        writeln!(f, "OPTION 2:")?;
        write!(f, "ACTION: {}", self.option_second.action)
    }
}

/// Inserting one entry into a base ACL.
#[derive(Clone, Debug)]
pub struct AclInsertion {
    base: Config,
    entry: AclEntry,
    target: Acl,
}

impl AclInsertion {
    /// The insertion of `entry` into `base`'s ACL `acl_name`.
    pub fn new(base: &Config, acl_name: &str, entry: &AclEntry) -> Result<Self, ClarifyError> {
        let target = base.acl(acl_name).ok_or(ConfigError::NotFound {
            kind: "access-list",
            name: acl_name.to_string(),
        })?;
        Ok(AclInsertion {
            base: base.clone(),
            entry: entry.clone(),
            target: target.clone(),
        })
    }

    /// The target ACL in a configuration [`insert`](RuleKind::insert)
    /// produced, which keeps it.
    fn placed<'c>(&self, cfg: &'c Config) -> &'c Acl {
        cfg.acl(&self.target.name)
            .expect("insert_acl_entry preserves the ACL it inserted into")
    }
}

impl RuleKind for AclInsertion {
    type Space = PacketSpace;
    type Policy = Acl;
    type Question = AclQuestion;
    type Report = ();

    fn base(&self) -> &Config {
        &self.base
    }

    fn target(&self) -> &Acl {
        &self.target
    }

    fn new_space(&self) -> Result<PacketSpace, ClarifyError> {
        Ok(PacketSpace::new())
    }

    fn new_match(&self, space: &mut PacketSpace) -> Result<Ref, ClarifyError> {
        let valid = space.valid();
        let raw = space.encode_entry(&self.entry);
        Ok(space.manager().and(raw, valid))
    }

    fn question(
        &self,
        space: &mut PacketSpace,
        above: &Config,
        below: &Config,
        pivot: usize,
    ) -> Result<Option<AclQuestion>, ClarifyError> {
        let diffs = compare_filters(space, self.placed(above), self.placed(below), 1)?;
        Ok(diffs.into_iter().next().map(|d| AclQuestion {
            packet: d.packet,
            option_first: d.a,
            option_second: d.b,
            pivot_index: pivot,
        }))
    }

    /// ACL outcomes are pure permit/deny, so the two placements decide all
    /// of `region` differently when the actions differ, and none of it
    /// otherwise.
    fn pivot_question(
        &self,
        space: &mut PacketSpace,
        region: Ref,
        pivot: usize,
    ) -> Result<Option<AclQuestion>, ClarifyError> {
        if self.entry.action == self.target.entries[pivot].action {
            return Ok(None);
        }
        let Some(packet) = space.witness(region) else {
            return Ok(None);
        };
        let (above, _) = self.insert(pivot)?;
        let (below, _) = self.insert(pivot + 1)?;
        Ok(Some(AclQuestion {
            option_first: self.placed(&above).eval(&packet),
            option_second: self.placed(&below).eval(&packet),
            packet,
            pivot_index: pivot,
        }))
    }

    fn insert(&self, position: usize) -> Result<(Config, ()), ClarifyError> {
        let entry = self.entry.clone();
        let cfg = insert_acl_entry(&self.base, &self.target.name, entry, position)?;
        Ok((cfg, ()))
    }

    fn pivot(question: &AclQuestion) -> u64 {
        question.pivot_index as u64
    }
}

/// [`Disambiguator::plan`] for an ACL insertion, in a caller-owned
/// [`PacketSpace`]. The packet atom universe is fixed, so any
/// `PacketSpace` is layout-compatible: long-lived services keep one warm
/// space per session.
pub fn plan_acl_in_space(
    space: &mut PacketSpace,
    base: &Config,
    acl_name: &str,
    entry: &AclEntry,
    strategy: PlacementStrategy,
) -> Result<AclInsertionPlan, ClarifyError> {
    Disambiguator::new(strategy).plan(space, AclInsertion::new(base, acl_name, entry)?)
}

/// Answers from the intended final ACL.
pub struct AclIntentOracle<'a> {
    /// The intended final ACL.
    pub intended: &'a Acl,
}

impl UserOracle<AclQuestion> for AclIntentOracle<'_> {
    fn choose(&mut self, q: &AclQuestion) -> Result<Choice, ClarifyError> {
        let want = self.intended.eval(&q.packet).action;
        if want == q.option_first.action {
            Ok(Choice::First)
        } else {
            // Binary actions: if it is not the first option it must be the
            // second (the two options always differ).
            debug_assert_eq!(want, q.option_second.action);
            Ok(Choice::Second)
        }
    }
}

/// Checks the final ACL equals the intended one on every packet.
pub fn verify_acl_against_intent(
    final_cfg: &Config,
    acl_name: &str,
    intended: &Acl,
) -> Result<(), ClarifyError> {
    let acl = final_cfg.acl(acl_name).ok_or(ConfigError::NotFound {
        kind: "access-list",
        name: acl_name.to_string(),
    })?;
    let mut space = PacketSpace::new();
    let diffs = compare_filters(&mut space, acl, intended, 1)?;
    match diffs.into_iter().next() {
        None => Ok(()),
        Some(d) => Err(ClarifyError::NoValidAclInsertion { witness: d.packet }),
    }
}
