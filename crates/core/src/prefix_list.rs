//! Prefix-list entry insertion — the paper's §7 future work ("the tool
//! needs support for inserting entries into other data structures that
//! can have conflicts like prefix lists"), over the prefix space.

use clarify_analysis::{compare_prefix_lists, PrefixSpace};
use clarify_bdd::Ref;
use clarify_netconfig::{
    insert_prefix_list_entry, Config, ConfigError, PrefixList, PrefixListEntry,
};
use clarify_nettypes::Prefix;

use crate::disambiguator::{DisambiguationResult, RuleKind};
use crate::error::ClarifyError;
use crate::oracle::{Choice, UserOracle};

/// The prefix-list instantiation of [`DisambiguationResult`].
pub type PrefixDisambiguationResult = DisambiguationResult<PrefixListInsertion>;

/// One question: a concrete prefix and whether each placement permits it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PrefixQuestion {
    /// The differential prefix.
    pub prefix: Prefix,
    /// Whether the list permits it with the new entry *above* the pivot.
    pub first_permits: bool,
    /// Whether the list permits it with the new entry *below* the pivot.
    pub second_permits: bool,
    /// Zero-based index of the pivot entry.
    pub pivot_index: usize,
}

impl std::fmt::Display for PrefixQuestion {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let action = |permits: bool| if permits { "permit" } else { "deny" };
        writeln!(f, "Prefix: {}", self.prefix)?;
        writeln!(f)?;
        writeln!(f, "OPTION 1: {}", action(self.first_permits))?;
        write!(f, "OPTION 2: {}", action(self.second_permits))
    }
}

/// Inserting one entry into a base prefix list.
#[derive(Clone, Debug)]
pub struct PrefixListInsertion {
    base: Config,
    entry: PrefixListEntry,
    target: PrefixList,
}

impl PrefixListInsertion {
    /// The insertion of `entry` into `base`'s prefix list `list_name`.
    pub fn new(
        base: &Config,
        list_name: &str,
        entry: &PrefixListEntry,
    ) -> Result<Self, ClarifyError> {
        let target = base
            .prefix_lists
            .get(list_name)
            .ok_or(ConfigError::NotFound {
                kind: "prefix-list",
                name: list_name.to_string(),
            })?;
        Ok(PrefixListInsertion {
            base: base.clone(),
            entry: entry.clone(),
            target: target.clone(),
        })
    }
}

impl RuleKind for PrefixListInsertion {
    type Space = PrefixSpace;
    type Policy = PrefixList;
    type Question = PrefixQuestion;
    type Report = ();

    fn base(&self) -> &Config {
        &self.base
    }

    fn target(&self) -> &PrefixList {
        &self.target
    }

    fn new_space(&self) -> Result<PrefixSpace, ClarifyError> {
        Ok(PrefixSpace::new())
    }

    fn new_match(&self, space: &mut PrefixSpace) -> Result<Ref, ClarifyError> {
        let valid = space.valid();
        let raw = space.encode_range(&self.entry.range);
        Ok(space.manager().and(raw, valid))
    }

    fn question(
        &self,
        space: &mut PrefixSpace,
        above: &Config,
        below: &Config,
        pivot: usize,
    ) -> Result<Option<PrefixQuestion>, ClarifyError> {
        // Invariant: both configs come from `insert`, which keeps the list.
        let [above, below] = [above, below].map(|cfg| &cfg.prefix_lists[&self.target.name]);
        let diffs = compare_prefix_lists(space, above, below, 1)?;
        Ok(diffs.into_iter().next().map(|d| PrefixQuestion {
            prefix: d.prefix,
            first_permits: d.a_permits,
            second_permits: d.b_permits,
            pivot_index: pivot,
        }))
    }

    fn insert(&self, position: usize) -> Result<(Config, ()), ClarifyError> {
        let entry = self.entry.clone();
        let cfg = insert_prefix_list_entry(&self.base, &self.target.name, entry, position)?;
        Ok((cfg, ()))
    }

    fn pivot(question: &PrefixQuestion) -> u64 {
        question.pivot_index as u64
    }
}

/// Answers from the intended final list.
pub struct PrefixIntentOracle<'a> {
    /// The intended final prefix list.
    pub intended: &'a PrefixList,
}

impl UserOracle<PrefixQuestion> for PrefixIntentOracle<'_> {
    fn choose(&mut self, q: &PrefixQuestion) -> Result<Choice, ClarifyError> {
        let want = self.intended.permits(&q.prefix);
        if want == q.first_permits {
            Ok(Choice::First)
        } else {
            debug_assert_eq!(want, q.second_permits);
            Ok(Choice::Second)
        }
    }
}
