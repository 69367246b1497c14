//! Atomic predicates over a set of regexes.
//!
//! Given the regexes `R1..Rn` appearing in a configuration and a *universe*
//! `U` of well-formed subject strings (e.g. "all syntactically valid
//! community strings"), the atoms are the non-empty intersections
//! `U ∩ X1 ∩ … ∩ Xn` where each `Xi` is `Ri` or its complement. Atoms are
//! pairwise disjoint, cover `U`, and every `Ri ∩ U` is a union of atoms —
//! so one BDD variable per atom represents any Boolean combination of the
//! regexes exactly. This mirrors Batfish's community/AS-path handling.
//!
//! The atoms are built as one *classifier*: a [`Dfa`] whose state labels
//! name the atom of the strings ending there (`1 + a` for atom `a`, 0
//! outside the universe). It starts as the universe's automaton, whose
//! accepting states hold the one atom of no patterns, and each pattern
//! refines it once. The product with the pattern's automaton labels every
//! state with its old label and whether the pattern accepts, and Moore
//! minimization from that label partition keeps the classifier small, so
//! `n` patterns cost `n` products.
//!
//! The atoms are the labels reachable on accepting states. They are
//! numbered by signature, compared pattern by pattern with the inside of a
//! pattern before its outside, which is the order that splitting every atom
//! in two per pattern leaves them in. An atom's witness is its shortest
//! string, ties broken towards the smaller byte: one breadth-first search
//! of the classifier finds it for every label at once. That string is a
//! property of the atom's language alone, so any automaton for the atom
//! gives the same one from [`Dfa::witness`].

use crate::dfa::subject;
use crate::{Dfa, Regex};

/// Safety valve: refuse to build more atoms than this. With `n` regexes
/// there can be up to `2^n` atoms; Clarify analyses scope the regex universe
/// per policy, so real counts stay small.
pub const ATOM_LIMIT: usize = 4096;

/// The partition of a universe language induced by a set of regexes.
#[derive(Clone, Debug)]
pub struct AtomSpace {
    /// Labels every string with `1 + ` its atom, or 0 outside the universe.
    classifier: Dfa,
    witnesses: Vec<String>,
    /// `members[p]` lists the atom indices making up pattern `p`.
    members: Vec<Vec<usize>>,
}

impl AtomSpace {
    /// Partitions `universe` by the given patterns.
    ///
    /// Returns `None` if the atom count would exceed [`ATOM_LIMIT`].
    /// An empty pattern list yields the single atom `universe` (when
    /// non-empty).
    pub fn build(universe: &Dfa, patterns: &[&Regex]) -> Option<AtomSpace> {
        let mut classifier = universe.clone();
        // Per atom, whether each pattern so far holds it.
        let mut inside: Vec<Vec<bool>> = if universe.is_empty() {
            Vec::new()
        } else {
            vec![Vec::new()]
        };
        for pat in patterns {
            // Atom label `l` splits into `2l - 1` inside the pattern and
            // `2l` outside it, in atom order.
            let split = classifier.product(pat.dfa(), |l, p| {
                if l == 0 {
                    0
                } else {
                    2 * l - u32::from(p != 0)
                }
            });
            // Number the halves some string reaches, in that order.
            let mut reached = vec![false; 2 * inside.len() + 1];
            for &l in split.labels() {
                reached[l as usize] = true;
            }
            let mut rank = vec![0u32; reached.len()];
            let mut next = Vec::new();
            for half in (1..reached.len()).filter(|&h| reached[h]) {
                let mut sig = inside[(half - 1) / 2].clone();
                sig.push(half % 2 == 1);
                next.push(sig);
                rank[half] = next.len() as u32;
            }
            if next.len() > ATOM_LIMIT {
                return None;
            }
            classifier = split.relabel(|l| rank[l as usize]);
            inside = next;
        }

        let witnesses = classifier
            .label_witnesses(inside.len())
            .into_iter()
            .map(|w| subject(w.expect("every atom labels a reachable state")))
            .collect();
        let members = (0..patterns.len())
            .map(|p| (0..inside.len()).filter(|&a| inside[a][p]).collect())
            .collect();
        Some(AtomSpace {
            classifier,
            witnesses,
            members,
        })
    }

    /// Number of atoms (may be zero for an empty universe).
    pub fn len(&self) -> usize {
        self.witnesses.len()
    }

    /// Whether the universe was empty.
    pub fn is_empty(&self) -> bool {
        self.witnesses.is_empty()
    }

    /// The automaton of atom `idx`, cut from the classifier on each call.
    pub fn atom(&self, idx: usize) -> Dfa {
        assert!(idx < self.len(), "atom {idx} of {}", self.len());
        let label = idx as u32 + 1;
        self.classifier.clone().relabel(|l| u32::from(l == label))
    }

    /// A concrete string drawn from atom `idx` (sentinels stripped).
    pub fn witness(&self, idx: usize) -> &str {
        &self.witnesses[idx]
    }

    /// The atoms whose union is pattern `p` (intersected with the universe).
    pub fn members_of(&self, p: usize) -> &[usize] {
        &self.members[p]
    }

    /// Maps a concrete subject string to its atom, or `None` if the string
    /// lies outside the universe.
    pub fn classify(&self, text: &str) -> Option<usize> {
        (self.classifier.label_of(text) as usize).checked_sub(1)
    }
}
