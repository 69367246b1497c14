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
//!
//! Building is one operation, [`AtomSpace::extend`], started from the
//! universe's one atom: a space extends to any list that holds all of its
//! patterns, in any order and possibly with more. Only the patterns it
//! lacks refine the classifier; then the atoms are renumbered by their
//! signatures over the new list, which renames labels one to one. So an
//! extended space is the space built from the new list, and a session
//! whose pattern list only grows or is reordered classifies each pattern
//! once.

use std::collections::{HashMap, HashSet};

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
    /// Each pattern's text, mapped to its first index.
    index: HashMap<String, usize>,
}

impl AtomSpace {
    /// Partitions `universe` by the given patterns: the universe's one
    /// atom, [extended](AtomSpace::extend) by them.
    ///
    /// Returns `None` if the atom count would exceed [`ATOM_LIMIT`].
    /// An empty pattern list yields the single atom `universe` (when
    /// non-empty).
    pub fn build(universe: &Dfa, patterns: &[&Regex]) -> Option<AtomSpace> {
        let whole = AtomSpace {
            classifier: universe.clone(),
            witnesses: universe.witness().into_iter().collect(),
            members: Vec::new(),
            index: HashMap::new(),
        };
        whole.extend(patterns)
    }

    /// Whether `patterns` hold every pattern of this space, so that it
    /// can be [extended](AtomSpace::extend) by them.
    pub fn extends_to(&self, patterns: &[&Regex]) -> bool {
        let texts: HashSet<&str> = patterns.iter().map(|r| r.pattern()).collect();
        self.index.keys().all(|p| texts.contains(p.as_str()))
    }

    /// The space of `patterns`, which hold every pattern of this one, in
    /// any order and possibly with more. The classifier is refined once
    /// per pattern it lacks, and the atoms are numbered by their
    /// signatures over `patterns`, so the result equals
    /// [`build`](AtomSpace::build) of `patterns` over the same universe:
    /// the same atoms in the same order, with the same witnesses and
    /// members.
    ///
    /// Returns `None` if the atom count would exceed [`ATOM_LIMIT`].
    ///
    /// # Panics
    ///
    /// If `patterns` lack a pattern of this space.
    pub fn extend(self, patterns: &[&Regex]) -> Option<AtomSpace> {
        assert!(self.extends_to(patterns), "extension drops a pattern");
        let AtomSpace {
            mut classifier,
            witnesses,
            members,
            index: mut column,
        } = self;
        // Per atom, whether each pattern so far (a column) holds it.
        let mut inside = vec![vec![false; members.len()]; witnesses.len()];
        for (p, atoms) in members.iter().enumerate() {
            for &a in atoms {
                inside[a][p] = true;
            }
        }
        let mut width = members.len();
        for pat in patterns {
            if column.contains_key(pat.pattern()) {
                continue;
            }
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
            column.insert(pat.pattern().to_string(), width);
            width += 1;
        }

        // Number the atoms by signature over `patterns`, the inside of a
        // pattern before its outside: the order that refining the universe
        // by `patterns` in turn leaves them in. Renaming labels one to one
        // keeps the classifier minimal.
        let cols: Vec<usize> = patterns.iter().map(|r| column[r.pattern()]).collect();
        let inside = &inside;
        let key = |a: usize| cols.iter().map(move |&c| !inside[a][c]);
        let mut order: Vec<usize> = (0..inside.len()).collect();
        order.sort_by(|&a, &b| key(a).cmp(key(b)));
        let mut rank = vec![0u32; order.len() + 1];
        for (new, &old) in order.iter().enumerate() {
            rank[old + 1] = new as u32 + 1;
        }
        let classifier = classifier.map_labels(|l| rank[l as usize]);

        let witnesses = classifier
            .label_witnesses(order.len())
            .into_iter()
            .map(|w| subject(w.expect("every atom labels a reachable state")))
            .collect();
        let members = cols
            .iter()
            .map(|&c| (0..order.len()).filter(|&a| inside[order[a]][c]).collect())
            .collect();
        // The columns' texts are exactly those of `patterns`; each now
        // indexes its first place there.
        for (p, pat) in patterns.iter().enumerate().rev() {
            *column
                .get_mut(pat.pattern())
                .expect("every pattern has a column") = p;
        }
        Some(AtomSpace {
            classifier,
            witnesses,
            members,
            index: column,
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

    /// The index of the pattern with text `pattern`, for
    /// [`members_of`](AtomSpace::members_of): its first place in the list
    /// the space was built from, or `None` if it is not there.
    pub fn position(&self, pattern: &str) -> Option<usize> {
        self.index.get(pattern).copied()
    }

    /// Maps a concrete subject string to its atom, or `None` if the string
    /// lies outside the universe.
    pub fn classify(&self, text: &str) -> Option<usize> {
        (self.classifier.label_of(text) as usize).checked_sub(1)
    }
}
