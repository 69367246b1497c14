//! Deterministic finite automata over ASCII, with an alphabet compressed
//! into byte-equivalence classes and labelled states.

use std::collections::{BTreeMap, HashMap, VecDeque};

use crate::ast::{Ast, ByteClass};
use crate::nfa::Nfa;
use crate::{ETX, STX};

/// A complete, minimized DFA whose states carry labels.
///
/// The 128-byte ASCII alphabet is compressed to equivalence classes: bytes
/// that no pattern distinguishes share a class, which keeps transition
/// tables small. Every DFA is *complete* (a dead state absorbs unmatched
/// input).
///
/// A state's label says what a string ending there is. A language
/// automaton labels its accepting states 1 and the rest 0, so
/// complementation swaps the two labels. An atom classifier
/// ([`crate::AtomSpace`]) labels a state with `1 + a` when the strings
/// ending there lie in atom `a`, and with 0 outside its universe. Every
/// public operation reads a non-zero label as accepting. The product and
/// the minimization are written once over labels, and the two-label case
/// is the language automaton.
#[derive(Clone, PartialEq, Eq)]
pub struct Dfa {
    /// Byte → symbol-class index.
    class_of: [u8; 128],
    num_classes: usize,
    /// Smallest byte in each class, used to render witnesses.
    reps: Vec<u8>,
    /// Row-major transition table: `trans[state * num_classes + class]`.
    trans: Vec<u32>,
    /// Per state, its label; 0 rejects.
    label: Vec<u32>,
    start: u32,
}

impl std::fmt::Debug for Dfa {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Dfa")
            .field("states", &self.label.len())
            .field("classes", &self.num_classes)
            .field("start", &self.start)
            .finish()
    }
}

/// Builds the byte partition induced by a set of byte classes.
fn partition_bytes(classes: &[ByteClass]) -> ([u8; 128], usize, Vec<u8>) {
    // Signature of byte b = the subset of `classes` containing b.
    let mut sig_to_class: BTreeMap<Vec<bool>, u8> = BTreeMap::new();
    let mut class_of = [0u8; 128];
    let mut reps: Vec<u8> = Vec::new();
    for b in 0u8..128 {
        let sig: Vec<bool> = classes.iter().map(|c| c.contains(b)).collect();
        let next = sig_to_class.len() as u8;
        let id = *sig_to_class.entry(sig).or_insert_with(|| {
            reps.push(b);
            next
        });
        class_of[b as usize] = id;
    }
    let n = sig_to_class.len();
    (class_of, n, reps)
}

/// Compiles an AST to a complete minimized DFA.
pub(crate) fn compile(ast: &Ast) -> Dfa {
    let nfa = Nfa::compile(ast);
    let (class_of, num_classes, reps) = partition_bytes(&nfa.classes());

    // Subset construction over symbol classes.
    let start_set = nfa.eps_closure(&[nfa.start]);
    let mut state_ids: BTreeMap<Vec<usize>, u32> = BTreeMap::new();
    state_ids.insert(start_set.clone(), 0);
    let mut worklist = VecDeque::from([start_set]);
    let mut trans: Vec<u32> = Vec::new();
    let mut label: Vec<u32> = Vec::new();
    // Reserve row 0 lazily as we pop.
    while let Some(set) = worklist.pop_front() {
        let id = state_ids[&set] as usize;
        if trans.len() < (id + 1) * num_classes {
            trans.resize((id + 1) * num_classes, 0);
            label.resize(id + 1, 0);
        }
        label[id] = u32::from(set.contains(&nfa.accept));
        for class in 0..num_classes {
            let rep = reps[class];
            let mut next: Vec<usize> = Vec::new();
            for &s in &set {
                if let Some((c, t)) = nfa.states[s].byte_edge {
                    if c.contains(rep) {
                        next.push(t);
                    }
                }
            }
            next.sort_unstable();
            next.dedup();
            let closed = nfa.eps_closure(&next);
            let next_id = match state_ids.get(&closed) {
                Some(&i) => i,
                None => {
                    let i = state_ids.len() as u32;
                    state_ids.insert(closed.clone(), i);
                    worklist.push_back(closed);
                    i
                }
            };
            trans[id * num_classes + class] = next_id;
        }
    }
    let dfa = Dfa {
        class_of,
        num_classes,
        reps,
        trans,
        label,
        start: 0,
    };
    dfa.minimize()
}

/// The subject a byte string spells: the string with its sentinels
/// stripped.
pub(crate) fn subject(bytes: Vec<u8>) -> String {
    bytes
        .into_iter()
        .filter(|&b| b != STX && b != ETX)
        .map(char::from)
        .collect()
}

/// The string a [`Dfa::search`] reached `state` with, from the
/// predecessors it returned.
fn path(prev: &[Option<(u32, u8)>], mut state: u32) -> Vec<u8> {
    let mut out = Vec::new();
    while let Some((p, b)) = prev[state as usize] {
        out.push(b);
        state = p;
    }
    out.reverse();
    out
}

impl Dfa {
    /// A DFA accepting nothing, over the trivial one-class alphabet.
    pub fn empty() -> Dfa {
        Dfa {
            class_of: [0; 128],
            num_classes: 1,
            reps: vec![0],
            trans: vec![0],
            label: vec![0],
            start: 0,
        }
    }

    /// Number of states.
    pub fn num_states(&self) -> usize {
        self.label.len()
    }

    /// The label of the state `bytes` lead to; 0 past a non-ASCII byte.
    fn run(&self, bytes: &[u8]) -> u32 {
        let mut s = self.start;
        for &b in bytes {
            if b >= 128 {
                return 0;
            }
            let c = self.class_of[b as usize] as usize;
            s = self.trans[s as usize * self.num_classes + c];
        }
        self.label[s as usize]
    }

    /// Runs the DFA on raw bytes (no sentinel wrapping).
    pub fn accepts_bytes(&self, bytes: &[u8]) -> bool {
        self.run(bytes) != 0
    }

    /// Cisco-style match: wraps `text` in the `STX`/`ETX` sentinels and runs
    /// the automaton. Use with DFAs produced by [`crate::Regex::to_dfa`].
    pub fn matches(&self, text: &str) -> bool {
        self.label_of(text) != 0
    }

    /// The label a Cisco-style run of `text` (wrapped in the sentinels)
    /// ends on.
    pub(crate) fn label_of(&self, text: &str) -> u32 {
        let mut bytes = Vec::with_capacity(text.len() + 2);
        bytes.push(STX);
        bytes.extend_from_slice(text.as_bytes());
        bytes.push(ETX);
        self.run(&bytes)
    }

    /// Every state's label, by state.
    pub(crate) fn labels(&self) -> &[u32] {
        &self.label
    }

    /// Language complement (swap the two labels; the DFA is complete).
    pub fn complement(&self) -> Dfa {
        self.clone().relabel(|l| u32::from(l == 0))
    }

    /// Language intersection.
    pub fn intersect(&self, other: &Dfa) -> Dfa {
        self.combine(other, |a, b| a && b)
    }

    /// Language union.
    pub fn union(&self, other: &Dfa) -> Dfa {
        self.combine(other, |a, b| a || b)
    }

    /// Language difference `self \ other`.
    pub fn minus(&self, other: &Dfa) -> Dfa {
        self.combine(other, |a, b| a && !b)
    }

    /// Whether the language is empty.
    pub fn is_empty(&self) -> bool {
        self.witness_bytes().is_none()
    }

    /// Whether both DFAs accept exactly the same language.
    pub fn equivalent(&self, other: &Dfa) -> bool {
        self.minus(other).is_empty() && other.minus(self).is_empty()
    }

    /// Shortest accepted byte string (ties broken towards the smallest
    /// representative byte), or `None` for the empty language.
    pub fn witness_bytes(&self) -> Option<Vec<u8>> {
        let mut hit = None;
        let prev = self.search(|s| {
            let accepting = self.label[s as usize] != 0;
            if accepting {
                hit = Some(s);
            }
            accepting
        });
        Some(path(&prev, hit?))
    }

    /// Shortest accepted string with the sentinels stripped, or `None`.
    pub fn witness(&self) -> Option<String> {
        self.witness_bytes().map(subject)
    }

    /// For each label `1..=n`, the shortest byte string ending on it (ties
    /// broken towards the smallest representative byte), or `None` for a
    /// label no state carries. One search finds them all.
    pub(crate) fn label_witnesses(&self, n: usize) -> Vec<Option<Vec<u8>>> {
        let mut first: Vec<Option<u32>> = vec![None; n + 1];
        let mut missing = n;
        let prev = self.search(|s| {
            let l = self.label[s as usize] as usize;
            if l != 0 && first[l].is_none() {
                first[l] = Some(s);
                missing -= 1;
            }
            missing == 0
        });
        first[1..]
            .iter()
            .map(|s| s.map(|s| path(&prev, s)))
            .collect()
    }

    /// Breadth-first search from the start state, trying classes in
    /// representative order (ascending by construction), so states are
    /// first reached in shortlex order of their least access strings.
    /// `reached` sees each state as it is first reached and stops the
    /// search by returning `true`. Returns each reached state's
    /// predecessor and the byte leading from it.
    fn search(&self, mut reached: impl FnMut(u32) -> bool) -> Vec<Option<(u32, u8)>> {
        let n = self.num_states();
        let mut prev: Vec<Option<(u32, u8)>> = vec![None; n];
        let mut seen = vec![false; n];
        seen[self.start as usize] = true;
        if reached(self.start) {
            return prev;
        }
        let mut q = VecDeque::from([self.start]);
        while let Some(s) = q.pop_front() {
            for class in 0..self.num_classes {
                let t = self.trans[s as usize * self.num_classes + class];
                if !seen[t as usize] {
                    seen[t as usize] = true;
                    prev[t as usize] = Some((s, self.reps[class]));
                    if reached(t) {
                        return prev;
                    }
                    q.push_back(t);
                }
            }
        }
        prev
    }

    /// The minimized product whose accepting states `op` picks from the
    /// two accept flags.
    fn combine(&self, other: &Dfa, op: impl Fn(bool, bool) -> bool) -> Dfa {
        self.product(other, |a, b| u32::from(op(a != 0, b != 0)))
            .minimize()
    }

    /// The product automaton over the common refinement of both alphabets,
    /// restricted to reachable state pairs, each labelled
    /// `label(its label in self, its label in other)`. Not minimized.
    pub(crate) fn product(&self, other: &Dfa, label: impl Fn(u32, u32) -> u32) -> Dfa {
        // Common refinement of the two byte partitions.
        let mut sig_to_class: BTreeMap<(u8, u8), u8> = BTreeMap::new();
        let mut class_of = [0u8; 128];
        let mut reps: Vec<u8> = Vec::new();
        let mut pair_classes: Vec<(u8, u8)> = Vec::new();
        for b in 0u8..128 {
            let sig = (self.class_of[b as usize], other.class_of[b as usize]);
            let next = sig_to_class.len() as u8;
            let id = *sig_to_class.entry(sig).or_insert_with(|| {
                reps.push(b);
                pair_classes.push(sig);
                next
            });
            class_of[b as usize] = id;
        }
        let num_classes = sig_to_class.len();

        let mut ids: HashMap<(u32, u32), u32> = HashMap::new();
        let start_pair = (self.start, other.start);
        ids.insert(start_pair, 0);
        let mut pairs = vec![start_pair];
        let mut trans = Vec::new();
        let mut labels = Vec::new();
        // States are numbered in discovery order, so `pairs` is the queue.
        let mut next = 0;
        while let Some(&(sa, sb)) = pairs.get(next) {
            next += 1;
            labels.push(label(self.label[sa as usize], other.label[sb as usize]));
            for &(ca, cb) in &pair_classes {
                let ta = self.trans[sa as usize * self.num_classes + ca as usize];
                let tb = other.trans[sb as usize * other.num_classes + cb as usize];
                let id = *ids.entry((ta, tb)).or_insert_with(|| {
                    pairs.push((ta, tb));
                    pairs.len() as u32 - 1
                });
                trans.push(id);
            }
        }
        Dfa {
            class_of,
            num_classes,
            reps,
            trans,
            label: labels,
            start: 0,
        }
    }

    /// Maps every state's label through `f`, then minimizes.
    pub(crate) fn relabel(self, f: impl Fn(u32) -> u32) -> Dfa {
        self.map_labels(f).minimize()
    }

    /// Maps every state's label through `f`, without minimizing: a
    /// one-to-one `f` keeps a minimal automaton minimal.
    pub(crate) fn map_labels(mut self, f: impl Fn(u32) -> u32) -> Dfa {
        for l in &mut self.label {
            *l = f(*l);
        }
        self
    }

    /// Moore partition-refinement minimization from the label partition:
    /// states end up merged exactly when every string leads them to equal
    /// labels. Unreachable states are dropped; alphabet classes the
    /// minimal automaton cannot distinguish stay apart (the class count
    /// is already tiny).
    fn minimize(&self) -> Dfa {
        // 1. Restrict to reachable states.
        let n = self.num_states();
        let mut reach = vec![false; n];
        let mut stack = vec![self.start];
        reach[self.start as usize] = true;
        while let Some(s) = stack.pop() {
            for class in 0..self.num_classes {
                let t = self.trans[s as usize * self.num_classes + class];
                if !reach[t as usize] {
                    reach[t as usize] = true;
                    stack.push(t);
                }
            }
        }

        // 2. Initial partition: the labels. Refine by (current block,
        //    blocks of successors) until no block splits.
        let mut block: Vec<u32> = self.label.clone();
        let mut sig: Vec<u32> = Vec::with_capacity(self.num_classes + 1);
        loop {
            let mut sig_ids: BTreeMap<Vec<u32>, u32> = BTreeMap::new();
            let mut next: Vec<u32> = vec![0; n];
            for s in 0..n {
                if !reach[s] {
                    continue;
                }
                sig.clear();
                sig.push(block[s]);
                let row = &self.trans[s * self.num_classes..(s + 1) * self.num_classes];
                sig.extend(row.iter().map(|&t| block[t as usize]));
                next[s] = match sig_ids.get(sig.as_slice()) {
                    Some(&id) => id,
                    None => {
                        let id = sig_ids.len() as u32;
                        sig_ids.insert(sig.clone(), id);
                        id
                    }
                };
            }
            let changed = (0..n).any(|s| reach[s] && next[s] != block[s]);
            block = next;
            if !changed {
                break;
            }
        }

        // 3. Rebuild with one state per block, numbered by first occurrence
        //    in BFS order from the start block so output is deterministic.
        const UNSEEN: u32 = u32::MAX;
        let mut renum = vec![UNSEEN; n];
        let mut order: Vec<usize> = Vec::new(); // representative state per new id
        let mut q = VecDeque::from([self.start as usize]);
        renum[block[self.start as usize] as usize] = 0;
        order.push(self.start as usize);
        while let Some(s) = q.pop_front() {
            for class in 0..self.num_classes {
                let t = self.trans[s * self.num_classes + class] as usize;
                if renum[block[t] as usize] == UNSEEN {
                    renum[block[t] as usize] = order.len() as u32;
                    order.push(t);
                    q.push_back(t);
                }
            }
        }
        let m = order.len();
        let mut trans = vec![0u32; m * self.num_classes];
        let mut label = vec![0u32; m];
        for (new_id, &rep) in order.iter().enumerate() {
            label[new_id] = self.label[rep];
            for class in 0..self.num_classes {
                let t = self.trans[rep * self.num_classes + class] as usize;
                trans[new_id * self.num_classes + class] = renum[block[t] as usize];
            }
        }
        Dfa {
            class_of: self.class_of,
            num_classes: self.num_classes,
            reps: self.reps.clone(),
            trans,
            label,
            start: 0,
        }
    }
}
