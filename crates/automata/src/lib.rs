//! Cisco-style regular expressions compiled to deterministic finite automata.
//!
//! Cisco IOS uses POSIX-flavoured regexes to match BGP **AS paths**
//! (`ip as-path access-list`) and **communities** (`ip community-list
//! expanded`). Two quirks distinguish them from ordinary regexes:
//!
//! * matching is *substring* matching unless `^` / `$` anchors are used, and
//! * the `_` metacharacter matches any delimiter: space, comma, braces,
//!   parentheses, **or the start or end of the string** — this is how
//!   `_32$` matches a path that originates at AS 32 and `_300:3_` matches a
//!   route tagged with community 300:3.
//!
//! We model start/end-of-string as two sentinel bytes (`STX`/`ETX`) that
//! surround every subject string, which turns both quirks into plain
//! character-class matching. Compilation is the textbook pipeline:
//! parse → Thompson NFA → subset-construction DFA → Moore minimization.
//!
//! The crate also computes **atomic predicates**: given the set of regexes
//! appearing in a configuration, it partitions the universe of valid subject
//! strings into disjoint equivalence classes (atoms) such that every regex is
//! a union of atoms. The symbolic analysis layer then needs only one Boolean
//! variable per atom — the same construction Batfish uses for route-policy
//! reasoning. The atoms live in one classifier automaton whose state labels
//! name them, refined by one product and one minimization per regex
//! ([`AtomSpace`]); the product and the minimization are the same code that
//! intersects and minimizes plain automata, over labels instead of accept
//! flags. A space extends to a reordered or longer pattern list
//! ([`AtomSpace::extend`]), refining only by the patterns it lacks, and a
//! fresh build is that extension from the universe's one atom. A [`Regex`] compiles its automaton once, on first use, and its
//! clones share it.
//!
//! ```
//! use clarify_automata::Regex;
//!
//! let re = Regex::parse("_32$").unwrap();
//! let dfa = re.to_dfa();
//! assert!(dfa.matches("10 20 32"));
//! assert!(!dfa.matches("32 10"));
//! ```

#![warn(missing_docs)]

mod ast;
mod atoms;
mod dfa;
mod nfa;

pub use ast::{ByteClass, Regex, RegexError};
pub use atoms::{AtomSpace, ATOM_LIMIT};
pub use dfa::Dfa;

/// Sentinel byte prepended to every subject string (start of text).
pub const STX: u8 = 0x02;
/// Sentinel byte appended to every subject string (end of text).
pub const ETX: u8 = 0x03;

#[cfg(test)]
mod tests;
