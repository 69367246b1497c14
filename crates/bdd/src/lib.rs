//! Reduced ordered binary decision diagrams (ROBDDs) with hash-consing,
//! complement edges, dynamic variable reordering, and a garbage-collected
//! node arena.
//!
//! This crate is the symbolic-reasoning substrate for the Clarify analyses.
//! Nodes live in a flat arena, every node is unique (hash-consed), and the
//! operation kernel is the classic Brace–Rudell–Bryant construction with
//! the CUDD refinements layered on (DESIGN.md §8):
//!
//! - **Complement edges**: a [`Ref`] carries a complement bit, so negation
//!   is O(1) and `f`/`!f` share all nodes (the then-edge of every stored
//!   node is kept regular for canonicity).
//! - **Sifting** ([`Manager::reorder`]): adjacent-level swaps search for a
//!   better variable order when the caller's static order is poor.
//! - **Mark-and-sweep GC** ([`Manager::gc`]): [`Root`] handles pin
//!   long-lived functions; everything else is reclaimed between rounds,
//!   so daemon sessions stop growing monotonically.
//!
//! # Example
//!
//! ```
//! use clarify_bdd::Manager;
//!
//! let mut m = Manager::new(4);
//! let a = m.var(0);
//! let b = m.var(1);
//! let f = m.and(a, b);
//! let g = m.or(a, b);
//! assert!(m.implies_true(f, g));
//! assert_eq!(m.sat_count(f), 4.0); // a & b over 4 variables: 2^2 models
//! ```
//!
//! # Variable order
//!
//! Variables are identified by `u32` indices; the *initial* variable order
//! is the numeric order. A good initial order is still the caller's job
//! (the analysis crate interleaves related fields), but
//! [`Manager::reorder`] can recover from a bad one. Witnesses from
//! [`Manager::any_sat`] are order-invariant, so reordering never changes
//! decoded output.

#![warn(missing_docs)]

mod cache;
mod cube;
mod gc;
mod manager;
mod reorder;
mod unique;

pub use cube::Cube;
pub use gc::{GcStats, Root};
pub use manager::{Manager, Ref, Stats};
pub use reorder::ReorderStats;

#[cfg(test)]
mod tests;
