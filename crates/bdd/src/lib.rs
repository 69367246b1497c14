//! Reduced ordered binary decision diagrams (ROBDDs) with hash-consing,
//! complement edges, a static variable order, and a garbage-collected
//! node arena.
//!
//! This crate is the symbolic-reasoning substrate for the Clarify analyses.
//! Nodes live in a flat arena, every node is unique (hash-consed), and the
//! kernel follows the CUDD tradition (DESIGN.md §8):
//!
//! - **Two recursive kernels**, conjunction and exclusive-or, share one
//!   lossy computed cache. Every other connective is a complement-edge
//!   rewrite of them; quantification, witnesses and an exact model count
//!   complete the kernel.
//! - **Complement edges**: a [`Ref`] carries a complement bit, so negation
//!   is O(1) and `f`/`!f` share all nodes (the then-edge of every stored
//!   node is kept regular for canonicity).
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
//! assert_eq!(m.sat_count_exact(f), 4); // a & b over 4 variables: 2^2 models
//! ```
//!
//! # Variable order
//!
//! Variables are identified by `u32` indices, and the variable order is
//! the numeric order for the manager's whole life: a node's level is its
//! variable id. A good order is the caller's job (the analysis spaces
//! lay their fields out in blocks, most significant bit first). Because
//! the order is fixed, the witness from [`Manager::any_sat`], its free
//! variables read as false, is the lexicographically least model,
//! variable 0 most significant.

#![warn(missing_docs)]

mod cache;
mod cube;
mod gc;
mod manager;
mod unique;

pub use cube::Cube;
pub use gc::{GcStats, Root};
pub use manager::{Manager, Ref, Stats};

#[cfg(test)]
mod tests;
