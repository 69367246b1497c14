//! `clarify-lint` — a symbolic static-analysis pass over network
//! configurations.
//!
//! The paper's §3 overlap census shows real route-maps and ACLs are full
//! of conflicting-overlap pairs — exactly the latent hazards that make
//! LLM-inserted stanzas ambiguous. This crate turns the symbolic machinery
//! of `clarify-analysis` (BDD route/packet/prefix spaces, equivalence and
//! overlap checks) into actionable diagnostics:
//!
//! | code | check | severity |
//! |------|-------|----------|
//! | L001 | shadowed rule: match space fully covered by earlier rules | warning |
//! | L002 | redundant rule: deleting it leaves the policy equivalent | warning |
//! | L003 | conflicting overlap (non-trivial, §3.2 measure) | note |
//! | L004 | empty match (⊥) | warning |
//! | L005 | dangling list reference | error |
//! | L006 | defined list never referenced | note |
//!
//! Given a topology (`clarify-netsim`), [`NetworkLinter`] additionally
//! composes per-neighbor policies along sessions and runs five
//! cross-device checks:
//!
//! | code | check | severity |
//! |------|-------|----------|
//! | L007 | rule dead by upstream filtering | warning |
//! | L008 | route leak (valley-free violation) | error |
//! | L009 | asymmetric session policy | note |
//! | L010 | community set that nothing ever matches | note |
//! | L011 | black-hole import filter | warning |
//!
//! Inline `! lint-allow L0xx` comments suppress diagnostics on the next
//! source line (see [`apply_suppressions`]).
//!
//! Every symbolic check decodes a concrete witness (route, packet, or
//! prefix) where one exists, so a diagnostic is never just "the BDDs say
//! so" — it names an input you can replay through the reference evaluator.
//!
//! The same firing-region analysis behind L001 powers
//! [`prune_candidates`]: the disambiguator in `clarify-core` uses it to
//! discard insertion positions where the new rule would be shadowed,
//! which provably cannot change the chosen configuration but cuts the
//! number of expensive placement comparisons (and thus keeps the question
//! count minimal).
//!
//! ```
//! use clarify_lint::{lint_config, LintCode};
//! use clarify_netconfig::Config;
//!
//! let (cfg, spans) = Config::parse_with_spans(
//!     "ip prefix-list P seq 10 permit 10.0.0.0/8 le 32\n\
//!      ip prefix-list P seq 20 permit 10.0.0.0/16 le 32\n",
//! )
//! .unwrap();
//! let report = lint_config(&cfg, Some(&spans)).unwrap();
//! let shadowed: Vec<_> = report.with_code(LintCode::ShadowedRule).collect();
//! assert_eq!(shadowed.len(), 1);
//! assert_eq!(shadowed[0].line, Some(2));
//! ```

#![warn(missing_docs)]

mod cache;
pub mod cli;
mod diagnostic;
mod incremental;
mod linter;
mod network;
mod prune;
mod sarif;
mod suppress;

pub use cache::{CacheError, CachedObject, LintCache, CACHE_FORMAT};
pub use diagnostic::{Diagnostic, LintCode, LintReport, Severity};
pub use incremental::{lint_config_incremental, IncrStats, IncrementalLinter};
pub use linter::lint_config;
pub use network::{NetworkLintReport, NetworkLinter, RouterLint};
pub use prune::{prune_candidates, PruneOutcome};
pub use sarif::{render_sarif, render_sarif_network};
pub use suppress::{apply_suppressions, suppression_targets};

#[cfg(test)]
mod tests;
