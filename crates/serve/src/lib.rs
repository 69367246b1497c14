//! `clarify-serve` — clarify-as-a-service: a session daemon for the
//! interactive disambiguation loop.
//!
//! The one-shot CLI pays the full cost of parsing, symbolic space
//! construction, and pipeline setup on every invocation. This crate keeps
//! that state *warm* across a conversation: a daemon holds a table of
//! live sessions, each owning a configuration (or a whole simulated
//! network), a [`clarify_core::ClarifySession`] whose packet space serves
//! every ACL turn, and an incremental linter. The protocol is deliberately
//! primitive — newline-delimited JSON over a plain
//! [`std::net::TcpListener`], no HTTP, no external crates — so the
//! workspace stays hermetic and a session can be driven from `nc`.
//!
//! The turn structure is the paper's interaction loop, the same
//! [`clarify_core::Turn`] the one-shot CLI drives: `ask` runs classify →
//! synthesize → verify once and precomputes the full disambiguation plan;
//! each `answer` replays the plan in memory and returns either the next
//! question or the final placement. This crate adds only the protocol
//! framing and the pending-turn state machine. See [`proto`] for the wire
//! format and [`server`] for the concurrency and eviction model.

#![warn(missing_docs)]

pub mod clock;
pub mod proto;
pub mod server;
pub mod session;
mod wheel;

pub use clock::{Clock, ManualClock, SystemClock};
pub use proto::{parse_request, ProtoError, Request};
pub use server::{Server, ServerConfig, Shared};
pub use session::Session;
pub use wheel::DeadlineWheel;

#[cfg(test)]
mod tests;
