//! The simulated LLM pipeline of Clarify's Figure 1, behind a pluggable
//! backend.
//!
//! The paper drives its prototype with GPT-4 behind three prompts: a query
//! **classifier** (route-map vs ACL synthesis), a **synthesizer** that
//! emits one configuration stanza in Cisco IOS syntax, and a **spec
//! extractor** that turns the user prompt into a machine-readable JSON
//! spec. This crate reproduces the pipeline behind a pluggable
//! [`Backend`] contract organized as layers:
//!
//! * **Envelope** ([`IntentEnvelope`]) — every backend reply is a
//!   versioned, schema-validated document; free text never crosses the
//!   backend boundary.
//! * **Checked exchange** — [`Pipeline`] is the one place an exchange is
//!   checked: the prompt guard (empty, oversized, injection-marked) runs
//!   before the backend, the envelope's schema and task echo after it,
//!   and a failed check ends the intent in a punt. A synthesized snippet
//!   must define, spelled exactly, every list it matches on and every
//!   list its envelope names, or the attempt is retried with the
//!   dangling name as feedback.
//! * **Transcripts** ([`Recording`], [`ReplayBackend`], [`Transcript`]) —
//!   versioned, FNV-digested JSON records of every exchange, so any
//!   session replays byte-identically offline.
//!
//! Two base backends prove the contract carries different behaviours:
//!
//! * [`SemanticBackend`] — a deterministic grammar-directed semantic parser
//!   over the same constrained English the paper's few-shot examples pin
//!   down. It plays the role of a *perfect* LLM (the paper reports GPT-4
//!   synthesized every stanza correctly in one pass on its workload).
//! * [`FaultyBackend`] — wraps any backend and corrupts synthesized
//!   configurations with a seeded error model, exercising the
//!   verify-retry-punt cycle of Figure 1 the way a misbehaving LLM would.
//!
//! The [`Pipeline`] wires classification, few-shot retrieval from the
//! [`PromptDb`], synthesis, spec extraction, the reference check, and
//! symbolic verification (via `clarify-analysis`) into the paper's loop,
//! counting LLM calls the way the paper's Figure 4 does. Swapping
//! backends — semantic, faulty, or transcript replay, recorded or not —
//! never changes the pipeline, the verifier, or the disambiguators:
//! assemble a stack with [`BackendStack`] and hand it over.

#![warn(missing_docs)]

mod backend;
mod envelope;
mod error;
mod intent;
mod pipeline;
mod promptdb;
mod stack;
mod transcript;

pub use backend::{
    Backend, DynBackend, FaultKind, FaultyBackend, LlmRequest, SemanticBackend, TaskKind,
};
pub use envelope::{EnvelopePayload, IntentEnvelope, SchemaError, ENVELOPE_VERSION};
pub use error::{BackendError, LlmError, ReplayError};
pub use intent::{AclIntent, AddrIntent, IntentError, PrefixConstraint, RouteMapIntent, SetIntent};
pub use pipeline::{Pipeline, PipelineOutcome, QueryKind};
pub use promptdb::{PromptDb, PromptEntry};
pub use stack::{BackendKind, BackendStack};
pub use transcript::{
    request_digest, Recording, ReplayBackend, SessionMeta, Transcript, TranscriptEntry,
    TRANSCRIPT_FORMAT,
};

#[cfg(test)]
mod tests;
