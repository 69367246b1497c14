//! The simulated LLM pipeline of Clarify's Figure 1, behind a layered
//! backend stack.
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
//! * **Resolution** ([`Resolver`]) — free-form object names from the
//!   envelope are mapped onto canonical configuration identities, with
//!   typed [`ResolutionError`] punts for anything unresolvable.
//! * **Middleware** — composable [`Retry`],
//!   [`Guardrail`], [`Recording`], and [`ReplayBackend`] layers between
//!   the [`Pipeline`] and any backend, instrumented with `llm.mw.*`
//!   counters.
//! * **Transcripts** ([`Transcript`]) — versioned, FNV-digested JSON
//!   records of every exchange, so any session replays byte-identically
//!   offline.
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
//! [`PromptDb`], synthesis, spec extraction, reference resolution, and
//! symbolic verification (via `clarify-analysis`) into the paper's loop,
//! counting LLM calls the way the paper's Figure 4 does. Swapping
//! backends — semantic, faulty, or transcript replay, with or without
//! middleware — never changes the pipeline, the verifier, or the
//! disambiguators: assemble a stack with [`BackendStack`] and hand it
//! over.

#![warn(missing_docs)]

mod backend;
mod envelope;
mod error;
mod intent;
mod middleware;
mod pipeline;
mod promptdb;
mod resolve;
mod stack;
mod transcript;

pub use backend::{
    Backend, DynBackend, FaultKind, FaultyBackend, LlmRequest, SemanticBackend, TaskKind,
};
pub use envelope::{EnvelopePayload, IntentEnvelope, SchemaError, ENVELOPE_VERSION};
pub use error::{BackendError, LlmError, ReplayError};
pub use intent::{
    AclIntent, AddrIntent, ClassifyError, IntentError, PrefixConstraint, RouteMapIntent, SetIntent,
};
pub use middleware::{Guardrail, Recording, ReplayBackend, Retry};
pub use pipeline::{Pipeline, PipelineOutcome, QueryKind};
pub use promptdb::{PromptDb, PromptEntry};
pub use resolve::{Resolution, ResolutionError, Resolver};
pub use stack::{BackendKind, BackendStack};
pub use transcript::{request_digest, SessionMeta, Transcript, TranscriptEntry, TRANSCRIPT_FORMAT};

#[cfg(test)]
mod tests;
