//! LLM-pipeline errors.

use crate::intent::IntentError;

/// A typed error from a backend. Of this crate's backends only
/// transcript replay can fail; a wrong or out-of-schema answer is not an
/// error but retry feedback or a punt, decided by the pipeline.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum BackendError {
    /// Transcript replay could not serve the request.
    Replay(ReplayError),
}

impl std::fmt::Display for BackendError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BackendError::Replay(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for BackendError {}

/// Why a transcript replay failed. Replay failures abort the session
/// *before* any configuration commit — a replayed run either reproduces
/// the recording exactly or stops.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ReplayError {
    /// The transcript ran out of entries.
    Exhausted {
        /// Number of entries consumed before exhaustion.
        at: usize,
    },
    /// The live request did not match the recorded one at this position.
    Mismatch {
        /// Zero-based transcript position of the mismatch.
        at: usize,
        /// The recorded request digest.
        expected: u64,
        /// The live request digest.
        got: u64,
    },
}

impl std::fmt::Display for ReplayError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReplayError::Exhausted { at } => {
                write!(f, "transcript exhausted after {at} entr{}", plural_y(*at))
            }
            ReplayError::Mismatch { at, expected, got } => write!(
                f,
                "transcript mismatch at entry {at}: recorded request digest \
                 {expected:016x}, live request digest {got:016x}"
            ),
        }
    }
}

fn plural_y(n: usize) -> &'static str {
    if n == 1 {
        "y"
    } else {
        "ies"
    }
}

impl std::error::Error for ReplayError {}

/// Errors surfaced by the synthesis pipeline.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum LlmError {
    /// The user prompt could not be understood as a synthesis intent.
    Intent(IntentError),
    /// The backend classified the query as something the pipeline does not
    /// support.
    UnsupportedQuery(String),
    /// The machine-readable spec emitted by the backend failed to parse —
    /// a pipeline bug or a hostile backend, never retried.
    MalformedSpec(String),
    /// Symbolic verification failed internally (not a mismatch — a real
    /// error such as an oversized field value).
    Analysis(String),
    /// The backend failed in a way the pipeline cannot absorb (a replay
    /// abort).
    Backend(BackendError),
}

impl From<IntentError> for LlmError {
    fn from(e: IntentError) -> Self {
        LlmError::Intent(e)
    }
}

impl From<BackendError> for LlmError {
    fn from(e: BackendError) -> Self {
        LlmError::Backend(e)
    }
}

impl std::fmt::Display for LlmError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LlmError::Intent(e) => write!(f, "could not understand the prompt: {e}"),
            LlmError::UnsupportedQuery(k) => write!(f, "unsupported query kind '{k}'"),
            LlmError::MalformedSpec(s) => write!(f, "malformed specification: {s}"),
            LlmError::Analysis(s) => write!(f, "verification error: {s}"),
            LlmError::Backend(e) => write!(f, "backend error: {e}"),
        }
    }
}

impl std::error::Error for LlmError {}
