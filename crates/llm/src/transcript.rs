//! Recorded LLM transcripts: versioned JSON, FNV-digested like the lint
//! cache, so a recorded session replays byte-identically offline.
//!
//! A transcript is an ordered list of request/envelope exchanges captured
//! by the [`Recording`] layer, plus optional session metadata (command,
//! configuration, prompt, oracle answers) so a bare
//! `clarify --replay-transcript FILE` can re-run the whole session with
//! zero network and zero user input; [`ReplayBackend`] answers requests
//! from it in place of a base backend. The stack
//! [`BackendStack`](crate::BackendStack) builds is the base backend
//! wrapped only in `Recording`, or the replay backend alone. Recording
//! wraps the base directly and the pipeline checks each exchange around
//! the whole stack, so a transcript holds exactly what the base backend
//! said, and a replayed run meets the same checks, live, as the recorded
//! one did.
//!
//! The trust model is `clarify lint --incremental`'s cache's, shared
//! through `clarify_obs::json`: the file carries a format tag and a
//! checksum over everything semantic. A document that is not
//! transcript-shaped at all is [`DocError::Corrupt`] (a usage error — exit
//! 2 in the CLI); one that parses but has an unknown format version or a
//! tampered checksum is [`DocError::Stale`] — the CLI warns and falls back
//! to the live semantic backend rather than replaying exchanges it cannot
//! trust.

use std::sync::{Arc, Mutex};

use clarify_netconfig::{fnv1a64, fnv1a64_combine};
use clarify_obs::json::{self, DocError, Fields, Value};

use crate::backend::{Backend, LlmRequest, TaskKind};
use crate::envelope::IntentEnvelope;
use crate::error::{BackendError, ReplayError};

/// The format tag written to and expected from transcript files.
pub const TRANSCRIPT_FORMAT: &str = "clarify-llm-transcript/v1";

/// Digest of the semantic content of one request: the task keyword, the
/// user text, and the feedback (if any). System prompts and few-shot
/// examples are deliberately excluded — they come from the prompt
/// database, which may be re-tuned without invalidating transcripts.
pub fn request_digest(task: TaskKind, user: &str, feedback: Option<&str>) -> u64 {
    let mut h = fnv1a64(task.keyword().as_bytes());
    h = fnv1a64_combine(h, fnv1a64(user.as_bytes()));
    match feedback {
        Some(f) => {
            h = fnv1a64_combine(h, 1);
            h = fnv1a64_combine(h, fnv1a64(f.as_bytes()));
        }
        None => h = fnv1a64_combine(h, 0),
    }
    h
}

/// One recorded exchange: the request's semantic content and digest, and
/// the envelope the backend answered with.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TranscriptEntry {
    /// The request's task.
    pub task: TaskKind,
    /// The user text of the request.
    pub user: String,
    /// Verifier feedback carried by the request, if any.
    pub feedback: Option<String>,
    /// [`request_digest`] of the request, checked at replay time.
    pub request_digest: u64,
    /// The backend's reply.
    pub envelope: IntentEnvelope,
}

impl TranscriptEntry {
    /// Builds an entry from a live exchange.
    pub fn from_exchange(request: &LlmRequest, envelope: &IntentEnvelope) -> TranscriptEntry {
        TranscriptEntry {
            task: request.task,
            user: request.user.clone(),
            feedback: request.feedback.clone(),
            request_digest: request_digest(
                request.task,
                &request.user,
                request.feedback.as_deref(),
            ),
            envelope: envelope.clone(),
        }
    }
}

/// Session metadata recorded alongside the exchanges, enough for the CLI
/// to re-run the whole session from the transcript alone.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SessionMeta {
    /// The CLI command (`ask` or `ask-acl`).
    pub command: String,
    /// The configuration text the session ran against, inline.
    pub config: String,
    /// The target object name (route-map or ACL).
    pub target: String,
    /// The user's synthesis prompt.
    pub prompt: String,
    /// The oracle answers given, in order (`"1"` or `"2"`).
    pub answers: Vec<String>,
}

/// A recorded session: optional metadata plus the exchange log.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Transcript {
    /// Session metadata, when recorded by the CLI (recordings made
    /// inside tests may omit it).
    pub session: Option<SessionMeta>,
    /// The exchanges, in request order.
    pub entries: Vec<TranscriptEntry>,
}

impl Transcript {
    /// The checksum over everything semantic: session metadata and every
    /// exchange.
    pub fn digest(&self) -> u64 {
        let mut h = fnv1a64(TRANSCRIPT_FORMAT.as_bytes());
        match &self.session {
            Some(s) => {
                h = fnv1a64_combine(h, 1);
                for text in [&s.command, &s.config, &s.target, &s.prompt] {
                    h = fnv1a64_combine(h, fnv1a64(text.as_bytes()));
                }
                for a in &s.answers {
                    h = fnv1a64_combine(h, fnv1a64(a.as_bytes()));
                }
            }
            None => h = fnv1a64_combine(h, 0),
        }
        for e in &self.entries {
            h = fnv1a64_combine(h, e.request_digest);
            h = fnv1a64_combine(h, fnv1a64(e.envelope.to_json().as_bytes()));
        }
        h
    }

    /// Renders the transcript as a deterministic JSON document.
    pub fn to_json(&self) -> String {
        let session = self.session.as_ref().map(|s| {
            Value::object([
                ("command", s.command.as_str().into()),
                ("config", s.config.as_str().into()),
                ("target", s.target.as_str().into()),
                ("prompt", s.prompt.as_str().into()),
                (
                    "answers",
                    Value::array(s.answers.iter().map(|a| a.as_str().into())),
                ),
            ])
        });
        let entry = |e: &TranscriptEntry| {
            Value::object([
                ("task", e.task.keyword().into()),
                ("user", e.user.as_str().into()),
                ("feedback", e.feedback.as_deref().into()),
                ("request_digest", Value::hex(e.request_digest)),
                ("envelope", e.envelope.to_value()),
            ])
        };
        Value::object([
            ("format", TRANSCRIPT_FORMAT.into()),
            ("checksum", Value::hex(self.digest())),
            ("session", session.into()),
            ("entries", Value::array(self.entries.iter().map(entry))),
        ])
        .to_document()
    }

    /// Parses a transcript document and verifies its format tag and
    /// checksum.
    pub fn from_json(text: &str) -> Result<Transcript, DocError> {
        let (transcript, format, stored) = Transcript::parse(text)?;
        json::check_seal(&format, TRANSCRIPT_FORMAT, stored, transcript.digest())?;
        Ok(transcript)
    }

    /// Parses a transcript document *without* trusting it: format and
    /// checksum are read but not checked. Used after a [`DocError::Stale`] verdict to
    /// recover the session metadata (command, config, prompt) so the CLI
    /// can fall back to a live run of the same session.
    pub fn from_json_unchecked(text: &str) -> Result<Transcript, DocError> {
        Ok(Transcript::parse(text)?.0)
    }

    /// The transcript, its format tag and its stored checksum.
    fn parse(text: &str) -> Result<(Transcript, String, u64), String> {
        let value = json::parse(text)?;
        let mut top = Fields::new(&value, "top level")?;
        let format = top.str("format")?.to_string();
        let checksum = top.req("checksum")?.as_hex("checksum")?;
        let transcript = Transcript {
            session: top.opt("session").map(parse_session).transpose()?,
            entries: top
                .req("entries")?
                .as_array("entries")?
                .iter()
                .map(parse_entry)
                .collect::<Result<_, _>>()?,
        };
        top.done()?;
        Ok((transcript, format, checksum))
    }
}

fn parse_session(v: &Value) -> Result<SessionMeta, String> {
    let mut f = Fields::new(v, "session")?;
    let mut string = |key| f.str(key).map(str::to_string);
    let meta = SessionMeta {
        command: string("command")?,
        config: string("config")?,
        target: string("target")?,
        prompt: string("prompt")?,
        answers: f
            .req("answers")?
            .as_array("answers")?
            .iter()
            .map(|a| a.as_str("answer").map(str::to_string))
            .collect::<Result<_, _>>()?,
    };
    f.done()?;
    Ok(meta)
}

fn parse_entry(v: &Value) -> Result<TranscriptEntry, String> {
    let mut f = Fields::new(v, "entry")?;
    let task = f.str("task")?;
    let entry = TranscriptEntry {
        task: TaskKind::from_keyword(task)
            .ok_or_else(|| format!("unknown task keyword '{task}'"))?,
        user: f.str("user")?.to_string(),
        feedback: f.opt_str("feedback")?.map(str::to_string),
        request_digest: f.req("request_digest")?.as_hex("request_digest")?,
        envelope: IntentEnvelope::from_value(f.req("envelope")?).map_err(|e| e.to_string())?,
    };
    f.done()?;
    Ok(entry)
}

/// Appends every successful exchange to a shared [`Transcript`] sink.
/// Failed requests are not recorded: a transcript holds only what the
/// base backend actually answered, so replaying it cannot re-introduce
/// transport failures.
pub struct Recording<B> {
    inner: B,
    sink: Arc<Mutex<Transcript>>,
}

impl<B: Backend> Recording<B> {
    /// Wraps `inner`, appending exchanges to `sink`.
    pub fn new(inner: B, sink: Arc<Mutex<Transcript>>) -> Recording<B> {
        let _ = clarify_obs::global().counter("llm.mw.record.entries");
        Recording { inner, sink }
    }
}

impl<B: Backend> Backend for Recording<B> {
    fn complete(&mut self, request: &LlmRequest) -> Result<IntentEnvelope, BackendError> {
        let envelope = self.inner.complete(request)?;
        self.sink
            .lock()
            .expect("transcript sink poisoned")
            .entries
            .push(TranscriptEntry::from_exchange(request, &envelope));
        clarify_obs::global()
            .counter("llm.mw.record.entries")
            .incr();
        Ok(envelope)
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }
}

/// A terminal backend that answers requests from a recorded transcript.
///
/// Each request is matched against the next entry by
/// [`request_digest`]; a digest mismatch or an exhausted transcript is a
/// [`BackendError::Replay`], which aborts the session before any
/// configuration commit — a replayed run either reproduces the recording
/// exactly or stops. The transcript is shared (`Arc`) so every `clarify
/// serve` session replays from its own cursor over one loaded file.
pub struct ReplayBackend {
    transcript: Arc<Transcript>,
    cursor: usize,
}

impl ReplayBackend {
    /// Creates a replay backend over `transcript`, starting at entry 0.
    pub fn new(transcript: Arc<Transcript>) -> ReplayBackend {
        let obs = clarify_obs::global();
        let _ = obs.counter("llm.mw.replay.hits");
        let _ = obs.counter("llm.mw.replay.misses");
        ReplayBackend {
            transcript,
            cursor: 0,
        }
    }

    /// Entries served so far.
    pub fn position(&self) -> usize {
        self.cursor
    }
}

impl Backend for ReplayBackend {
    fn complete(&mut self, request: &LlmRequest) -> Result<IntentEnvelope, BackendError> {
        let obs = clarify_obs::global();
        let Some(entry) = self.transcript.entries.get(self.cursor) else {
            obs.counter("llm.mw.replay.misses").incr();
            return Err(BackendError::Replay(ReplayError::Exhausted {
                at: self.cursor,
            }));
        };
        let live = request_digest(request.task, &request.user, request.feedback.as_deref());
        if live != entry.request_digest {
            obs.counter("llm.mw.replay.misses").incr();
            return Err(BackendError::Replay(ReplayError::Mismatch {
                at: self.cursor,
                expected: entry.request_digest,
                got: live,
            }));
        }
        self.cursor += 1;
        obs.counter("llm.mw.replay.hits").incr();
        Ok(entry.envelope.clone())
    }

    fn name(&self) -> &'static str {
        "replay"
    }
}
