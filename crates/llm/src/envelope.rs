//! The schema-constrained backend contract.
//!
//! Every backend — deterministic parser, fault injector, transcript
//! replay, or a future live LLM — answers a request with an
//! [`IntentEnvelope`]: a versioned, task-tagged document whose payload is
//! constrained by a fixed schema. The pipeline validates every envelope
//! ([`IntentEnvelope::validate`]) as it crosses the backend boundary, so
//! out-of-schema output ends in a punt there instead of surfacing as a
//! parse error three layers deeper.
//!
//! The JSON form ([`IntentEnvelope::to_value`] / [`from_value`]) doubles as
//! the transcript wire format: a recorded envelope deserializes to a
//! byte-identical document, which is what makes offline replay exact.
//!
//! [`from_value`]: IntentEnvelope::from_value

use clarify_obs::json::{self, Fields, Value};

use crate::backend::TaskKind;

/// The envelope schema version this build writes and accepts.
pub const ENVELOPE_VERSION: u32 = 1;

/// Longest accepted payload text; anything bigger is out of schema.
const MAX_TEXT_BYTES: usize = 1 << 20;

/// Most free-form object references one envelope may carry.
const MAX_REFERENCES: usize = 64;

/// An envelope that does not conform to the backend contract.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SchemaError {
    /// What was out of schema.
    pub message: String,
}

impl std::fmt::Display for SchemaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "envelope schema violation: {}", self.message)
    }
}

impl std::error::Error for SchemaError {}

fn schema(message: impl Into<String>) -> SchemaError {
    SchemaError {
        message: message.into(),
    }
}

/// The task-dependent body of an [`IntentEnvelope`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum EnvelopePayload {
    /// A [`TaskKind::Classify`] verdict: `"route-map"` or `"acl"`.
    Classification {
        /// The query kind keyword.
        kind: String,
    },
    /// Synthesized IOS configuration text (route-map or ACL synthesis).
    Config {
        /// The configuration snippet.
        text: String,
    },
    /// The machine-readable spec in the line-based exchange format.
    Spec {
        /// The spec text.
        text: String,
    },
    /// The backend declined: the prompt was outside the constrained
    /// grammar (or a policy refusal from a live backend).
    Refusal {
        /// Why the request was refused.
        reason: String,
    },
}

impl EnvelopePayload {
    fn keyword(&self) -> &'static str {
        match self {
            EnvelopePayload::Classification { .. } => "classification",
            EnvelopePayload::Config { .. } => "config",
            EnvelopePayload::Spec { .. } => "spec",
            EnvelopePayload::Refusal { .. } => "refusal",
        }
    }
}

/// One backend reply: version, task echo, payload, and the names of the
/// lists the backend claims the payload defines (the pipeline checks
/// each one against the parsed snippet, exactly as spelled).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct IntentEnvelope {
    /// Schema version ([`ENVELOPE_VERSION`] for documents this build
    /// produces).
    pub version: u32,
    /// The task this envelope answers.
    pub task: TaskKind,
    /// The task-dependent body.
    pub payload: EnvelopePayload,
    /// Free-form names of configuration objects the payload references.
    pub references: Vec<String>,
}

impl IntentEnvelope {
    /// A classification envelope.
    pub fn classification(kind: impl Into<String>) -> IntentEnvelope {
        IntentEnvelope {
            version: ENVELOPE_VERSION,
            task: TaskKind::Classify,
            payload: EnvelopePayload::Classification { kind: kind.into() },
            references: Vec::new(),
        }
    }

    /// A synthesized-configuration envelope carrying `references`.
    pub fn config(
        task: TaskKind,
        text: impl Into<String>,
        references: Vec<String>,
    ) -> IntentEnvelope {
        IntentEnvelope {
            version: ENVELOPE_VERSION,
            task,
            payload: EnvelopePayload::Config { text: text.into() },
            references,
        }
    }

    /// A spec envelope.
    pub fn spec(text: impl Into<String>) -> IntentEnvelope {
        IntentEnvelope {
            version: ENVELOPE_VERSION,
            task: TaskKind::ExtractSpec,
            payload: EnvelopePayload::Spec { text: text.into() },
            references: Vec::new(),
        }
    }

    /// A refusal envelope.
    pub fn refusal(task: TaskKind, reason: impl Into<String>) -> IntentEnvelope {
        IntentEnvelope {
            version: ENVELOPE_VERSION,
            task,
            payload: EnvelopePayload::Refusal {
                reason: reason.into(),
            },
            references: Vec::new(),
        }
    }

    /// Checks the envelope against the schema: known version, payload
    /// kind legal for the task, classification keyword in its closed set,
    /// size caps on text and references.
    pub fn validate(&self) -> Result<(), SchemaError> {
        if self.version != ENVELOPE_VERSION {
            return Err(schema(format!(
                "version {} is not the supported version {ENVELOPE_VERSION}",
                self.version
            )));
        }
        match (&self.task, &self.payload) {
            (TaskKind::Classify, EnvelopePayload::Classification { kind }) => {
                if kind != "route-map" && kind != "acl" {
                    return Err(schema(format!(
                        "classification '{kind}' is not in the closed set {{route-map, acl}}"
                    )));
                }
            }
            (
                TaskKind::SynthesizeRouteMap | TaskKind::SynthesizeAcl,
                EnvelopePayload::Config { text },
            ) => {
                if text.trim().is_empty() {
                    return Err(schema("synthesized configuration is empty"));
                }
                if text.len() > MAX_TEXT_BYTES {
                    return Err(schema(format!(
                        "synthesized configuration exceeds {MAX_TEXT_BYTES} bytes"
                    )));
                }
            }
            (TaskKind::ExtractSpec, EnvelopePayload::Spec { text }) => {
                if text.trim().is_empty() {
                    return Err(schema("extracted spec is empty"));
                }
                if text.len() > MAX_TEXT_BYTES {
                    return Err(schema(format!(
                        "extracted spec exceeds {MAX_TEXT_BYTES} bytes"
                    )));
                }
            }
            (_, EnvelopePayload::Refusal { reason }) => {
                if reason.trim().is_empty() {
                    return Err(schema("refusal carries no reason"));
                }
            }
            (task, payload) => {
                return Err(schema(format!(
                    "payload '{}' is not legal for task '{}'",
                    payload.keyword(),
                    task.keyword()
                )));
            }
        }
        if self.references.len() > MAX_REFERENCES {
            return Err(schema(format!(
                "{} references exceed the cap of {MAX_REFERENCES}",
                self.references.len()
            )));
        }
        for r in &self.references {
            if r.trim().is_empty() || r.len() > 256 {
                return Err(schema("reference names must be non-empty and short"));
            }
        }
        Ok(())
    }

    /// The envelope as one JSON object (field order is fixed).
    pub fn to_value(&self) -> Value {
        let (field, text) = match &self.payload {
            EnvelopePayload::Classification { kind } => ("kind", kind),
            EnvelopePayload::Config { text } | EnvelopePayload::Spec { text } => ("text", text),
            EnvelopePayload::Refusal { reason } => ("reason", reason),
        };
        Value::object([
            ("version", self.version.into()),
            ("task", self.task.keyword().into()),
            ("payload", self.payload.keyword().into()),
            (field, text.as_str().into()),
            (
                "references",
                Value::array(self.references.iter().map(|r| r.as_str().into())),
            ),
        ])
    }

    /// Renders [`IntentEnvelope::to_value`] on one line (no trailing
    /// newline).
    pub fn to_json(&self) -> String {
        self.to_value().to_string()
    }

    /// Parses and validates an envelope document.
    pub fn from_json(text: &str) -> Result<IntentEnvelope, SchemaError> {
        let value = json::parse(text).map_err(schema)?;
        IntentEnvelope::from_value(&value)
    }

    /// Parses and validates an envelope from an already-parsed JSON value
    /// (transcripts embed envelopes inside a larger document).
    pub fn from_value(value: &Value) -> Result<IntentEnvelope, SchemaError> {
        let envelope = IntentEnvelope::read(value).map_err(schema)?;
        envelope.validate()?;
        Ok(envelope)
    }

    fn read(value: &Value) -> Result<IntentEnvelope, String> {
        let mut f = Fields::new(value, "envelope")?;
        let version = f.req("version")?.as_u64("version")?;
        let version = u32::try_from(version).map_err(|_| {
            format!("version {version} is not the supported version {ENVELOPE_VERSION}")
        })?;
        let task = f.str("task")?;
        let task =
            TaskKind::from_keyword(task).ok_or_else(|| format!("unknown task keyword '{task}'"))?;
        let mut string = |key| f.str(key).map(str::to_string);
        let payload = match string("payload")?.as_str() {
            "classification" => EnvelopePayload::Classification {
                kind: string("kind")?,
            },
            "config" => EnvelopePayload::Config {
                text: string("text")?,
            },
            "spec" => EnvelopePayload::Spec {
                text: string("text")?,
            },
            "refusal" => EnvelopePayload::Refusal {
                reason: string("reason")?,
            },
            other => return Err(format!("unknown payload kind '{other}'")),
        };
        let references = f
            .req("references")?
            .as_array("references")?
            .iter()
            .map(|r| r.as_str("reference").map(str::to_string))
            .collect::<Result<_, _>>()?;
        f.done()?;
        Ok(IntentEnvelope {
            version,
            task,
            payload,
            references,
        })
    }
}
