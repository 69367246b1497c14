//! The wire protocol: newline-delimited JSON, one request object in, one
//! response object out, over a plain TCP stream.
//!
//! Requests (one per line):
//!
//! ```text
//! {"op":"open","config":"<IOS text>"}
//! {"op":"open","topology":"<topology text>","configs":{"<path>":"<IOS text>",...},
//!  "invariants":[{"kind":"reachable","router":"r2","prefix":"10.0.0.0/8"},...]}
//! {"op":"ask","session":1,"target":"ISP_OUT","intent":"<English>"}          (config session)
//! {"op":"ask","session":1,"router":"r1","target":"ISP_OUT","intent":"..."}  (network session)
//! {"op":"answer","session":1,"choice":1}
//! {"op":"lint","session":1}
//! {"op":"close","session":1}
//! {"op":"ping"}
//! {"op":"shutdown"}
//! ```
//!
//! Responses always carry `"ok"`: `{"ok":true,...}` on success,
//! `{"ok":false,"error":{"code":"...","message":"..."}}` otherwise. Error
//! codes: `oversized-frame`, `bad-json`, `bad-request`, `unknown-op`,
//! `unknown-session`, `turn-in-flight`, `no-turn`, `busy`, `intent-error`,
//! `backend-error`, `internal`. Malformed input never kills the daemon:
//! every failure maps to an error frame, and only `oversized-frame`
//! additionally closes the offending connection (the line cannot be
//! re-synchronized).

use clarify_core::{Choice, Invariant};
use clarify_obs::json::{self, Fields, Value};

/// One parsed client request.
#[derive(Debug)]
pub enum Request {
    /// Open a single-config session.
    OpenConfig {
        /// The base configuration text.
        config: String,
    },
    /// Open a network session over a topology.
    OpenNetwork {
        /// The topology file text.
        topology: String,
        /// `config` path → file text, resolving the topology's references.
        configs: Vec<(String, String)>,
        /// Invariants every committed update must preserve.
        invariants: Vec<Invariant>,
    },
    /// Start a disambiguation turn.
    Ask {
        /// Target session.
        session: u64,
        /// Route-map (or ACL) name to insert into.
        target: String,
        /// Router name (network sessions only).
        router: Option<String>,
        /// The English intent.
        intent: String,
    },
    /// Answer the pending question.
    Answer {
        /// Target session.
        session: u64,
        /// The chosen option.
        choice: Choice,
    },
    /// Lint the session's current configuration.
    Lint {
        /// Target session.
        session: u64,
    },
    /// Close the session.
    Close {
        /// Target session.
        session: u64,
    },
    /// Liveness probe.
    Ping,
    /// Stop the daemon.
    Shutdown,
}

/// A structured protocol error: a machine-readable code plus a message.
pub struct ProtoError {
    /// One of the documented error codes.
    pub code: &'static str,
    /// Human-readable detail.
    pub message: String,
}

impl ProtoError {
    /// A `bad-request` error.
    pub fn bad(message: impl Into<String>) -> ProtoError {
        ProtoError {
            code: "bad-request",
            message: message.into(),
        }
    }

    /// Renders the `{"ok":false,...}` frame (no trailing newline).
    pub fn frame(&self) -> String {
        format!(
            "{{\"ok\":false,\"error\":{{\"code\":{},\"message\":{}}}}}",
            json::escape(self.code),
            json::escape(&self.message)
        )
    }
}

/// A request whose JSON is well-formed but whose shape is wrong.
impl From<String> for ProtoError {
    fn from(message: String) -> ProtoError {
        ProtoError::bad(message)
    }
}

fn parse_invariant(v: &Value) -> Result<Invariant, ProtoError> {
    let mut f = Fields::new(v, "invariant")?;
    let kind = f.str("kind")?;
    let router = f.str("router")?.to_string();
    let prefix = f
        .str("prefix")?
        .parse()
        .map_err(|e| ProtoError::bad(format!("invariant prefix: {e}")))?;
    match kind {
        "reachable" => Ok(Invariant::Reachable { router, prefix }),
        "unreachable" => Ok(Invariant::Unreachable { router, prefix }),
        "prefers-via" => Ok(Invariant::PrefersVia {
            router,
            prefix,
            neighbor: f.str("neighbor")?.to_string(),
        }),
        "locally-originated" => Ok(Invariant::LocallyOriginated { router, prefix }),
        other => Err(ProtoError::bad(format!("unknown invariant kind '{other}'"))),
    }
}

/// Parses one request line. JSON syntax errors map to `bad-json`; a
/// well-formed object with a wrong shape (including a repeated key) maps
/// to `bad-request` / `unknown-op`. Keys a request does not use are
/// ignored.
pub fn parse_request(line: &str) -> Result<Request, ProtoError> {
    let doc = json::parse(line).map_err(|e| ProtoError {
        code: "bad-json",
        message: e,
    })?;
    let mut f = Fields::new(&doc, "request")?;
    let session = |f: &mut Fields| f.req("session")?.as_u64("session");
    match f.str("op")? {
        "open" => {
            if let Some(config) = f.opt("config") {
                let config = config.as_str("config")?.to_string();
                return Ok(Request::OpenConfig { config });
            }
            let topology = f.str("topology")?.to_string();
            let configs = match f.opt("configs") {
                None => Vec::new(),
                Some(v) => Fields::new(v, "configs")?
                    .members()
                    .iter()
                    .map(|(path, text)| {
                        Ok((path.clone(), text.as_str("configs value")?.to_string()))
                    })
                    .collect::<Result<_, String>>()?,
            };
            let invariants = match f.opt("invariants") {
                None => Vec::new(),
                Some(v) => v
                    .as_array("invariants")?
                    .iter()
                    .map(parse_invariant)
                    .collect::<Result<_, _>>()?,
            };
            Ok(Request::OpenNetwork {
                topology,
                configs,
                invariants,
            })
        }
        "ask" => Ok(Request::Ask {
            session: session(&mut f)?,
            target: f.str("target")?.to_string(),
            router: f.opt_str("router")?.map(str::to_string),
            intent: f.str("intent")?.to_string(),
        }),
        "answer" => Ok(Request::Answer {
            session: session(&mut f)?,
            choice: match f.req("choice")?.as_u64("choice")? {
                1 => Choice::First,
                2 => Choice::Second,
                other => {
                    return Err(ProtoError::bad(format!(
                        "choice must be 1 or 2, got {other}"
                    )))
                }
            },
        }),
        "lint" => Ok(Request::Lint {
            session: session(&mut f)?,
        }),
        "close" => Ok(Request::Close {
            session: session(&mut f)?,
        }),
        "ping" => Ok(Request::Ping),
        "shutdown" => Ok(Request::Shutdown),
        other => Err(ProtoError {
            code: "unknown-op",
            message: format!("unknown op '{other}'"),
        }),
    }
}

/// Incremental JSON object writer for response frames and the objects
/// nested in them. Purely syntactic — callers pass pre-escaped raw
/// fragments only via [`Frame::raw`].
pub struct Frame {
    out: String,
    /// No field written yet: the next one takes no separating comma.
    first: bool,
}

impl Frame {
    /// Starts an empty object.
    pub fn object() -> Frame {
        Frame {
            out: String::from("{"),
            first: true,
        }
    }

    /// Starts a response frame: an object with `"ok"` set.
    pub fn ok(ok: bool) -> Frame {
        Frame::object().bool("ok", ok)
    }

    fn key(&mut self, k: &str) {
        if !self.first {
            self.out.push(',');
        }
        self.first = false;
        self.out.push_str(&json::escape(k));
        self.out.push(':');
    }

    /// Adds a string field (escaped).
    pub fn str(mut self, k: &str, v: &str) -> Frame {
        self.key(k);
        self.out.push_str(&json::escape(v));
        self
    }

    /// Adds an unsigned integer field.
    pub fn u64(mut self, k: &str, v: u64) -> Frame {
        self.key(k);
        self.out.push_str(&v.to_string());
        self
    }

    /// Adds a boolean field.
    pub fn bool(mut self, k: &str, v: bool) -> Frame {
        self.key(k);
        self.out.push_str(if v { "true" } else { "false" });
        self
    }

    /// Adds a raw, already-serialized JSON fragment.
    pub fn raw(mut self, k: &str, v: &str) -> Frame {
        self.key(k);
        self.out.push_str(v);
        self
    }

    /// Closes the object.
    pub fn finish(mut self) -> String {
        self.out.push('}');
        self.out
    }
}

/// Renders a JSON array of strings.
pub fn string_array(items: &[String]) -> String {
    let mut out = String::from("[");
    for (i, s) in items.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&json::escape(s));
    }
    out.push(']');
    out
}
