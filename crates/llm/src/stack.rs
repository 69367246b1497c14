//! Backend stack assembly: one [`BackendStack`] value describes which
//! base backend to run and which transcript layer to attach, and
//! [`build`](BackendStack::build) produces the composed [`DynBackend`]
//! the pipeline uses. Both CLIs (`clarify` one-shot and `clarify serve`)
//! build their backends through this type, so daemon and one-shot
//! sessions run the identical stack.

use std::sync::{Arc, Mutex};

use crate::backend::{DynBackend, FaultyBackend, SemanticBackend};
use crate::transcript::{Recording, ReplayBackend, Transcript};

/// Which base backend a stack runs.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub enum BackendKind {
    /// The deterministic grammar-directed parser (the default).
    #[default]
    Semantic,
    /// The fault injector wrapped around the semantic backend.
    Faulty {
        /// Corruption probability per synthesis call, in `[0, 1]`.
        rate: f64,
        /// RNG seed.
        seed: u64,
    },
}

impl BackendKind {
    /// Parses a `--backend` spec: `semantic` or `faulty[:rate[:seed]]`
    /// (rate defaults to 0.5, seed to 0).
    pub fn parse(spec: &str) -> Result<BackendKind, String> {
        let mut parts = spec.split(':');
        let head = parts.next().unwrap_or("");
        match head {
            "semantic" => match parts.next() {
                None => Ok(BackendKind::Semantic),
                Some(_) => Err(format!("backend 'semantic' takes no options in '{spec}'")),
            },
            "faulty" => {
                let rate = match parts.next() {
                    None => 0.5,
                    Some(r) => r
                        .parse::<f64>()
                        .ok()
                        .filter(|r| (0.0..=1.0).contains(r))
                        .ok_or_else(|| format!("bad error rate '{r}' in '{spec}'"))?,
                };
                let seed = match parts.next() {
                    None => 0,
                    Some(s) => s
                        .parse::<u64>()
                        .map_err(|_| format!("bad seed '{s}' in '{spec}'"))?,
                };
                match parts.next() {
                    None => Ok(BackendKind::Faulty { rate, seed }),
                    Some(_) => Err(format!("too many options in backend spec '{spec}'")),
                }
            }
            other => Err(format!(
                "unknown backend '{other}' (expected 'semantic' or 'faulty[:rate[:seed]]')"
            )),
        }
    }
}

/// A description of one backend stack: the base backend plus optional
/// recording and replay layers. Cloneable so `clarify serve` can build a
/// fresh stack (with its own replay cursor and RNG) per session.
#[derive(Clone, Default)]
pub struct BackendStack {
    /// The base backend.
    pub kind: BackendKind,
    /// When set, a recording layer appends every exchange here.
    pub record: Option<Arc<Mutex<Transcript>>>,
    /// When set, a [`ReplayBackend`] over this transcript substitutes for
    /// the base backend.
    pub replay: Option<Arc<Transcript>>,
}

impl BackendStack {
    /// The default stack: semantic backend, no transcript layers.
    pub fn semantic() -> BackendStack {
        BackendStack::default()
    }

    /// Sets the base backend kind.
    pub fn with_kind(mut self, kind: BackendKind) -> BackendStack {
        self.kind = kind;
        self
    }

    /// Attaches a recording sink.
    pub fn with_record(mut self, sink: Arc<Mutex<Transcript>>) -> BackendStack {
        self.record = Some(sink);
        self
    }

    /// Substitutes transcript replay for the base backend.
    pub fn with_replay(mut self, transcript: Arc<Transcript>) -> BackendStack {
        self.replay = Some(transcript);
        self
    }

    /// Builds the composed stack: `Recording(base)`, or `base` alone
    /// when nothing is recorded, with the replay backend, when
    /// configured, standing in for the base (see the transcript module
    /// docs).
    pub fn build(&self) -> DynBackend {
        let base: DynBackend = match &self.replay {
            Some(t) => Box::new(ReplayBackend::new(t.clone())),
            None => match self.kind {
                BackendKind::Semantic => Box::new(SemanticBackend::new()),
                BackendKind::Faulty { rate, seed } => {
                    Box::new(FaultyBackend::new(SemanticBackend::new(), rate, seed))
                }
            },
        };
        match &self.record {
            Some(sink) => Box::new(Recording::new(base, sink.clone())),
            None => base,
        }
    }

    /// The stack's display name (the base backend's).
    pub fn name(&self) -> &'static str {
        if self.replay.is_some() {
            "replay"
        } else {
            match self.kind {
                BackendKind::Semantic => "semantic",
                BackendKind::Faulty { .. } => "faulty",
            }
        }
    }
}
