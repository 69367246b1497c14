//! LLM backends: the [`Backend`] trait (the envelope contract), the
//! deterministic semantic backend, and the fault-injecting wrapper.

use clarify_rng::{Rng, StdRng};

use clarify_analysis::StanzaSpec;
use clarify_netconfig::RouteMapMatch;

use crate::envelope::IntentEnvelope;
use crate::error::BackendError;
use crate::intent::{is_acl_prompt, AclIntent, RouteMapIntent};

/// Which of the pipeline's prompts a request carries.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum TaskKind {
    /// Classify the query as route-map or ACL synthesis (step 1 of Fig. 1).
    Classify,
    /// Synthesize a single route-map stanza in IOS syntax.
    SynthesizeRouteMap,
    /// Synthesize a single ACL entry in IOS syntax.
    SynthesizeAcl,
    /// Extract the machine-readable spec from the user prompt.
    ExtractSpec,
}

impl TaskKind {
    /// The stable keyword used in envelopes and transcripts.
    pub fn keyword(&self) -> &'static str {
        match self {
            TaskKind::Classify => "classify",
            TaskKind::SynthesizeRouteMap => "synthesize-route-map",
            TaskKind::SynthesizeAcl => "synthesize-acl",
            TaskKind::ExtractSpec => "extract-spec",
        }
    }

    /// Parses a [`keyword`](TaskKind::keyword) back into the kind.
    pub fn from_keyword(s: &str) -> Option<TaskKind> {
        match s {
            "classify" => Some(TaskKind::Classify),
            "synthesize-route-map" => Some(TaskKind::SynthesizeRouteMap),
            "synthesize-acl" => Some(TaskKind::SynthesizeAcl),
            "extract-spec" => Some(TaskKind::ExtractSpec),
            _ => None,
        }
    }
}

/// One request to the LLM: system prompt, few-shot examples, user text.
#[derive(Clone, Debug)]
pub struct LlmRequest {
    /// The task this request performs.
    pub task: TaskKind,
    /// System prompt retrieved from the prompt database.
    pub system: String,
    /// Few-shot examples `(user, assistant)`.
    pub examples: Vec<(String, String)>,
    /// The user's prompt.
    pub user: String,
    /// Verifier feedback from the previous failed attempt, if any.
    pub feedback: Option<String>,
}

/// Anything that can play the LLM's role in the pipeline.
///
/// A backend answers every request with a schema-constrained
/// [`IntentEnvelope`] or a typed [`BackendError`]; free text never crosses
/// this boundary. The deterministic [`SemanticBackend`], the
/// [`FaultyBackend`] wrapper, the transcript
/// [`ReplayBackend`](crate::ReplayBackend) and the
/// [`Recording`](crate::Recording) layer all implement this one trait, so
/// a recorded backend is itself a backend, and swapping stacks never
/// touches the pipeline, the verifier, or the disambiguators.
pub trait Backend {
    /// Completes one request.
    fn complete(&mut self, request: &LlmRequest) -> Result<IntentEnvelope, BackendError>;

    /// A short name for logs and experiment output. Wrapping layers
    /// delegate to the backend they wrap.
    fn name(&self) -> &'static str {
        "backend"
    }
}

impl<B: Backend + ?Sized> Backend for Box<B> {
    fn complete(&mut self, request: &LlmRequest) -> Result<IntentEnvelope, BackendError> {
        (**self).complete(request)
    }

    fn name(&self) -> &'static str {
        (**self).name()
    }
}

/// A boxed backend stack, as built by [`BackendStack`](crate::BackendStack).
/// `Send` so `clarify serve` sessions can migrate across worker threads.
pub type DynBackend = Box<dyn Backend + Send>;

/// A deterministic grammar-directed "LLM": parses the constrained English
/// intent and emits exactly correct IOS configuration / spec text. Plays
/// the part of the paper's GPT-4, which synthesized every stanza correctly
/// in a single pass on the evaluation workload.
#[derive(Clone, Debug, Default)]
pub struct SemanticBackend;

impl SemanticBackend {
    /// Creates the backend.
    pub fn new() -> SemanticBackend {
        SemanticBackend
    }
}

/// Renders a [`StanzaSpec`] in the line-based exchange format the pipeline
/// parses back (the JSON of the paper is produced separately for display).
pub(crate) fn render_route_spec(spec: &StanzaSpec) -> String {
    let mut out = String::new();
    out.push_str(if spec.permit {
        "action permit\n"
    } else {
        "action deny\n"
    });
    for r in &spec.prefixes {
        out.push_str(&format!("prefix {r}\n"));
    }
    for c in &spec.communities {
        out.push_str(&format!("community {c}\n"));
    }
    for p in &spec.as_paths {
        out.push_str(&format!("as-path {p}\n"));
    }
    let matches = [
        spec.local_pref.map(RouteMapMatch::LocalPref),
        spec.metric.map(RouteMapMatch::Metric),
        spec.tag.map(RouteMapMatch::Tag),
    ];
    for m in matches.iter().flatten() {
        out.push_str(&format!("{m}\n"));
    }
    for s in &spec.sets {
        out.push_str(&format!("{s}\n"));
    }
    out
}

/// Ancillary object names defined by a synthesized snippet, in
/// definition order — the envelope references the pipeline checks
/// against the parsed configuration.
fn snippet_references(cfg: &clarify_netconfig::Config) -> Vec<String> {
    let mut refs: Vec<String> = Vec::new();
    refs.extend(cfg.prefix_lists.keys().cloned());
    refs.extend(cfg.as_path_lists.keys().cloned());
    refs.extend(cfg.community_lists.keys().cloned());
    refs
}

impl Backend for SemanticBackend {
    fn complete(&mut self, request: &LlmRequest) -> Result<IntentEnvelope, BackendError> {
        let envelope = match request.task {
            TaskKind::Classify => {
                if is_acl_prompt(&request.user) {
                    IntentEnvelope::classification("acl")
                } else {
                    IntentEnvelope::classification("route-map")
                }
            }
            TaskKind::SynthesizeRouteMap => match RouteMapIntent::parse(&request.user) {
                Ok(intent) => match intent.to_snippet() {
                    Ok((cfg, _)) => IntentEnvelope::config(
                        request.task,
                        cfg.to_string(),
                        snippet_references(&cfg),
                    ),
                    Err(e) => IntentEnvelope::refusal(request.task, e.to_string()),
                },
                Err(e) => IntentEnvelope::refusal(request.task, e.to_string()),
            },
            TaskKind::SynthesizeAcl => match AclIntent::parse(&request.user) {
                Ok(intent) => IntentEnvelope::config(
                    request.task,
                    format!("ip access-list extended NEW_RULE\n{}\n", intent.to_entry()),
                    Vec::new(),
                ),
                Err(e) => IntentEnvelope::refusal(request.task, e.to_string()),
            },
            TaskKind::ExtractSpec => {
                if is_acl_prompt(&request.user) {
                    match AclIntent::parse(&request.user) {
                        Ok(intent) => IntentEnvelope::spec(format!(
                            "ip access-list extended SPEC\n{}\n",
                            intent.to_entry()
                        )),
                        Err(e) => IntentEnvelope::refusal(request.task, e.to_string()),
                    }
                } else {
                    match RouteMapIntent::parse(&request.user).and_then(|i| i.to_spec()) {
                        Ok(spec) => IntentEnvelope::spec(render_route_spec(&spec)),
                        Err(e) => IntentEnvelope::refusal(request.task, e.to_string()),
                    }
                }
            }
        };
        Ok(envelope)
    }

    fn name(&self) -> &'static str {
        "semantic"
    }
}

/// The kinds of corruption the fault injector can apply to a synthesized
/// configuration, modelling characteristic LLM mistakes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultKind {
    /// An off-by-one in a prefix-length bound (`le 23` → `le 22`).
    OffByOneBound,
    /// A wrong value in a set clause (`set metric 55` → `set metric 56`).
    WrongSetValue,
    /// Permit/deny flipped on the stanza.
    WrongAction,
    /// Outright syntax garbage appended.
    SyntaxError,
}

const ALL_FAULTS: [FaultKind; 4] = [
    FaultKind::OffByOneBound,
    FaultKind::WrongSetValue,
    FaultKind::WrongAction,
    FaultKind::SyntaxError,
];

/// Wraps a backend and corrupts synthesized configuration payloads with
/// probability `error_rate` per call, using a seeded RNG for
/// reproducibility. Classification, spec extraction, and refusals are
/// left intact (the paper's user checks the spec by hand, so the
/// verification loop assumes it).
///
/// `FaultyBackend` is itself just a [`Backend`]: `--backend faulty` runs
/// it as the base of the standard stack, where it is recorded and its
/// replies are checked like any other backend's.
pub struct FaultyBackend<B> {
    inner: B,
    error_rate: f64,
    rng: StdRng,
    injected: usize,
    heeds_feedback: bool,
}

impl<B: Backend> FaultyBackend<B> {
    /// Creates a faulty wrapper with the given error rate in `[0, 1]`.
    pub fn new(inner: B, error_rate: f64, seed: u64) -> FaultyBackend<B> {
        assert!((0.0..=1.0).contains(&error_rate), "rate out of range");
        FaultyBackend {
            inner,
            error_rate,
            rng: StdRng::seed_from_u64(seed),
            injected: 0,
            heeds_feedback: false,
        }
    }

    /// Makes the simulated LLM *repair on feedback*: a request that
    /// carries verifier feedback from a failed attempt is answered
    /// correctly. Models an LLM that reliably fixes its output once the
    /// verifier pinpoints the error — the behaviour the paper's feedback
    /// cycle banks on — and enables the E7 feedback ablation.
    pub fn heeding_feedback(mut self) -> FaultyBackend<B> {
        self.heeds_feedback = true;
        self
    }

    /// Number of corruptions injected so far.
    pub fn injected(&self) -> usize {
        self.injected
    }

    fn corrupt(&mut self, text: &str) -> String {
        // Try fault kinds starting from a random one until one applies.
        let start = self.rng.gen_range(0..ALL_FAULTS.len());
        for k in 0..ALL_FAULTS.len() {
            let kind = ALL_FAULTS[(start + k) % ALL_FAULTS.len()];
            if let Some(out) = apply_fault(kind, text) {
                self.injected += 1;
                return out;
            }
        }
        text.to_string()
    }
}

/// Applies one fault kind to IOS text, or `None` if it is inapplicable.
pub(crate) fn apply_fault(kind: FaultKind, text: &str) -> Option<String> {
    match kind {
        FaultKind::OffByOneBound => {
            // Find " le N" and decrement N.
            let idx = text.find(" le ")?;
            let rest = &text[idx + 4..];
            let num: String = rest.chars().take_while(|c| c.is_ascii_digit()).collect();
            let n: u32 = num.parse().ok()?;
            if n == 0 {
                return None;
            }
            Some(format!(
                "{} le {}{}",
                &text[..idx],
                n - 1,
                &rest[num.len()..]
            ))
        }
        FaultKind::WrongSetValue => {
            let idx = text
                .find("set metric ")
                .map(|i| i + 11)
                .or_else(|| text.find("set local-preference ").map(|i| i + 21))?;
            let rest = &text[idx..];
            let num: String = rest.chars().take_while(|c| c.is_ascii_digit()).collect();
            let n: u32 = num.parse().ok()?;
            Some(format!("{}{}{}", &text[..idx], n + 1, &rest[num.len()..]))
        }
        FaultKind::WrongAction => {
            if let Some(idx) = text.find(" permit ") {
                // Only flip route-map / ACL rule actions, not list entries:
                // good enough for fault injection either way.
                Some(format!("{} deny {}", &text[..idx], &text[idx + 8..]))
            } else {
                text.find(" deny ")
                    .map(|idx| format!("{} permit {}", &text[..idx], &text[idx + 6..]))
            }
        }
        FaultKind::SyntaxError => Some(format!("{text}this is not valid IOS syntax\n")),
    }
}

impl<B: Backend> Backend for FaultyBackend<B> {
    fn complete(&mut self, request: &LlmRequest) -> Result<IntentEnvelope, BackendError> {
        let envelope = self.inner.complete(request)?;
        if self.heeds_feedback && request.feedback.is_some() {
            return Ok(envelope);
        }
        match (&request.task, &envelope.payload) {
            (
                TaskKind::SynthesizeRouteMap | TaskKind::SynthesizeAcl,
                crate::envelope::EnvelopePayload::Config { text },
            ) if self.rng.gen::<f64>() < self.error_rate => {
                let corrupted = self.corrupt(text);
                Ok(IntentEnvelope::config(
                    request.task,
                    corrupted,
                    envelope.references.clone(),
                ))
            }
            _ => Ok(envelope),
        }
    }

    fn name(&self) -> &'static str {
        "faulty"
    }
}
