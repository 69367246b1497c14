//! The synthesis pipeline of Figure 1: classify → retrieve → synthesize →
//! extract spec → verify, with retries and a punt threshold.

use clarify_analysis::{verify_stanza_against_spec, PacketSpace, SpecVerdict, StanzaSpec};
use clarify_netconfig::{AclEntry, Config, RouteMapSet};
use clarify_nettypes::PrefixRange;

use crate::backend::{Backend, LlmRequest, TaskKind};
use crate::envelope::{EnvelopePayload, IntentEnvelope, SchemaError};
use crate::error::{BackendError, LlmError};
use crate::promptdb::PromptDb;
use crate::resolve::Resolver;

/// The classifier's verdict on a user query.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum QueryKind {
    /// Route-map stanza synthesis.
    RouteMap,
    /// ACL entry synthesis.
    Acl,
}

/// What the pipeline produced for one user intent.
#[derive(Clone, Debug)]
#[allow(clippy::large_enum_variant)] // outcomes are created once per intent
pub enum PipelineOutcome {
    /// A verified route-map snippet.
    RouteMap {
        /// The snippet configuration (one route-map, one stanza, plus its
        /// ancillary lists).
        snippet: Config,
        /// Name of the snippet's route-map.
        map_name: String,
        /// The machine-readable spec the stanza was verified against.
        spec: StanzaSpec,
        /// Total LLM calls made (classify + spec + each synthesis attempt).
        llm_calls: usize,
        /// Synthesis attempts (1 = first-pass success).
        attempts: usize,
    },
    /// A verified ACL entry.
    Acl {
        /// The synthesized entry.
        entry: AclEntry,
        /// Total LLM calls made.
        llm_calls: usize,
        /// Synthesis attempts.
        attempts: usize,
    },
    /// The retry threshold was exhausted (or the guardrail rejected the
    /// exchange); the user must start over (step 5 of Figure 1).
    Punt {
        /// Total LLM calls made before punting.
        llm_calls: usize,
        /// Why the last attempt failed.
        reason: String,
    },
}

impl PipelineOutcome {
    /// LLM calls regardless of variant.
    pub fn llm_calls(&self) -> usize {
        match self {
            PipelineOutcome::RouteMap { llm_calls, .. }
            | PipelineOutcome::Acl { llm_calls, .. }
            | PipelineOutcome::Punt { llm_calls, .. } => *llm_calls,
        }
    }

    /// Whether synthesis succeeded.
    pub fn is_success(&self) -> bool {
        !matches!(self, PipelineOutcome::Punt { .. })
    }
}

/// What one backend exchange yielded, after guardrail/error mapping.
enum Exchange {
    /// A validated envelope.
    Envelope(IntentEnvelope),
    /// The guardrail rejected the exchange; the pipeline punts without
    /// invoking the verifier.
    GuardrailPunt(String),
}

/// The verified synthesis pipeline.
pub struct Pipeline<B> {
    backend: B,
    db: PromptDb,
    max_attempts: usize,
}

impl<B: Backend> Pipeline<B> {
    /// Creates a pipeline with the default prompt database and a retry
    /// threshold of `max_attempts` synthesis calls per intent.
    pub fn new(backend: B, max_attempts: usize) -> Pipeline<B> {
        assert!(max_attempts >= 1, "at least one attempt required");
        // Register the pipeline's counter vocabulary up front so traces
        // show zeros (e.g. no punts) rather than omitting the names.
        let obs = clarify_obs::global();
        for name in [
            "pipeline.llm_calls",
            "pipeline.verifications",
            "pipeline.retries",
            "pipeline.punts",
        ] {
            let _ = obs.counter(name);
        }
        Pipeline {
            backend,
            db: PromptDb::defaults(),
            max_attempts,
        }
    }

    /// Access to the backend (e.g. to read fault-injection counters).
    pub fn backend(&self) -> &B {
        &self.backend
    }

    /// One backend exchange. Guardrail rejections become punts at the
    /// call site; every other backend error is surfaced. The envelope is
    /// defensively re-validated here so a pipeline built on a bare
    /// backend (tests, benches) enforces the same contract the guardrail
    /// middleware does.
    fn call(
        &mut self,
        task: TaskKind,
        user: &str,
        feedback: Option<&str>,
    ) -> Result<Exchange, LlmError> {
        let entry = self.db.retrieve(task);
        let req = LlmRequest {
            task,
            system: entry.map(|e| e.system.clone()).unwrap_or_default(),
            examples: entry.map(|e| e.examples.clone()).unwrap_or_default(),
            user: user.to_string(),
            feedback: feedback.map(str::to_string),
        };
        clarify_obs::global().counter("pipeline.llm_calls").incr();
        match self.backend.complete(&req) {
            Ok(envelope) => {
                envelope
                    .validate()
                    .map_err(|e| LlmError::Backend(BackendError::Schema(e)))?;
                if envelope.task != task {
                    return Err(LlmError::Backend(BackendError::Schema(SchemaError {
                        message: format!(
                            "envelope answers task '{}' but the request was '{}'",
                            envelope.task.keyword(),
                            task.keyword()
                        ),
                    })));
                }
                Ok(Exchange::Envelope(envelope))
            }
            Err(e @ BackendError::Guardrail(_)) => Ok(Exchange::GuardrailPunt(e.to_string())),
            Err(e) => Err(LlmError::Backend(e)),
        }
    }

    /// Runs the full pipeline on one user prompt.
    pub fn synthesize(&mut self, prompt: &str) -> Result<PipelineOutcome, LlmError> {
        let _span = clarify_obs::span!("pipeline_synthesize");
        let obs = clarify_obs::global();
        let mut llm_calls = 0usize;

        let punt = |llm_calls: usize, reason: String| {
            clarify_obs::global().counter("pipeline.punts").incr();
            Ok(PipelineOutcome::Punt { llm_calls, reason })
        };

        // (1) classify, (2) retrieve happens inside call().
        llm_calls += 1;
        let envelope = match self.call(TaskKind::Classify, prompt, None)? {
            Exchange::Envelope(e) => e,
            Exchange::GuardrailPunt(reason) => return punt(llm_calls, reason),
        };
        let kind = match envelope.payload {
            EnvelopePayload::Classification { ref kind } => match kind.as_str() {
                "route-map" => QueryKind::RouteMap,
                "acl" => QueryKind::Acl,
                other => return Err(LlmError::UnsupportedQuery(other.to_string())),
            },
            EnvelopePayload::Refusal { reason } => {
                return Err(LlmError::UnsupportedQuery(reason));
            }
            // validate() pins payload shape to task; unreachable in practice.
            _ => return Err(LlmError::UnsupportedQuery("unclassified".to_string())),
        };

        // (3) extract the machine-readable spec. The paper has the user
        // eyeball this; it is stable across synthesis retries.
        llm_calls += 1;
        let envelope = match self.call(TaskKind::ExtractSpec, prompt, None)? {
            Exchange::Envelope(e) => e,
            Exchange::GuardrailPunt(reason) => return punt(llm_calls, reason),
        };
        let spec_text = match envelope.payload {
            EnvelopePayload::Spec { text } => text,
            EnvelopePayload::Refusal { reason } => {
                return Err(LlmError::MalformedSpec(reason.trim().to_string()));
            }
            _ => return Err(LlmError::MalformedSpec("not a spec payload".to_string())),
        };

        let synth_task = match kind {
            QueryKind::RouteMap => TaskKind::SynthesizeRouteMap,
            QueryKind::Acl => TaskKind::SynthesizeAcl,
        };

        match kind {
            QueryKind::RouteMap => {
                let spec = parse_route_spec(&spec_text)?;
                let mut feedback = String::new();
                for attempt in 1..=self.max_attempts {
                    let fb = if feedback.is_empty() {
                        None
                    } else {
                        Some(feedback.as_str())
                    };
                    if attempt > 1 {
                        obs.counter("pipeline.retries").incr();
                    }
                    llm_calls += 1;
                    let envelope = match self.call(synth_task, prompt, fb)? {
                        Exchange::Envelope(e) => e,
                        Exchange::GuardrailPunt(reason) => return punt(llm_calls, reason),
                    };
                    let references = envelope.references;
                    let text = match envelope.payload {
                        EnvelopePayload::Config { text } => text,
                        EnvelopePayload::Refusal { reason } => {
                            return Err(LlmError::Intent(crate::intent::IntentError {
                                message: reason.trim().to_string(),
                            }));
                        }
                        _ => {
                            feedback = "it was not a configuration".to_string();
                            continue;
                        }
                    };
                    let snippet = match Config::parse(&text) {
                        Ok(c) => c,
                        Err(e) => {
                            feedback = format!("it did not parse: {e}");
                            continue;
                        }
                    };
                    let Some(map_name) = snippet.route_maps.keys().next().cloned() else {
                        feedback = "it contained no route-map".to_string();
                        continue;
                    };
                    // Resolution layer: every list the stanza matches on
                    // and every name the envelope claims must resolve to
                    // a canonical identity within the snippet, or the
                    // attempt is rejected before verification.
                    if let Err(e) = check_references(&snippet, &map_name, &references) {
                        feedback = format!("it references an unresolvable object: {e}");
                        continue;
                    }
                    obs.counter("pipeline.verifications").incr();
                    match verify_stanza_against_spec(&snippet, &map_name, &spec) {
                        Ok(SpecVerdict::Verified) => {
                            return Ok(PipelineOutcome::RouteMap {
                                snippet,
                                map_name,
                                spec,
                                llm_calls,
                                attempts: attempt,
                            });
                        }
                        Ok(SpecVerdict::ActionMismatch) => {
                            feedback = "the permit/deny action is wrong".to_string();
                        }
                        Ok(SpecVerdict::MatchMismatch {
                            witness,
                            stanza_matches,
                        }) => {
                            feedback = format!(
                                "the stanza {} the route {:?} but the specification says it \
                                 should {}",
                                if stanza_matches {
                                    "matches"
                                } else {
                                    "does not match"
                                },
                                witness.network,
                                if stanza_matches { "not match" } else { "match" },
                            );
                        }
                        Ok(SpecVerdict::SetMismatch) => {
                            feedback = "the set clauses are wrong".to_string();
                        }
                        Err(e) => return Err(LlmError::Analysis(e.to_string())),
                    }
                }
                punt(llm_calls, feedback)
            }
            QueryKind::Acl => {
                let spec_entry = parse_single_acl_entry(&spec_text)
                    .ok_or_else(|| LlmError::MalformedSpec(spec_text.clone()))?;
                let mut feedback = String::new();
                for attempt in 1..=self.max_attempts {
                    let fb = if feedback.is_empty() {
                        None
                    } else {
                        Some(feedback.as_str())
                    };
                    if attempt > 1 {
                        obs.counter("pipeline.retries").incr();
                    }
                    llm_calls += 1;
                    let envelope = match self.call(synth_task, prompt, fb)? {
                        Exchange::Envelope(e) => e,
                        Exchange::GuardrailPunt(reason) => return punt(llm_calls, reason),
                    };
                    let text = match envelope.payload {
                        EnvelopePayload::Config { text } => text,
                        EnvelopePayload::Refusal { reason } => {
                            return Err(LlmError::Intent(crate::intent::IntentError {
                                message: reason.trim().to_string(),
                            }));
                        }
                        _ => {
                            feedback = "it was not a configuration".to_string();
                            continue;
                        }
                    };
                    let Some(entry) = parse_single_acl_entry(&text) else {
                        feedback = "it was not a single valid ACL entry".to_string();
                        continue;
                    };
                    obs.counter("pipeline.verifications").incr();
                    if acl_entries_equivalent(&entry, &spec_entry) {
                        return Ok(PipelineOutcome::Acl {
                            entry,
                            llm_calls,
                            attempts: attempt,
                        });
                    }
                    feedback = "the entry does not implement the specification".to_string();
                }
                punt(llm_calls, feedback)
            }
        }
    }
}

/// Resolves the stanza's referenced lists and the envelope's free-form
/// references against the snippet's own tables.
fn check_references(
    snippet: &Config,
    map_name: &str,
    references: &[String],
) -> Result<(), crate::resolve::ResolutionError> {
    let resolver = Resolver::new(snippet);
    if let Some(map) = snippet.route_maps.get(map_name) {
        for (kind, name) in map.stanzas.iter().flat_map(|s| s.references()) {
            resolver.resolve(kind, name)?;
        }
    }
    for name in references {
        resolver.resolve_reference(name)?;
    }
    Ok(())
}

/// Parses the line-based route-map spec exchange format.
fn parse_route_spec(text: &str) -> Result<StanzaSpec, LlmError> {
    let mut spec = StanzaSpec::default();
    let bad = |line: &str| LlmError::MalformedSpec(format!("bad spec line '{line}'"));
    for line in text.lines() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let words: Vec<&str> = line.split_whitespace().collect();
        match words.as_slice() {
            ["action", "permit"] => spec.permit = true,
            ["action", "deny"] => spec.permit = false,
            ["prefix", rest @ ..] => {
                let r: PrefixRange = rest.join(" ").parse().map_err(|_| bad(line))?;
                spec.prefixes.push(r);
            }
            ["community", pat] => spec.communities.push(pat.to_string()),
            ["as-path", pat] => spec.as_paths.push(pat.to_string()),
            ["match", "local-preference", v] => {
                spec.local_pref = Some(v.parse().map_err(|_| bad(line))?)
            }
            ["match", "metric", v] => spec.metric = Some(v.parse().map_err(|_| bad(line))?),
            ["match", "tag", v] => spec.tag = Some(v.parse().map_err(|_| bad(line))?),
            ["set", "metric", v] => spec
                .sets
                .push(RouteMapSet::Metric(v.parse().map_err(|_| bad(line))?)),
            ["set", "local-preference", v] => spec
                .sets
                .push(RouteMapSet::LocalPref(v.parse().map_err(|_| bad(line))?)),
            ["set", "weight", v] => spec
                .sets
                .push(RouteMapSet::Weight(v.parse().map_err(|_| bad(line))?)),
            ["set", "tag", v] => spec
                .sets
                .push(RouteMapSet::Tag(v.parse().map_err(|_| bad(line))?)),
            ["set", "ip", "next-hop", ip] => spec
                .sets
                .push(RouteMapSet::NextHop(ip.parse().map_err(|_| bad(line))?)),
            ["set", "community", rest @ ..] => {
                let (comms, additive) = match rest.split_last() {
                    Some((&"additive", init)) => (init, true),
                    _ => (rest, false),
                };
                let parsed: Result<Vec<_>, _> = comms.iter().map(|c| c.parse()).collect();
                let parsed = parsed.map_err(|_| bad(line))?;
                spec.sets.push(if additive {
                    RouteMapSet::CommunityAdd(parsed)
                } else {
                    RouteMapSet::CommunityReplace(parsed)
                });
            }
            _ => return Err(bad(line)),
        }
    }
    Ok(spec)
}

/// Parses IOS text containing exactly one ACL with exactly one entry.
/// Returns `None` otherwise — including the zero-ACL case, which feeds
/// the normal retry/punt path instead of panicking on backend output.
fn parse_single_acl_entry(text: &str) -> Option<AclEntry> {
    let cfg = Config::parse(text).ok()?;
    let mut acls = cfg.acls.values();
    let acl = acls.next()?;
    if acls.next().is_some() {
        return None;
    }
    match acl.entries.as_slice() {
        [entry] => Some(entry.clone()),
        _ => None,
    }
}

/// Whether two ACL entries are semantically identical (same action and
/// same match set, checked symbolically).
fn acl_entries_equivalent(a: &AclEntry, b: &AclEntry) -> bool {
    if a.action != b.action {
        return false;
    }
    let mut space = PacketSpace::new();
    let ea = space.encode_entry(a);
    let eb = space.encode_entry(b);
    let valid = space.valid();
    let va = space.manager().and(ea, valid);
    let vb = space.manager().and(eb, valid);
    space.manager().iff(va, vb) == clarify_bdd::Ref::TRUE
}
