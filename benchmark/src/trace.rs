//! The traced run: the per-layer breakdown.
//!
//! The first `K` scripts of the pool (K scales with `--seconds`) run in
//! five passes, all from one process, taking turns script by script:
//!
//! - **S** sends every frame through `Shared::handle_line` in-process
//!   with an enabled `clarify-obs` registry installed before any space is
//!   built. Each request is one root span `op.<kind>`; the registry's
//!   counters are read around it, giving the work each request did, and
//!   its `llm_backend` span gives the time in `Backend::complete`.
//! - **P** runs the script through the daemon and through pass L's
//!   mirror, each under a fresh registry, and requires equal counter
//!   deltas per request ([`check_mirror`]).
//! - **L** replays the same requests, registry off, by calling the layer
//!   functions in the order `ConfigSession` calls them, each call a child
//!   span of its `op.<kind>`. Its outputs must equal pass S's byte for
//!   byte; with pass P this pins the replay to the daemon's real path.
//! - **S'** repeats pass S with the registry disabled: the `serve.handle_*`
//!   times, and against pass S, the tracing overhead.
//! - **W** runs the same scripts over TCP with the closed-loop client:
//!   against S', the time spent on the wire and in the accept loop's
//!   idle sleep.
//!
//! Spans are held in memory and written to `trace-<workload>.json` at the
//! end; a span's self time is its duration minus the time its children
//! cover.

use std::io::Write as _;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use clarify_analysis::{atom_env_hash, PacketSpace, RouteSpace};
use clarify_core::{
    plan_acl_in_space, AclInsertionPlan, AclPlanStep, Choice, Disambiguator, InsertionPlan,
    PlanStep,
};
use clarify_lint::{lint_config, IncrementalLinter};
use clarify_llm::{BackendStack, DynBackend, Pipeline, PipelineOutcome};
use clarify_netconfig::{
    insert_acl_entry, insert_route_map_stanza, Acl, AclEntry, Config, RouteMap,
};
use clarify_obs::{Counter, Gauge, Registry};
use clarify_serve::{ServerConfig, Shared, SystemClock};

use crate::check::{self, DistinctLogs};
use crate::closed_loop::Daemon;
use crate::inputs::{Round, Script, Workload};
use crate::rule;
use crate::session::{run_session, LintCounts, Op, Samples, SessionLog, TcpClient, Transport};
use crate::stats::{percentile_ms, Metric};
use crate::Outcome;

/// The daemon's synthesis retry threshold (`clarify-serve` uses 3).
const MAX_ATTEMPTS: usize = 3;

/// Registry counters read around every pass-S request.
const COUNTERS: [&str; 14] = [
    "bdd.ite_calls",
    "bdd.ite_cache_hits",
    "bdd.ite_cache_misses",
    "bdd.unique_probes",
    "bdd.computed_evictions",
    "bdd.gc.runs",
    "bdd.gc.freed_nodes",
    "analysis.route_space_builds",
    "analysis.packet_space_builds",
    "analysis.fire_set_builds",
    "par.pool_runs",
    "par.inline_runs",
    "par.items",
    "par.maps",
];

fn counter_index(name: &str) -> usize {
    COUNTERS
        .iter()
        .position(|c| *c == name)
        .expect("counter is listed in COUNTERS")
}

/// One recorded span.
struct SpanRec {
    parent: Option<usize>,
    req: u64,
    pass: &'static str,
    name: &'static str,
    start: Instant,
    end: Instant,
}

/// Registry counter deltas summed per request kind.
type Deltas = [[u64; COUNTERS.len()]; 6];

/// In-memory span recorder. `req` numbers pass L's requests; pass S
/// numbers its own, in the same order.
struct Tracer {
    t0: Instant,
    spans: Vec<SpanRec>,
    open: Vec<usize>,
    req: u64,
    /// Counters read around each request (pass P's mirror only).
    counters: Vec<Counter>,
    deltas: Deltas,
}

impl Tracer {
    fn new(counters: Vec<Counter>) -> Tracer {
        Tracer {
            t0: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            req: 0,
            counters,
            deltas: [[0; COUNTERS.len()]; 6],
        }
    }

    fn push(
        &mut self,
        pass: &'static str,
        name: &'static str,
        req: u64,
        start: Instant,
        end: Instant,
    ) -> usize {
        self.spans.push(SpanRec {
            parent: self.open.last().copied(),
            req,
            pass,
            name,
            start,
            end,
        });
        self.spans.len() - 1
    }

    /// Runs `f` inside a pass-L span named `name`, a child of the open
    /// span.
    fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        let now = Instant::now();
        let id = self.push("L", name, self.req, now, now);
        self.open.push(id);
        let r = f(self);
        self.open.pop();
        self.spans[id].end = Instant::now();
        r
    }

    /// Runs request `op` as a root span and advances the request id.
    fn op<R>(&mut self, op: Op, f: impl FnOnce(&mut Tracer) -> R) -> R {
        let before: Vec<u64> = self.counters.iter().map(Counter::get).collect();
        let r = self.span(op.span_name(), f);
        for (i, c) in self.counters.iter().enumerate() {
            self.deltas[op as usize][i] += c.get() - before[i];
        }
        self.req += 1;
        r
    }

    /// Times a standalone call that belongs to the previous request but
    /// is not on the daemon's path (a root span of its own).
    fn probe<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let start = Instant::now();
        let r = f();
        self.push("L", name, self.req - 1, start, Instant::now());
        r
    }

    /// Durations in ns of every pass-L span named `name`.
    fn durations(&self, name: &str) -> Vec<u64> {
        self.spans
            .iter()
            .filter(|s| s.pass == "L" && s.name == name)
            .map(|s| (s.end - s.start).as_nanos() as u64)
            .collect()
    }

    /// Per span: the part of its interval its children cover.
    fn covered(&self) -> Vec<u64> {
        let mut covered = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                covered[p] += (s.end - s.start).as_nanos() as u64;
            }
        }
        covered
    }

    fn write(&self, path: &Path, workload: &str, seed: u64, k: usize) -> Result<(), String> {
        let covered = self.covered();
        let ns = |t: Instant| (t - self.t0).as_nanos() as u64;
        let mut out =
            format!("{{\"workload\":\"{workload}\",\"seed\":{seed},\"scripts\":{k},\"spans\":[\n");
        for (id, s) in self.spans.iter().enumerate() {
            let dur = (s.end - s.start).as_nanos() as i128;
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "{}{{\"id\":{id},\"parent\":{parent},\"req\":{},\"pass\":\"{}\",\"name\":\"{}\",\
                 \"start_ns\":{},\"end_ns\":{},\"self_ns\":{}}}",
                if id == 0 { "" } else { ",\n" },
                s.req,
                s.pass,
                s.name,
                ns(s.start),
                ns(s.end),
                dur - covered[id] as i128
            ));
        }
        out.push_str("\n]}\n");
        std::fs::File::create(path)
            .and_then(|mut f| f.write_all(out.as_bytes()))
            .map_err(|e| format!("writing {}: {e}", path.display()))
    }
}

/// What pass S accumulates across sessions.
#[derive(Default)]
struct Served {
    /// Counter deltas summed per request kind.
    deltas: Deltas,
    live_peak: i64,
    done_bytes: Vec<usize>,
    /// Time in `Backend::complete` (the daemon's `llm_backend` span) per
    /// ask, in order.
    backend_ns: Vec<u64>,
    samples: Samples,
    req: u64,
}

/// Pass S over one session: frames through `handle_line`, with the
/// session's registry counters read around each.
struct PassS<'a> {
    shared: &'a Shared,
    registry: &'a Registry,
    counters: Vec<Counter>,
    live_nodes: Gauge,
    tracer: &'a mut Tracer,
    served: &'a mut Served,
}

/// Total time recorded in the `llm_backend` span so far.
fn backend_total_ns(registry: &Registry) -> u64 {
    registry
        .snapshot()
        .histogram("span.llm_backend.ns")
        .map_or(0, |h| h.sum)
}

impl Transport for PassS<'_> {
    fn call(&mut self, op: Op, line: &str) -> Result<String, String> {
        let backend_before = backend_total_ns(self.registry);
        let before: Vec<u64> = self.counters.iter().map(Counter::get).collect();
        let start = Instant::now();
        let (resp, _) = self.shared.handle_line(line);
        let end = Instant::now();
        let served = &mut *self.served;
        for (i, c) in self.counters.iter().enumerate() {
            served.deltas[op as usize][i] += c.get() - before[i];
        }
        if op == Op::Ask {
            served
                .backend_ns
                .push(backend_total_ns(self.registry) - backend_before);
        }
        served.live_peak = served.live_peak.max(self.live_nodes.get());
        served.samples.push(op, (end - start).as_nanos() as u64);
        self.tracer
            .push("S", op.span_name(), served.req, start, end);
        served.req += 1;
        if op == Op::Answer && resp.contains("\"done\":true") {
            served.done_bytes.push(resp.len());
        }
        Ok(resp)
    }
}

/// Pass S': frames through `handle_line` with tracing off.
struct PassUntraced<'a> {
    shared: &'a Shared,
    samples: Samples,
}

impl Transport for PassUntraced<'_> {
    fn call(&mut self, op: Op, line: &str) -> Result<String, String> {
        let start = Instant::now();
        let (resp, _) = self.shared.handle_line(line);
        self.samples.push(op, start.elapsed().as_nanos() as u64);
        Ok(resp)
    }
}

/// Work counts and composite timings pass L collects.
#[derive(Default)]
struct LayerStats {
    llm_calls: Vec<u64>,
    space_ns_per_session: Vec<u64>,
    atoms: Vec<u64>,
    insertions: u64,
    overlaps: u64,
    pruned: u64,
    comparisons: u64,
    questions: u64,
    relints: u64,
    dirty: u64,
    reused: u64,
}

enum Pending {
    RouteMap {
        plan: Box<InsertionPlan>,
        answers: Vec<Choice>,
        snippet: Config,
        map_name: String,
    },
    Acl {
        plan: Box<AclInsertionPlan>,
        answers: Vec<Choice>,
        entry: AclEntry,
    },
}

/// What the last insertion needs, besides its base and position, to be
/// re-run standalone.
enum InsertProbe {
    RouteMap { snippet: Config, map_name: String },
    Acl { entry: AclEntry },
}

enum Step {
    Question(u64),
    Done(String),
}

/// Pass L's mirror of `clarify_serve::ConfigSession`: the same calls in
/// the same order, each inside a span.
struct LayerSession {
    config: Config,
    pipeline: Pipeline<DynBackend>,
    disambiguator: Disambiguator,
    route_space: Option<(u64, RouteSpace)>,
    packet_space: PacketSpace,
    linter: Option<IncrementalLinter>,
    pending: Option<Pending>,
    space_ns: u64,
    /// The configuration before the last insertion, and the insertion.
    last_insert: Option<(Config, InsertProbe, usize)>,
}

fn elapsed_ns(start: Instant) -> u64 {
    start.elapsed().as_nanos() as u64
}

impl LayerSession {
    fn open(t: &mut Tracer, text: &str) -> Result<LayerSession, String> {
        let config = t
            .span("netconfig.parse", |_| Config::parse(text))
            .map_err(|e| e.to_string())?;
        let pipeline = t.span("llm.pipeline_new", |_| {
            Pipeline::new(BackendStack::semantic().build(), MAX_ATTEMPTS)
        });
        let start = Instant::now();
        let packet_space = t.span("analysis.packet_space", |_| PacketSpace::new());
        Ok(LayerSession {
            config,
            pipeline,
            disambiguator: Disambiguator::default(),
            route_space: None,
            packet_space,
            linter: None,
            pending: None,
            space_ns: elapsed_ns(start),
            last_insert: None,
        })
    }

    fn ask(&mut self, t: &mut Tracer, round: &Round, st: &mut LayerStats) -> Result<Step, String> {
        let outcome = t
            .span("llm.synthesize", |_| {
                self.pipeline.synthesize(&round.prompt)
            })
            .map_err(|e| e.to_string())?;
        st.llm_calls.push(outcome.llm_calls() as u64);
        let target = round.target.as_str();
        match outcome {
            PipelineOutcome::RouteMap {
                snippet, map_name, ..
            } => {
                let mut working = t.span("netconfig.clone", |_| self.config.clone());
                if working.route_map(target).is_none() {
                    working
                        .route_maps
                        .insert(target.to_string(), RouteMap::empty(target));
                }
                let start = Instant::now();
                let hash = t.span("analysis.atom_env_hash", |_| {
                    atom_env_hash(&[&working, &snippet])
                });
                let mut space = match self.route_space.take() {
                    Some((h, space)) if h == hash => space,
                    _ => {
                        let space = t
                            .span("analysis.route_space", |_| {
                                RouteSpace::new(&[&working, &snippet])
                            })
                            .map_err(|e| e.to_string())?;
                        st.atoms
                            .push((space.num_community_atoms() + space.num_path_atoms()) as u64);
                        space
                    }
                };
                self.space_ns += elapsed_ns(start);
                let plan = t
                    .span("core.plan", |_| {
                        self.disambiguator
                            .plan_in_space(&mut space, &working, target, &snippet, &map_name)
                    })
                    .map_err(|e| e.to_string())?;
                t.span("bdd.clear_op_caches", |_| space.manager().clear_op_caches());
                self.route_space = Some((hash, space));
                self.pending = Some(Pending::RouteMap {
                    plan: Box::new(plan),
                    answers: Vec::new(),
                    snippet,
                    map_name,
                });
            }
            PipelineOutcome::Acl { entry, .. } => {
                let mut working = t.span("netconfig.clone", |_| self.config.clone());
                if working.acl(target).is_none() {
                    working.acls.insert(
                        target.to_string(),
                        Acl {
                            name: target.to_string(),
                            entries: Vec::new(),
                        },
                    );
                }
                let plan = t
                    .span("core.plan", |_| {
                        plan_acl_in_space(
                            &mut self.packet_space,
                            &working,
                            target,
                            &entry,
                            self.disambiguator.strategy,
                        )
                    })
                    .map_err(|e| e.to_string())?;
                t.span("bdd.clear_op_caches", |_| {
                    self.packet_space.manager().clear_op_caches()
                });
                self.pending = Some(Pending::Acl {
                    plan: Box::new(plan),
                    answers: Vec::new(),
                    entry,
                });
            }
            PipelineOutcome::Punt { reason, .. } => return Err(format!("punted: {reason}")),
        }
        self.progress(t, st)
    }

    fn answer(
        &mut self,
        t: &mut Tracer,
        choice: Choice,
        st: &mut LayerStats,
    ) -> Result<Step, String> {
        match &mut self.pending {
            Some(Pending::RouteMap { answers, .. }) | Some(Pending::Acl { answers, .. }) => {
                answers.push(choice)
            }
            None => return Err("answer without a pending question".to_string()),
        }
        self.progress(t, st)
    }

    fn progress(&mut self, t: &mut Tracer, st: &mut LayerStats) -> Result<Step, String> {
        let pending = self.pending.take().ok_or("no pending turn")?;
        // Questions are rendered, as the daemon renders them, inside the
        // `core.step` span.
        let (config, position, counts, probe) = match pending {
            Pending::RouteMap {
                plan,
                answers,
                snippet,
                map_name,
            } => {
                let next = t.span("core.step", |_| match plan.step(&answers) {
                    PlanStep::Ask { question, .. } => {
                        std::hint::black_box(question.to_string());
                        Some(u64::from(question.pivot_seq))
                    }
                    PlanStep::Done { .. } => None,
                });
                if let Some(pivot) = next {
                    self.pending = Some(Pending::RouteMap {
                        plan,
                        answers,
                        snippet,
                        map_name,
                    });
                    return Ok(Step::Question(pivot));
                }
                let r = t
                    .span("core.finish", |_| plan.finish(&answers))
                    .map_err(|e| e.to_string())?;
                let counts = [
                    r.overlap_candidates,
                    r.pruned_candidates,
                    r.comparisons,
                    r.questions,
                ];
                let probe = InsertProbe::RouteMap { snippet, map_name };
                (r.config, r.position, counts, probe)
            }
            Pending::Acl {
                plan,
                answers,
                entry,
            } => {
                let next = t.span("core.step", |_| match plan.step(&answers) {
                    AclPlanStep::Ask { question, .. } => {
                        std::hint::black_box(question.to_string());
                        Some(question.pivot_index as u64)
                    }
                    AclPlanStep::Done { .. } => None,
                });
                if let Some(pivot) = next {
                    self.pending = Some(Pending::Acl {
                        plan,
                        answers,
                        entry,
                    });
                    return Ok(Step::Question(pivot));
                }
                let r = t
                    .span("core.finish", |_| plan.finish(&answers))
                    .map_err(|e| e.to_string())?;
                let counts = [
                    r.overlap_candidates,
                    r.pruned_candidates,
                    r.comparisons,
                    r.questions,
                ];
                (r.config, r.position, counts, InsertProbe::Acl { entry })
            }
        };
        let [overlaps, pruned, comparisons, questions] = counts.map(|c| c as u64);
        st.insertions += 1;
        st.overlaps += overlaps;
        st.pruned += pruned;
        st.comparisons += comparisons;
        st.questions += questions;
        let text = t.span("netconfig.print", |_| config.to_string());
        let base = std::mem::replace(&mut self.config, config);
        self.route_space = None;
        self.last_insert = Some((base, probe, position));
        Ok(Step::Done(text))
    }

    fn lint(&mut self, t: &mut Tracer, st: &mut LayerStats) -> Result<LintCounts, String> {
        let (report, dirty, reused) = match self.linter.take() {
            None => {
                let (linter, report) = t
                    .span("lint.new", |_| {
                        IncrementalLinter::new(self.config.clone(), None)
                    })
                    .map_err(|e| e.to_string())?;
                self.linter = Some(linter);
                let total = report.diagnostics.len();
                (report, total, 0)
            }
            Some(mut linter) => {
                let (report, stats) = t
                    .span("lint.relint", |_| linter.relint(self.config.clone(), None))
                    .map_err(|e| e.to_string())?;
                self.linter = Some(linter);
                st.relints += 1;
                st.dirty += stats.dirty_objects as u64;
                st.reused += stats.reused_objects as u64;
                (report, stats.dirty_objects, stats.reused_objects)
            }
        };
        Ok(LintCounts {
            findings: report.findings().count() as u64,
            diagnostics: report.diagnostics.len() as u64,
            dirty: dirty as u64,
            reused: reused as u64,
        })
    }
}

/// Replays script `index` through the layer functions.
fn replay_layers(
    t: &mut Tracer,
    index: usize,
    script: &Script,
    st: &mut LayerStats,
) -> Result<SessionLog, String> {
    let mut s = t.op(Op::Open, |t| LayerSession::open(t, &script.base))?;
    let mut log = SessionLog {
        script: index,
        outputs: Vec::new(),
        lints: Vec::new(),
    };
    let first = t.op(Op::ColdLint, |t| s.lint(t, st))?;
    t.probe("lint.cold", || lint_config(&s.config, None))
        .map_err(|e| e.to_string())?;
    log.lints.push(first);
    let mut current = script.parsed.clone();
    for round in &script.rounds {
        let mut step = t.op(Op::Ask, |t| s.ask(t, round, st))?;
        let text = loop {
            match step {
                Step::Done(text) => break text,
                Step::Question(pivot) => {
                    let i = rule::pivot_index(&current, round.kind, &round.target, pivot)
                        .ok_or_else(|| {
                            format!("pivot {pivot} is not a rule of {}", round.target)
                        })?;
                    let choice = rule::choose(round.slot, i);
                    step = t.op(Op::Answer, |t| s.answer(t, choice, st))?;
                }
            }
        };
        if let Some((base, probe, position)) = s.last_insert.take() {
            let target = round.target.as_str();
            let inserted = t.probe("netconfig.insert", || match &probe {
                InsertProbe::RouteMap { snippet, map_name } => {
                    insert_route_map_stanza(&base, target, snippet, map_name, position).map(|_| ())
                }
                InsertProbe::Acl { entry } => {
                    insert_acl_entry(&base, target, entry.clone(), position).map(|_| ())
                }
            });
            inserted.map_err(|e| e.to_string())?;
        }
        current = s.config.clone();
        log.outputs.push(text);
        let counts = t.op(Op::Relint, |t| s.lint(t, st))?;
        t.probe("lint.cold", || lint_config(&s.config, None))
            .map_err(|e| e.to_string())?;
        log.lints.push(counts);
    }
    st.space_ns_per_session.push(s.space_ns);
    t.op(Op::Close, |_| drop(s));
    Ok(log)
}

fn mean(sum: u64, n: u64) -> f64 {
    if n == 0 {
        0.0
    } else {
        sum as f64 / n as f64
    }
}

fn p50_ms(ns: &[u64]) -> f64 {
    percentile_ms(ns, 0.5).unwrap_or(0.0)
}

/// Pass P: script `index` through the daemon and through pass L's
/// mirror, each under a fresh registry (at the benchmark's one pool
/// thread, every count is deterministic). Equal per-request counter deltas show that the
/// mirror makes the daemon's calls (space builds and reuse, linter
/// construction, plans) in the daemon's order; equal outputs alone would
/// not catch, say, a space the daemon stopped rebuilding.
fn check_mirror(index: usize, script: &Script) -> Result<(), String> {
    let registry = clarify_obs::install(Registry::new());
    let counters: Vec<Counter> = COUNTERS.iter().map(|c| registry.counter(c)).collect();
    let shared = Shared::new(ServerConfig::default(), Arc::new(SystemClock::new()));
    let mut daemon = Served::default();
    let served = run_session(
        &mut PassS {
            shared: &shared,
            registry: &registry,
            counters: counters.clone(),
            live_nodes: Gauge::noop(),
            tracer: &mut Tracer::new(Vec::new()),
            served: &mut daemon,
        },
        index,
        script,
    );
    let mut mirror = Tracer::new(counters);
    let replayed = replay_layers(&mut mirror, index, script, &mut LayerStats::default());
    served?;
    replayed?;
    for op in Op::ALL {
        let (d, m) = (daemon.deltas[op as usize], mirror.deltas[op as usize]);
        if let Some(i) = (0..COUNTERS.len()).find(|&i| d[i] != m[i]) {
            return Err(format!(
                "{op:?} requests: the daemon counted {} {}, pass L {}",
                d[i], COUNTERS[i], m[i]
            ));
        }
    }
    Ok(())
}

/// Scripts a traced run replays: `seconds × w.traced_sessions_per_s`,
/// at least 2.
pub fn scripts_for(w: &Workload, seconds: u64) -> usize {
    ((seconds as f64 * w.traced_sessions_per_s).round() as usize).max(2)
}

/// The traced run. Writes `trace-<workload>.json` under `out_dir`.
pub fn run(w: &Workload, seed: u64, seconds: u64, out_dir: &Path) -> Result<Outcome, String> {
    let k = scripts_for(w, seconds);
    let mut failures = Vec::new();
    let mut tracer = Tracer::new(Vec::new());
    let mut served = Served::default();
    let mut st = LayerStats::default();
    let mut logs = DistinctLogs::default();
    let traced_shared = Shared::new(ServerConfig::default(), Arc::new(SystemClock::new()));
    let untraced_shared = Shared::new(ServerConfig::default(), Arc::new(SystemClock::new()));
    let mut untraced = PassUntraced {
        shared: &untraced_shared,
        samples: Samples::default(),
    };
    let daemon = Daemon::start()?;
    let mut wire = TcpClient::new(daemon.addr, daemon.clock);
    // The passes take turns script by script, so the host's drift in
    // speed lands on all of them alike and their differences stay
    // meaningful.
    for i in 0..k {
        let index = i % w.scripts.len();
        let script = w.script(index);
        // A fresh enabled registry per pass-S session, installed before
        // the session builds any space: managers capture their counters
        // at construction.
        let registry = clarify_obs::install(Registry::new());
        let s_log = run_session(
            &mut PassS {
                shared: &traced_shared,
                registry: &registry,
                counters: COUNTERS.iter().map(|c| registry.counter(c)).collect(),
                live_nodes: registry.gauge("bdd.unique_nodes"),
                tracer: &mut tracer,
                served: &mut served,
            },
            index,
            script,
        );
        if let Err(e) = check_mirror(index, script) {
            failures.push(format!("pass P script {index}: {e}"));
        }
        // The other passes run with the registry off: pass L's spans are
        // the benchmark's own, and an enabled registry costs the hot paths
        // up to several times their untraced time (`trace.overhead_pct`).
        clarify_obs::install(Registry::disabled());
        let l_log = replay_layers(&mut tracer, index, script, &mut st);
        match (s_log, l_log) {
            (Ok(s), Ok(l)) => {
                if s != l {
                    failures.push(format!(
                        "script {index}: pass L outputs differ from the daemon's (pass S)"
                    ));
                }
                logs.add(s);
            }
            (Err(e), _) => failures.push(format!("pass S script {index}: {e}")),
            (_, Err(e)) => failures.push(format!("pass L script {index}: {e}")),
        }
        if let Err(e) = run_session(&mut untraced, index, script) {
            failures.push(format!("pass S' script {index}: {e}"));
        }
        match wire
            .reconnect()
            .and_then(|()| run_session(&mut wire, index, script))
        {
            Ok(log) => logs.add(log),
            Err(e) => failures.push(format!("pass W script {index}: {e}")),
        }
    }
    daemon.stop()?;
    failures.extend(check::check(w, &logs));
    let handled = untraced.samples;
    // Passes S, L, S' and both halves of P send the same requests.
    let attempted = 5 * Op::ALL
        .iter()
        .map(|&op| handled.of(op).len() as u64)
        .sum::<u64>()
        + wire.attempted
        + k as u64;

    std::fs::create_dir_all(out_dir).map_err(|e| format!("{}: {e}", out_dir.display()))?;
    tracer.write(
        &out_dir.join(format!("trace-{}.json", w.name)),
        w.name,
        seed,
        k,
    )?;

    let metrics = layer_metrics(Inputs {
        k,
        tracer: &tracer,
        st: &st,
        served: &served,
        handled: &handled,
        wire: &wire.samples,
    });
    Ok(Outcome {
        metrics,
        attempted,
        failures,
    })
}

struct Inputs<'a> {
    k: usize,
    tracer: &'a Tracer,
    st: &'a LayerStats,
    served: &'a Served,
    handled: &'a Samples,
    wire: &'a Samples,
}

fn layer_metrics(x: Inputs<'_>) -> Vec<Metric> {
    let Inputs {
        k,
        tracer,
        st,
        served,
        handled,
        wire,
    } = x;
    let Served {
        deltas,
        live_peak,
        done_bytes,
        backend_ns,
        samples: traced,
        ..
    } = served;
    let synthesize_ns = tracer.durations("llm.synthesize");
    let verify_ns: Vec<u64> = synthesize_ns
        .iter()
        .zip(backend_ns)
        .map(|(s, b)| s.saturating_sub(*b))
        .collect();
    let asks = handled.of(Op::Ask).len() as u64;
    let lints: Vec<u64> = [handled.of(Op::ColdLint), handled.of(Op::Relint)].concat();
    let delta = |ops: &[Op], name: &str| -> u64 {
        ops.iter()
            .map(|&op| deltas[op as usize][counter_index(name)])
            .sum()
    };
    let per_ask = |name: &str| mean(delta(&[Op::Ask], name), asks);
    let lint_ops = [Op::ColdLint, Op::Relint];
    let ratio = |a: u64, b: u64| {
        if a + b == 0 {
            0.0
        } else {
            a as f64 / (a + b) as f64
        }
    };
    let span_ms = |name: &str| p50_ms(&tracer.durations(name));
    let span_us = |name: &str| p50_ms(&tracer.durations(name)) * 1e3;
    let all_ns = |s: &Samples| -> u64 { Op::ALL.iter().flat_map(|&op| s.of(op)).sum() };
    let p90_ms = |s: &Samples, op: Op| percentile_ms(s.of(op), 0.9).unwrap_or(0.0);
    let ask_spans: Vec<usize> = (0..tracer.spans.len())
        .filter(|&i| tracer.spans[i].pass == "L" && tracer.spans[i].name == "op.ask")
        .collect();
    let covered = tracer.covered();
    let ask_ns: u64 = ask_spans
        .iter()
        .map(|&i| (tracer.spans[i].end - tracer.spans[i].start).as_nanos() as u64)
        .sum();
    let ask_covered: u64 = ask_spans.iter().map(|&i| covered[i]).sum();
    let m = Metric::new;
    vec![
        m(
            "serve.handle_open_ms",
            p50_ms(handled.of(Op::Open)),
            "ms",
            handled.of(Op::Open).len(),
        ),
        m(
            "serve.handle_ask_ms",
            p50_ms(handled.of(Op::Ask)),
            "ms",
            asks as usize,
        ),
        m(
            "serve.handle_answer_us",
            p50_ms(handled.of(Op::Answer)) * 1e3,
            "us",
            handled.of(Op::Answer).len(),
        ),
        m("serve.handle_lint_ms", p50_ms(&lints), "ms", lints.len()),
        m(
            "serve.wire_ask_ms",
            p50_ms(wire.of(Op::Ask)) - p50_ms(handled.of(Op::Ask)),
            "ms",
            wire.of(Op::Ask).len(),
        ),
        m(
            "serve.wire_answer_ms",
            p90_ms(wire, Op::Answer) - p90_ms(handled, Op::Answer),
            "ms",
            wire.of(Op::Answer).len(),
        ),
        m(
            "serve.done_frame_kb",
            mean(
                done_bytes.iter().map(|&b| b as u64).sum(),
                done_bytes.len() as u64,
            ) / 1024.0,
            "kB",
            done_bytes.len(),
        ),
        m(
            "llm.synthesize_ms",
            p50_ms(&synthesize_ns),
            "ms",
            synthesize_ns.len(),
        ),
        m(
            "llm.backend_us",
            p50_ms(backend_ns) * 1e3,
            "us",
            backend_ns.len(),
        ),
        m("llm.verify_ms", p50_ms(&verify_ns), "ms", verify_ns.len()),
        m(
            "llm.calls_per_ask",
            mean(st.llm_calls.iter().sum(), st.llm_calls.len() as u64),
            "count",
            st.llm_calls.len(),
        ),
        m("netconfig.parse_ms", span_ms("netconfig.parse"), "ms", k),
        m(
            "netconfig.insert_us",
            span_us("netconfig.insert"),
            "us",
            st.insertions as usize,
        ),
        m(
            "netconfig.print_ms",
            span_ms("netconfig.print"),
            "ms",
            st.insertions as usize,
        ),
        m(
            "analysis.space_build_ms",
            p50_ms(&st.space_ns_per_session),
            "ms",
            st.space_ns_per_session.len(),
        ),
        m(
            "analysis.route_space_builds_per_ask",
            per_ask("analysis.route_space_builds"),
            "count",
            asks as usize,
        ),
        m(
            "analysis.fire_set_builds_per_lint",
            mean(
                delta(&lint_ops, "analysis.fire_set_builds"),
                lints.len() as u64,
            ),
            "count",
            lints.len(),
        ),
        m(
            "automata.atoms_per_space",
            mean(st.atoms.iter().sum(), st.atoms.len() as u64),
            "count",
            st.atoms.len(),
        ),
        m("core.plan_ms", span_ms("core.plan"), "ms", asks as usize),
        m(
            "core.overlaps_per_ask",
            mean(st.overlaps, st.insertions),
            "count",
            st.insertions as usize,
        ),
        m(
            "core.pruned_per_ask",
            mean(st.pruned, st.insertions),
            "count",
            st.insertions as usize,
        ),
        m(
            "core.comparisons_per_ask",
            mean(st.comparisons, st.insertions),
            "count",
            st.insertions as usize,
        ),
        m(
            "core.questions_per_ask",
            mean(st.questions, st.insertions),
            "count",
            st.insertions as usize,
        ),
        m(
            "core.question_yield",
            if st.comparisons == 0 {
                0.0
            } else {
                st.questions as f64 / st.comparisons as f64
            },
            "ratio",
            st.comparisons as usize,
        ),
        m(
            "core.step_us",
            span_us("core.step"),
            "us",
            tracer.durations("core.step").len(),
        ),
        m(
            "core.finish_ms",
            span_ms("core.finish"),
            "ms",
            st.insertions as usize,
        ),
        m(
            "bdd.ite_calls_per_ask",
            per_ask("bdd.ite_calls"),
            "count",
            asks as usize,
        ),
        m(
            "bdd.unique_probes_per_ask",
            per_ask("bdd.unique_probes"),
            "count",
            asks as usize,
        ),
        m(
            "bdd.cache_hit_ratio",
            ratio(
                delta(&[Op::Ask], "bdd.ite_cache_hits"),
                delta(&[Op::Ask], "bdd.ite_cache_misses"),
            ),
            "ratio",
            asks as usize,
        ),
        m(
            "bdd.computed_evictions_per_ask",
            per_ask("bdd.computed_evictions"),
            "count",
            asks as usize,
        ),
        m("bdd.live_nodes_peak", *live_peak as f64, "nodes", k),
        m(
            "bdd.gc_runs_per_session",
            mean(delta(&Op::ALL, "bdd.gc.runs"), k as u64),
            "count",
            k,
        ),
        m(
            "bdd.gc_freed_nodes_per_session",
            mean(delta(&Op::ALL, "bdd.gc.freed_nodes"), k as u64),
            "nodes",
            k,
        ),
        m(
            "lint.cold_ms",
            span_ms("lint.cold"),
            "ms",
            tracer.durations("lint.cold").len(),
        ),
        m(
            "lint.new_ms",
            span_ms("lint.new"),
            "ms",
            tracer.durations("lint.new").len(),
        ),
        m(
            "lint.relint_ms",
            span_ms("lint.relint"),
            "ms",
            st.relints as usize,
        ),
        m(
            "lint.dirty_per_edit",
            mean(st.dirty, st.relints),
            "count",
            st.relints as usize,
        ),
        m(
            "lint.reused_per_edit",
            mean(st.reused, st.relints),
            "count",
            st.relints as usize,
        ),
        m(
            "lint.reuse_ratio",
            ratio(st.reused, st.dirty),
            "ratio",
            st.relints as usize,
        ),
        m(
            "par.inline_runs_per_ask",
            per_ask("par.inline_runs"),
            "count",
            asks as usize,
        ),
        m(
            "par.items_per_map",
            mean(delta(&Op::ALL, "par.items"), delta(&Op::ALL, "par.maps")),
            "count",
            k,
        ),
        m(
            "trace.overhead_pct",
            (all_ns(traced) as f64 / all_ns(handled).max(1) as f64 - 1.0) * 100.0,
            "%",
            k,
        ),
        m(
            "trace.ask_coverage_pct",
            if ask_ns == 0 {
                0.0
            } else {
                ask_covered as f64 / ask_ns as f64 * 100.0
            },
            "%",
            ask_spans.len(),
        ),
    ]
}
