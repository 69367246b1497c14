//! The end-to-end run: an in-process daemon on `127.0.0.1:0`, driven
//! over the real NDJSON/TCP protocol by one closed-loop client.
//!
//! The loop is closed because an interactive user waits for each
//! question before answering it. One client, because with two the
//! interplay of their requests with the daemon's 1 ms idle poll (and with
//! each other on a shared accept loop) doubled the run-to-run spread on a
//! 2-core host. It opens a fresh connection per session, as a new user
//! would. The timed window is cut into [`SETUPS`] equal shares, each
//! served by a freshly set-up daemon.
//!
//! Every request is measured in the CPU time the daemon's thread spent on
//! it, and the client cycles through a small pool of scripts, so that each
//! request is replayed several times in a run; a request's cost is the
//! least CPU time any of its replays took. On a shared host the same work
//! takes up to half as long again while other guests load the caches,
//! for seconds at a time, and that only ever adds time: the least of
//! several replays spread over the run is the request's own cost.

use std::net::SocketAddr;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use clarify_serve::{Server, ServerConfig};

use crate::check::{self, DistinctLogs};
use crate::inputs::Workload;
use crate::reference::Meter;
use crate::session::{run_session, shutdown, Op, TcpClient};
use crate::stats::{median_f64, peak_rss_mb, percentile, CpuClock, Metric};
use crate::Outcome;

/// Fresh set-ups per run; `setup_s` is their median.
const SETUPS: usize = 9;

/// A daemon serving on an ephemeral loopback port from a thread of this
/// process.
pub struct Daemon {
    /// The bound address.
    pub addr: SocketAddr,
    /// The CPU clock of the thread that serves every request.
    pub clock: CpuClock,
    handle: JoinHandle<std::io::Result<()>>,
}

impl Daemon {
    /// Binds and starts serving, with one accept loop: the client keeps
    /// one connection open at a time, and a second loop's idle polls would
    /// run while a request is served and count in its CPU time.
    pub fn start() -> Result<Daemon, String> {
        let server = Server::bind(ServerConfig {
            workers: 1,
            ..ServerConfig::default()
        })
        .map_err(|e| format!("bind: {e}"))?;
        let addr = server
            .local_addr()
            .map_err(|e| format!("local_addr: {e}"))?;
        // With one worker, `run` serves from the thread it is called on.
        let handle = std::thread::spawn(move || server.run());
        let clock = CpuClock::of(&handle)?;
        Ok(Daemon {
            addr,
            clock,
            handle,
        })
    }

    /// Requests shutdown and waits for every accept loop to exit.
    pub fn stop(self) -> Result<(), String> {
        shutdown(self.addr)?;
        match self.handle.join() {
            Ok(Ok(())) => Ok(()),
            Ok(Err(e)) => Err(format!("daemon: {e}")),
            Err(_) => Err("daemon thread panicked".to_string()),
        }
    }
}

/// When a closed loop stops starting sessions.
#[derive(Clone, Copy)]
enum Stop {
    /// Start no session after this instant (sessions in flight finish).
    Deadline(Instant),
    /// Run scripts `0..n` of the pool.
    Count(usize),
}

/// A script's requests in order, each with its kind and CPU time.
type Costs = Vec<(Op, u64)>;

/// What closed loops did.
struct LoopResult {
    /// Per script of the pool, `None` until a session of it completes:
    /// its requests, each with the least CPU time over the script's
    /// completed sessions.
    least: Vec<Option<Costs>>,
    /// Per script of the pool: its completed sessions.
    replays: Vec<usize>,
    /// The session the next loop starts with; it carries on through the
    /// pool where the last loop stopped.
    next: usize,
    /// Sessions that ran to completion.
    sessions: usize,
    /// Operations attempted: connects plus requests.
    attempted: u64,
    /// Sessions that ended in an error (each counts one failed operation).
    failures: Vec<String>,
    /// Distinct session outputs, for the correctness check.
    logs: DistinctLogs,
}

impl LoopResult {
    fn new(w: &Workload) -> LoopResult {
        LoopResult {
            least: vec![None; w.scripts.len()],
            replays: vec![0; w.scripts.len()],
            next: 0,
            sessions: 0,
            attempted: 0,
            failures: Vec::new(),
            logs: DistinctLogs::default(),
        }
    }
}

/// Runs the pool's scripts in order (cycling, from `out.next`) against
/// `addr`, each as one session on a fresh connection, until `stop`, timing
/// requests on `clock` and, before each session, the reference kernel on
/// `meter`.
fn closed_loop(
    addr: SocketAddr,
    clock: CpuClock,
    w: &Workload,
    stop: Stop,
    mut meter: Option<&mut Meter>,
    out: &mut LoopResult,
) {
    let mut tcp = TcpClient::new(addr, clock);
    let first = out.next;
    while match stop {
        Stop::Deadline(t) => Instant::now() < t,
        Stop::Count(n) => out.next - first < n,
    } {
        let index = out.next % w.scripts.len();
        out.attempted += 1;
        if let Some(m) = meter.as_deref_mut() {
            m.tick();
        }
        let session = tcp
            .reconnect()
            .and_then(|()| run_session(&mut tcp, index, w.script(index)));
        let costs = std::mem::take(&mut tcp.cpu);
        match session {
            Ok(log) => {
                out.sessions += 1;
                out.replays[index] += 1;
                out.logs.add(log);
                match &mut out.least[index] {
                    slot @ None => *slot = Some(costs),
                    Some(least) if least.iter().map(|c| c.0).eq(costs.iter().map(|c| c.0)) => {
                        for (l, c) in least.iter_mut().zip(costs) {
                            l.1 = l.1.min(c.1);
                        }
                    }
                    Some(_) => out
                        .failures
                        .push(format!("script {index}: a replay sent other requests")),
                }
            }
            Err(e) => out.failures.push(format!("script {index}: {e}")),
        }
        out.next += 1;
    }
    out.attempted += tcp.attempted;
}

/// The end-to-end run: [`SETUPS`] times, a fresh set-up and then an equal
/// share of `seconds` of closed-loop load on its daemon; then the
/// correctness check.
///
/// The set-ups are spread over the run, not made back to back: a set-up
/// takes milliseconds, and nine in a row met one state of a shared host,
/// so that their median moved by half from run to run.
pub fn run(w: &Workload, seconds: u64) -> Result<Outcome, String> {
    let share = Duration::from_secs(seconds) / SETUPS as u32;
    let mut setups = Vec::new();
    let mut warm = LoopResult::new(w);
    let mut window = LoopResult::new(w);
    let mut meter = Meter::default();
    for _ in 0..SETUPS {
        // Set-up: daemon bind through one warm-up session (the pool's first
        // script), in the CPU time of this thread and of the daemon's,
        // which starts at zero.
        let cpu = CpuClock::THIS_THREAD.now_ns();
        let d = Daemon::start()?;
        warm.next = 0;
        closed_loop(d.addr, d.clock, w, Stop::Count(1), None, &mut warm);
        setups.push((CpuClock::THIS_THREAD.now_ns() - cpu + d.clock.now_ns()) as f64 / 1e9);
        let deadline = Instant::now() + share;
        closed_loop(
            d.addr,
            d.clock,
            w,
            Stop::Deadline(deadline),
            Some(&mut meter),
            &mut window,
        );
        d.stop()?;
    }

    window.logs.merge(warm.logs);
    let mut failures = warm.failures;
    failures.append(&mut window.failures);
    failures.extend(check::check(w, &window.logs));

    // Every CPU time at the reference host speed, in milliseconds.
    let scale = meter.scale().ok_or("the reference kernel never ran")?;
    let ms = |ns: u64| ns as f64 * scale / 1e6;
    let scripts: Vec<&Costs> = window.least.iter().flatten().collect();
    let sessions: Vec<u64> = scripts
        .iter()
        .map(|s| s.iter().map(|c| c.1).sum())
        .collect();
    let pct = |op: Op, p: f64| {
        let costs: Vec<u64> = scripts
            .iter()
            .flat_map(|s| s.iter().filter(|c| c.0 == op).map(|c| c.1))
            .collect();
        percentile(&costs, p)
            .map(|ns| (ms(ns), costs.len()))
            .ok_or_else(|| format!("no {op:?} requests completed"))
    };
    // The mean, not a percentile: every seed's pool carries the same mix of
    // scripts, whose sessions cost from one to several times the cheapest,
    // and a percentile of so few, so spread, values jumps between them.
    let session_mean = ms(sessions.iter().sum::<u64>()) / sessions.len().max(1) as f64;
    let (ask_p50, asks) = pct(Op::Ask, 0.5)?;
    // The 75th, not the 90th: 12 asks lie beyond it on `acl_policy` and
    // `lint_edits` (5 beyond the 90th), and over ten seeds it spread about
    // half as much as the 90th.
    let (ask_p75, _) = pct(Op::Ask, 0.75)?;
    let (cold_lint_p50, cold_lints) = pct(Op::ColdLint, 0.5)?;
    let (relint_p50, relints) = pct(Op::Relint, 0.5)?;
    println!(
        "{} window: {} sessions, each of the {} scripts replayed {} times or more; \
         reference kernel {:.3} ms (fast runs), scale {scale:.4}",
        w.name,
        window.sessions,
        w.scripts.len(),
        window.replays.iter().min().unwrap_or(&0),
        meter.fast_ns().unwrap_or(0) as f64 / 1e6,
    );
    let metrics = vec![
        Metric::new("setup_s", median_f64(&setups) * scale, "s", SETUPS),
        Metric::new("session_cpu_ms", session_mean, "ms", sessions.len()),
        Metric::new("ask_cpu_p50_ms", ask_p50, "ms", asks),
        Metric::new("ask_cpu_p75_ms", ask_p75, "ms", asks),
        Metric::new("cold_lint_cpu_p50_ms", cold_lint_p50, "ms", cold_lints),
        Metric::new("relint_cpu_p50_ms", relint_p50, "ms", relints),
        Metric::new("peak_rss_mb", peak_rss_mb()?, "MiB", 1),
    ];
    Ok(Outcome {
        metrics,
        attempted: warm.attempted + window.attempted,
        failures,
    })
}
