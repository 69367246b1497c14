//! E10: daemon throughput and turn latency under a synthetic client
//! storm (ISSUE tentpole bench).
//!
//! A real daemon is bound on an ephemeral port; `CLIENTS` threads each
//! drive `SESSIONS_PER_CLIENT` full E1 conversations over TCP (open →
//! ask → 2 × answer → close — the §2 worked example, always choosing
//! OPTION 1). Every request/response roundtrip is timed individually.
//!
//! Reported (via `clarify_testkit::bench::emit_record`, so the records
//! land in `CLARIFY_BENCH_JSON` alongside the Criterion-facade benches):
//!
//! - `serve/e1_storm/turn_p50`, `turn_p99` — per-turn roundtrip latency
//!   percentiles across every client (includes the daemon's ≤1ms poll
//!   sleep, the honest socket-to-socket number);
//! - `serve/e1_storm/session` — mean wall-clock per complete session,
//!   whose reciprocal is sessions/sec (also printed);
//! - `serve/e1_storm/bdd_gc_runs`, `bdd_gc_freed_nodes`,
//!   `bdd_live_nodes` — kernel collection telemetry snapshotted after the
//!   storm (the daemon runs in-process, so its managers report to the
//!   global registry). `live_nodes` of 0 after every session closes is
//!   the no-leak statement; `gc_runs` of 0 says sessions stayed below
//!   the collection floor and never paid a GC pause.
//!
//! `CLARIFY_BENCH_QUICK=1` shrinks the storm for the CI smoke pass.

use std::io::{BufRead, BufReader, Write as _};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use clarify_obs::json;
use clarify_serve::{Server, ServerConfig};
use clarify_testkit::bench::emit_record;

const ISP_OUT: &str = "\
ip as-path access-list D0 permit _32$
ip prefix-list D1 seq 10 permit 10.0.0.0/8 le 24
ip prefix-list D1 seq 20 permit 20.0.0.0/16 le 32
ip prefix-list D1 seq 30 permit 1.0.0.0/20 ge 24
route-map ISP_OUT deny 10
 match as-path D0
route-map ISP_OUT deny 20
 match ip address prefix-list D1
route-map ISP_OUT permit 30
 match local-preference 300
";

const PROMPT: &str = "Write a route-map stanza that permits routes containing the prefix \
100.0.0.0/16 with mask length less than or equal to 23 and tagged with the community 300:3. \
Their MED value should be set to 55.";

fn quick() -> bool {
    std::env::var("CLARIFY_BENCH_QUICK").is_ok_and(|v| !v.is_empty() && v != "0")
}

struct Client {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Client {
    fn connect(addr: std::net::SocketAddr) -> Client {
        let stream = TcpStream::connect(addr).expect("connect");
        stream.set_nodelay(true).expect("nodelay");
        stream
            .set_read_timeout(Some(Duration::from_secs(120)))
            .expect("timeout");
        let reader = BufReader::new(stream.try_clone().expect("clone"));
        Client { stream, reader }
    }

    /// One timed roundtrip. Returns (response, ns).
    fn turn(&mut self, line: &str) -> (String, u64) {
        let start = Instant::now();
        self.stream
            .write_all(format!("{line}\n").as_bytes())
            .expect("write");
        let mut resp = String::new();
        self.reader.read_line(&mut resp).expect("read");
        let ns = start.elapsed().as_nanos() as u64;
        assert!(resp.contains("\"ok\":true"), "turn failed: {resp}");
        (resp, ns)
    }
}

/// Runs one full E1 session; appends per-turn latencies to `turns`.
fn run_session(addr: std::net::SocketAddr, turns: &mut Vec<u64>) {
    let mut c = Client::connect(addr);
    let open = format!("{{\"op\":\"open\",\"config\":{}}}", json::escape(ISP_OUT));
    let (resp, ns) = c.turn(&open);
    turns.push(ns);
    let session: u64 = resp
        .split("\"session\":")
        .nth(1)
        .and_then(|s| s.trim_end_matches(['}', '\n']).parse().ok())
        .expect("session id");

    let ask = format!(
        "{{\"op\":\"ask\",\"session\":{session},\"target\":\"ISP_OUT\",\"intent\":{}}}",
        json::escape(PROMPT)
    );
    let (mut resp, ns) = c.turn(&ask);
    turns.push(ns);
    let answer = format!("{{\"op\":\"answer\",\"session\":{session},\"choice\":1}}");
    let mut rounds = 0;
    while !resp.contains("\"done\":true") {
        let (r, ns) = c.turn(&answer);
        turns.push(ns);
        resp = r;
        rounds += 1;
        assert!(rounds < 10, "E1 did not converge: {resp}");
    }
    assert!(resp.contains("\"position\":0"), "E1 drifted: {resp}");
    let (_, ns) = c.turn(&format!("{{\"op\":\"close\",\"session\":{session}}}"));
    turns.push(ns);
}

fn main() {
    let (clients, sessions_per_client) = if quick() { (2, 2) } else { (4, 16) };

    let server = Server::bind(ServerConfig::default()).expect("bind");
    let addr = server.local_addr().expect("addr");
    let daemon = std::thread::spawn(move || server.run().expect("run"));

    // Warm-up session: JIT-free language, but the first session pays
    // lazy one-time costs (prompt DB) that would skew the distribution.
    run_session(addr, &mut Vec::new());

    let storm_start = Instant::now();
    let handles: Vec<_> = (0..clients)
        .map(|_| {
            std::thread::spawn(move || {
                let mut turns = Vec::new();
                for _ in 0..sessions_per_client {
                    run_session(addr, &mut turns);
                }
                turns
            })
        })
        .collect();
    let mut turns: Vec<u64> = handles
        .into_iter()
        .flat_map(|h| h.join().expect("client thread"))
        .collect();
    let storm_ns = storm_start.elapsed().as_nanos() as f64;

    // Shut the daemon down cleanly before reporting.
    let mut c = Client::connect(addr);
    c.stream
        .write_all(b"{\"op\":\"shutdown\"}\n")
        .expect("write");
    let mut resp = String::new();
    c.reader.read_line(&mut resp).expect("read");
    daemon.join().expect("daemon exits");

    turns.sort_unstable();
    let total_sessions = (clients * sessions_per_client) as f64;
    let pct = |p: f64| turns[((turns.len() - 1) as f64 * p) as usize] as f64;
    let (min, max) = (turns[0] as f64, turns[turns.len() - 1] as f64);
    let session_ns = storm_ns / total_sessions;

    emit_record(
        "serve/e1_storm/turn_p50",
        "ns",
        pct(0.50),
        min,
        max,
        turns.len(),
        1,
    );
    emit_record(
        "serve/e1_storm/turn_p99",
        "ns",
        pct(0.99),
        min,
        max,
        turns.len(),
        1,
    );
    emit_record(
        "serve/e1_storm/session",
        "ns",
        session_ns,
        session_ns,
        session_ns,
        1,
        clients * sessions_per_client,
    );

    // The daemon ran in-process, so the kernel's collection telemetry is
    // on the global registry: how often warm sessions collected, how much
    // they reclaimed, and the live-node gauge left after the whole storm
    // (the memory-flatness number — dead garbage does not count).
    let snap = clarify_obs::global().snapshot();
    let gc_runs = snap.counter("bdd.gc.runs") as f64;
    let gc_freed = snap.counter("bdd.gc.freed_nodes") as f64;
    let live_nodes = snap.gauge("bdd.unique_nodes") as f64;
    emit_record(
        "serve/e1_storm/bdd_gc_runs",
        "count",
        gc_runs,
        gc_runs,
        gc_runs,
        1,
        1,
    );
    emit_record(
        "serve/e1_storm/bdd_gc_freed_nodes",
        "nodes",
        gc_freed,
        gc_freed,
        gc_freed,
        1,
        1,
    );
    emit_record(
        "serve/e1_storm/bdd_live_nodes",
        "nodes",
        live_nodes,
        live_nodes,
        live_nodes,
        1,
        1,
    );
    println!(
        "bench serve/e1_storm: {clients} clients x {sessions_per_client} sessions, \
         {} turns, {:.1} sessions/sec",
        turns.len(),
        total_sessions / (storm_ns / 1e9),
    );
}
