//! The client side of one session, over any transport.
//!
//! A session is `open → lint → (ask → answer* → lint) × rounds → close`,
//! the loop an interactive user runs: look at the lint verdict, ask for a
//! rule, answer the differential questions until the rule lands, and look
//! at the verdict again. The first `lint` of a session is a cold lint
//! (the daemon builds its incremental linter); later ones re-lint after
//! an insertion.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use clarify_netconfig::{fnv1a64, Config};
use clarify_obs::json::{self, Value};

use crate::inputs::Script;
use crate::rule;
use crate::stats::CpuClock;

/// No reply within this long counts as a failed operation.
const REPLY_TIMEOUT: Duration = Duration::from_secs(30);

/// A request kind, as the metrics split them.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Op {
    /// `open` with the script's base configuration.
    Open,
    /// `ask`: synthesis, verification and plan; returns the first
    /// question (or the done frame when nothing is ambiguous).
    Ask,
    /// `answer`: the next question, or the done frame.
    Answer,
    /// The session's first `lint` (a cold lint).
    ColdLint,
    /// A later `lint` (an incremental re-lint after an insertion).
    Relint,
    /// `close`.
    Close,
}

impl Op {
    /// Every kind, indexable by `op as usize`.
    pub const ALL: [Op; 6] = [
        Op::Open,
        Op::Ask,
        Op::Answer,
        Op::ColdLint,
        Op::Relint,
        Op::Close,
    ];

    /// Span name of a request of this kind.
    pub fn span_name(self) -> &'static str {
        match self {
            Op::Open => "op.open",
            Op::Ask => "op.ask",
            Op::Answer => "op.answer",
            Op::ColdLint | Op::Relint => "op.lint",
            Op::Close => "op.close",
        }
    }
}

/// Anything that carries one request line to the daemon and brings back
/// its response line.
pub trait Transport {
    /// Sends `line` (a request of kind `op`) and returns the response.
    fn call(&mut self, op: Op, line: &str) -> Result<String, String>;
}

/// Latency samples in nanoseconds, per request kind.
#[derive(Clone, Debug, Default)]
pub struct Samples {
    by_op: [Vec<u64>; 6],
}

impl Samples {
    /// Records one request's latency.
    pub fn push(&mut self, op: Op, ns: u64) {
        self.by_op[op as usize].push(ns);
    }

    /// The samples of one kind.
    pub fn of(&self, op: Op) -> &[u64] {
        &self.by_op[op as usize]
    }
}

/// Counts from one `lint` response.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LintCounts {
    /// Errors and warnings.
    pub findings: u64,
    /// All diagnostics, notes included.
    pub diagnostics: u64,
    /// Objects re-linted.
    pub dirty: u64,
    /// Objects whose diagnostics were reused.
    pub reused: u64,
}

/// What a session produced, for the correctness check.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SessionLog {
    /// Index of the script in the workload's pool.
    pub script: usize,
    /// The configuration after each round, as the done frame carried it.
    pub outputs: Vec<String>,
    /// Every `lint` response, in order (one more than `outputs`).
    pub lints: Vec<LintCounts>,
}

impl SessionLog {
    /// Identity of the session's outputs: sessions of one script that
    /// produced the same outputs are checked once.
    pub fn key(&self) -> (usize, u64) {
        let mut text = String::new();
        for o in &self.outputs {
            text.push_str(o);
            text.push('\0');
        }
        for l in &self.lints {
            text.push_str(&format!("{} {}\0", l.findings, l.diagnostics));
        }
        (self.script, fnv1a64(text.as_bytes()))
    }
}

fn field<'a>(members: &'a [(String, Value)], key: &str) -> Option<&'a Value> {
    members.iter().find(|(k, _)| k == key).map(|(_, v)| v)
}

fn parse_ok(op: Op, resp: &str) -> Result<Vec<(String, Value)>, String> {
    let doc = json::parse(resp).map_err(|e| format!("{op:?}: unparsable response: {e}"))?;
    let Value::Object(members) = doc else {
        return Err(format!("{op:?}: response is not an object"));
    };
    match field(&members, "ok") {
        Some(Value::Bool(true)) => Ok(members),
        _ => Err(format!("{op:?}: error frame {resp}")),
    }
}

fn get_u64(members: &[(String, Value)], key: &str) -> Result<u64, String> {
    field(members, key)
        .ok_or_else(|| format!("response lacks '{key}'"))?
        .as_u64(key)
}

fn get_str<'a>(members: &'a [(String, Value)], key: &str) -> Result<&'a str, String> {
    field(members, key)
        .ok_or_else(|| format!("response lacks '{key}'"))?
        .as_str(key)
}

fn lint_counts(members: &[(String, Value)]) -> Result<LintCounts, String> {
    Ok(LintCounts {
        findings: get_u64(members, "findings")?,
        diagnostics: get_u64(members, "diagnostics")?,
        dirty: get_u64(members, "dirty")?,
        reused: get_u64(members, "reused")?,
    })
}

/// Runs script `index` as one session; the first error ends it.
pub fn run_session(
    t: &mut dyn Transport,
    index: usize,
    script: &Script,
) -> Result<SessionLog, String> {
    let open = format!(
        "{{\"op\":\"open\",\"config\":{}}}",
        json::escape(&script.base)
    );
    let session = get_u64(&parse_ok(Op::Open, &t.call(Op::Open, &open)?)?, "session")?;
    let lint = format!("{{\"op\":\"lint\",\"session\":{session}}}");
    let mut log = SessionLog {
        script: index,
        outputs: Vec::new(),
        lints: vec![lint_counts(&parse_ok(
            Op::ColdLint,
            &t.call(Op::ColdLint, &lint)?,
        )?)?],
    };
    let mut current = script.parsed.clone();
    for round in &script.rounds {
        let ask = format!(
            "{{\"op\":\"ask\",\"session\":{session},\"target\":{},\"intent\":{}}}",
            json::escape(&round.target),
            json::escape(&round.prompt)
        );
        let mut resp = t.call(Op::Ask, &ask)?;
        let mut op = Op::Ask;
        let done = loop {
            let members = parse_ok(op, &resp)?;
            if field(&members, "done").map(|v| v.as_bool("done")) == Some(Ok(true)) {
                break members;
            }
            let question = field(&members, "question")
                .ok_or("question frame lacks 'question'")?
                .as_object("question")?;
            let pivot = get_u64(question, "pivot")?;
            let index = rule::pivot_index(&current, round.kind, &round.target, pivot)
                .ok_or_else(|| format!("pivot {pivot} is not a rule of {}", round.target))?;
            let choice = match rule::choose(round.slot, index) {
                clarify_core::Choice::First => 1,
                clarify_core::Choice::Second => 2,
            };
            if get_u64(question, "number")? > 64 {
                return Err("more than 64 questions for one insertion".to_string());
            }
            op = Op::Answer;
            resp = t.call(
                op,
                &format!("{{\"op\":\"answer\",\"session\":{session},\"choice\":{choice}}}"),
            )?;
        };
        if get_str(&done, "result")? != "inserted" {
            return Err(format!("round ended without an insertion: {resp}"));
        }
        let text = get_str(&done, "config")?.to_string();
        current = Config::parse(&text).map_err(|e| format!("done-frame config: {e}"))?;
        log.outputs.push(text);
        log.lints.push(lint_counts(&parse_ok(
            Op::Relint,
            &t.call(Op::Relint, &lint)?,
        )?)?);
    }
    let close = format!("{{\"op\":\"close\",\"session\":{session}}}");
    parse_ok(Op::Close, &t.call(Op::Close, &close)?)?;
    Ok(log)
}

/// A closed-loop client over TCP: one connection per session, every
/// request timed from the write to the end of the response line, in
/// wall-clock time and on a CPU clock (the serving thread's, when the
/// daemon runs in this process).
pub struct TcpClient {
    addr: SocketAddr,
    clock: CpuClock,
    conn: Option<(TcpStream, BufReader<TcpStream>)>,
    /// Latency of every request that got a response.
    pub samples: Samples,
    /// CPU time of every request that got a response since the caller
    /// last took them, in order.
    pub cpu: Vec<(Op, u64)>,
    /// Requests sent.
    pub attempted: u64,
}

impl TcpClient {
    /// A client of the daemon at `addr` (not yet connected) that reads
    /// `clock` around every request.
    pub fn new(addr: SocketAddr, clock: CpuClock) -> TcpClient {
        TcpClient {
            addr,
            clock,
            conn: None,
            samples: Samples::default(),
            cpu: Vec::new(),
            attempted: 0,
        }
    }

    /// Drops the current connection, if any, and opens a fresh one.
    pub fn reconnect(&mut self) -> Result<(), String> {
        self.conn = None;
        let stream = TcpStream::connect(self.addr).map_err(|e| format!("connect: {e}"))?;
        stream
            .set_nodelay(true)
            .and_then(|()| stream.set_read_timeout(Some(REPLY_TIMEOUT)))
            .map_err(|e| format!("socket options: {e}"))?;
        let reader = BufReader::new(stream.try_clone().map_err(|e| format!("clone: {e}"))?);
        self.conn = Some((stream, reader));
        Ok(())
    }
}

impl Transport for TcpClient {
    fn call(&mut self, op: Op, line: &str) -> Result<String, String> {
        let (stream, reader) = self.conn.as_mut().ok_or("not connected")?;
        self.attempted += 1;
        let mut request = String::with_capacity(line.len() + 1);
        request.push_str(line);
        request.push('\n');
        let mut resp = String::new();
        let cpu = self.clock.now_ns();
        let start = Instant::now();
        stream
            .write_all(request.as_bytes())
            .map_err(|e| format!("{op:?}: write: {e}"))?;
        reader
            .read_line(&mut resp)
            .map_err(|e| format!("{op:?}: no reply: {e}"))?;
        let ns = start.elapsed().as_nanos() as u64;
        let cpu = self.clock.now_ns() - cpu;
        if !resp.ends_with('\n') {
            return Err(format!("{op:?}: connection closed mid-reply"));
        }
        self.samples.push(op, ns);
        self.cpu.push((op, cpu));
        resp.pop();
        Ok(resp)
    }
}

/// Asks the daemon at `addr` to shut down.
pub fn shutdown(addr: SocketAddr) -> Result<(), String> {
    let mut c = TcpClient::new(addr, CpuClock::THIS_THREAD);
    c.reconnect()?;
    c.call(Op::Close, "{\"op\":\"shutdown\"}").map(|_| ())
}
