//! Socket-level integration tests: a real daemon on an ephemeral port,
//! driven by a real TCP client, covering the full §2 worked example,
//! error frames, mid-turn reconnects, and shutdown.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::Duration;

use clarify_obs::json::{self, Value};
use clarify_serve::{Server, ServerConfig};

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

struct Daemon {
    addr: std::net::SocketAddr,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl Daemon {
    fn start(cfg: ServerConfig) -> Daemon {
        let server = Server::bind(cfg).expect("bind ephemeral port");
        let addr = server.local_addr().expect("local addr");
        let handle = std::thread::spawn(move || {
            server.run().expect("server run");
        });
        Daemon {
            addr,
            handle: Some(handle),
        }
    }

    fn connect(&self) -> Client {
        let stream = TcpStream::connect(self.addr).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(60)))
            .expect("timeout");
        let reader = BufReader::new(stream.try_clone().expect("clone"));
        Client { stream, reader }
    }

    /// Sends `shutdown` and joins the accept loops.
    fn stop(mut self) {
        let mut c = self.connect();
        let frame = c.roundtrip("{\"op\":\"shutdown\"}");
        assert!(
            frame.contains("shutting-down"),
            "unexpected shutdown frame: {frame}"
        );
        self.handle
            .take()
            .expect("not yet joined")
            .join()
            .expect("accept loops exit cleanly");
    }
}

struct Client {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Client {
    fn send(&mut self, line: &str) {
        self.stream.write_all(line.as_bytes()).expect("write");
        self.stream.write_all(b"\n").expect("write newline");
    }

    fn recv(&mut self) -> String {
        let mut line = String::new();
        let n = self.reader.read_line(&mut line).expect("read frame");
        assert!(n > 0, "connection closed while expecting a frame");
        line.trim_end().to_string()
    }

    /// Sends one request and reads one response frame.
    fn roundtrip(&mut self, line: &str) -> String {
        self.send(line);
        self.recv()
    }

    /// True when the server closed the connection — clean EOF, or a
    /// reset when it dropped the socket with client bytes still unread
    /// (the oversized-frame path does exactly that).
    fn closed(&mut self) -> bool {
        let mut line = String::new();
        match self.reader.read_line(&mut line) {
            Ok(n) => n == 0,
            Err(_) => true,
        }
    }
}

fn field<'a>(doc: &'a Value, key: &str) -> Option<&'a Value> {
    doc.as_object("frame")
        .ok()?
        .iter()
        .find(|(k, _)| k == key)
        .map(|(_, v)| v)
}

fn parse(frame: &str) -> Value {
    json::parse(frame).unwrap_or_else(|e| panic!("frame is not JSON ({e}): {frame}"))
}

fn open_config(c: &mut Client, config: &str) -> u64 {
    let frame = c.roundtrip(&format!(
        "{{\"op\":\"open\",\"config\":{}}}",
        json::escape(config)
    ));
    let doc = parse(&frame);
    field(&doc, "session")
        .and_then(|v| v.as_u64("session").ok())
        .unwrap_or_else(|| panic!("open failed: {frame}"))
}

/// Drives one full disambiguation to completion, always answering 1.
/// Returns (questions asked, final frame).
fn drive_to_done(c: &mut Client, session: u64, target: &str, intent: &str) -> (usize, Value) {
    let mut frame = c.roundtrip(&format!(
        "{{\"op\":\"ask\",\"session\":{session},\"target\":{},\"intent\":{}}}",
        json::escape(target),
        json::escape(intent)
    ));
    let mut questions = 0usize;
    loop {
        let doc = parse(&frame);
        assert_eq!(
            field(&doc, "ok").and_then(|v| v.as_bool("ok").ok()),
            Some(true),
            "turn failed: {frame}"
        );
        if field(&doc, "done").and_then(|v| v.as_bool("done").ok()) == Some(true) {
            return (questions, doc);
        }
        assert!(field(&doc, "question").is_some(), "no question in {frame}");
        questions += 1;
        frame = c.roundtrip(&format!(
            "{{\"op\":\"answer\",\"session\":{session},\"choice\":1}}"
        ));
    }
}

#[test]
fn full_worked_example_over_the_socket() {
    let daemon = Daemon::start(ServerConfig::default());
    let mut c = daemon.connect();

    assert!(c.roundtrip("{\"op\":\"ping\"}").contains("pong"));

    let session = open_config(&mut c, ISP_OUT);
    let (questions, done) = drive_to_done(&mut c, session, "ISP_OUT", PROMPT);

    // The §2 worked example: all-OPTION-1 answers put the stanza on top
    // after 2 questions and 3 LLM calls (pinned by tests/sec2_worked_example.rs
    // and tests/golden_e1.rs for the in-process path).
    assert_eq!(questions, 2, "question count drifted");
    assert_eq!(
        field(&done, "result").and_then(|v| v.as_str("result").ok()),
        Some("inserted")
    );
    assert_eq!(
        field(&done, "position").and_then(|v| v.as_u64("p").ok()),
        Some(0)
    );
    assert_eq!(
        field(&done, "llm_calls").and_then(|v| v.as_u64("c").ok()),
        Some(3)
    );
    let config = field(&done, "config")
        .and_then(|v| v.as_str("config").ok())
        .expect("updated config in frame");
    assert!(config.contains("route-map ISP_OUT"), "config echoed back");
    assert!(config.contains("set metric 55"), "snippet landed: {config}");

    // Warm turn on the same session: lint.
    let frame = c.roundtrip(&format!("{{\"op\":\"lint\",\"session\":{session}}}"));
    let doc = parse(&frame);
    assert!(field(&doc, "diagnostics").is_some(), "lint frame: {frame}");

    // Second ask on the same session reuses the warm space and sees the
    // previously inserted stanza in its base.
    let (_q2, done2) = drive_to_done(&mut c, session, "ISP_OUT", PROMPT);
    assert_eq!(
        field(&done2, "result").and_then(|v| v.as_str("result").ok()),
        Some("inserted")
    );

    assert!(c
        .roundtrip(&format!("{{\"op\":\"close\",\"session\":{session}}}"))
        .contains("closed"));
    daemon.stop();
}

#[test]
fn malformed_input_gets_error_frames_not_a_dead_daemon() {
    let daemon = Daemon::start(ServerConfig::default());
    let mut c = daemon.connect();

    for (line, code) in [
        ("this is not json", "bad-json"),
        ("{\"op\":17}", "bad-request"),
        ("{\"op\":\"frobnicate\"}", "unknown-op"),
        (
            "{\"op\":\"ask\",\"session\":42,\"target\":\"X\",\"intent\":\"y\"}",
            "unknown-session",
        ),
        (
            "{\"op\":\"answer\",\"session\":1,\"choice\":9}",
            "bad-request",
        ),
        (
            "{\"op\":\"open\",\"config\":\"route-map BROKEN\"}",
            "bad-request",
        ),
        // Valid JSON, but a session id is an integer.
        ("{\"op\":\"close\",\"session\":1.0}", "bad-request"),
    ] {
        let frame = c.roundtrip(line);
        assert!(frame.contains("\"ok\":false"), "{line} -> {frame}");
        assert!(frame.contains(code), "expected {code}: {line} -> {frame}");
        parse(&frame); // every error frame is valid JSON
    }

    // Same connection still works after all that abuse.
    assert!(c.roundtrip("{\"op\":\"ping\"}").contains("pong"));
    daemon.stop();
}

#[test]
fn oversized_line_closes_only_that_connection() {
    let daemon = Daemon::start(ServerConfig {
        max_frame_bytes: 4096,
        ..ServerConfig::default()
    });

    let mut c = daemon.connect();
    let huge = "x".repeat(8192);
    c.send(&huge); // no newline needed: the cap trips on buffered bytes
    let frame = c.recv();
    assert!(frame.contains("oversized-frame"), "{frame}");
    assert!(
        c.closed(),
        "connection should close after an oversized line"
    );

    // The daemon itself survives; a new connection is served.
    let mut c2 = daemon.connect();
    assert!(c2.roundtrip("{\"op\":\"ping\"}").contains("pong"));
    daemon.stop();
}

#[test]
fn mid_turn_disconnect_preserves_the_session() {
    let daemon = Daemon::start(ServerConfig::default());

    // Ask and answer the first question, then vanish mid-turn.
    let mut c1 = daemon.connect();
    let session = open_config(&mut c1, ISP_OUT);
    let frame = c1.roundtrip(&format!(
        "{{\"op\":\"ask\",\"session\":{session},\"target\":\"ISP_OUT\",\"intent\":{}}}",
        json::escape(PROMPT)
    ));
    assert!(frame.contains("question"), "{frame}");
    drop(c1);

    // A new connection resumes the same session where it left off.
    let mut c2 = daemon.connect();
    let mut frame = c2.roundtrip(&format!(
        "{{\"op\":\"answer\",\"session\":{session},\"choice\":1}}"
    ));
    let mut rounds = 0;
    while !frame.contains("\"done\":true") {
        assert!(frame.contains("question"), "{frame}");
        frame = c2.roundtrip(&format!(
            "{{\"op\":\"answer\",\"session\":{session},\"choice\":1}}"
        ));
        rounds += 1;
        assert!(rounds < 10, "no convergence: {frame}");
    }
    assert!(
        frame.contains("\"position\":0"),
        "resumed run still lands on top: {frame}"
    );
    daemon.stop();
}
