//! E10 determinism (ISSUE satellite): the same scripted transcript,
//! replayed against the daemon and against the one-shot CLI, must produce
//! byte-identical question sequences and the same final placement — at 1
//! worker thread and at 8.
//!
//! Everything runs in ONE test function because the thread-count override
//! is process-global (`clarify::par::set_threads`); the CLI subprocess
//! gets its count via `--threads` instead.

use std::io::{BufRead, BufReader, Write as _};
use std::net::TcpStream;
use std::process::{Command, Stdio};
use std::time::Duration;

use clarify::obs::json::{self, Value};
use clarify::serve::{Server, ServerConfig};

const E1_PROMPT: &str = "Write a route-map stanza that permits routes containing the prefix \
100.0.0.0/16 with mask length less than or equal to 23 and tagged with the community 300:3. \
Their MED value should be set to 55.";

/// A second intent for the configuration E1 leaves: it overlaps the E1
/// stanza, and its community adds a pattern to the ones E1 brought.
const SECOND_PROMPT: &str = "Write a route-map stanza that denies routes containing the prefix \
100.0.0.0/8 with mask length less than or equal to 24 and tagged with the community 300:4.";

/// One `ask` turn as the daemon ran it.
#[derive(Debug, PartialEq)]
struct AskTurn {
    questions: Vec<String>,
    position: u64,
    /// The configuration the turn committed.
    config: String,
}

fn field<'a>(doc: &'a Value, key: &str) -> Option<&'a Value> {
    doc.as_object("frame")
        .ok()?
        .iter()
        .find(|(k, _)| k == key)
        .map(|(_, v)| v)
}

/// Drives E1 against a fresh daemon; returns (question texts, position).
fn daemon_transcript(config_text: &str) -> (Vec<String>, u64) {
    daemon_transcript_with(config_text, ServerConfig::default())
}

fn daemon_transcript_with(config_text: &str, cfg: ServerConfig) -> (Vec<String>, u64) {
    let turn = daemon_session(config_text, cfg, &[E1_PROMPT]).remove(0);
    (turn.questions, turn.position)
}

/// Opens one config session on a fresh daemon and asks `prompts` in turn,
/// answering every question with OPTION 1.
fn daemon_session(config_text: &str, cfg: ServerConfig, prompts: &[&str]) -> Vec<AskTurn> {
    let server = Server::bind(cfg).expect("bind");
    let addr = server.local_addr().expect("addr");
    let handle = std::thread::spawn(move || server.run().expect("run"));

    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(120)))
        .expect("timeout");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut turn = |line: String| -> Value {
        stream.write_all(line.as_bytes()).expect("write");
        stream.write_all(b"\n").expect("newline");
        let mut resp = String::new();
        reader.read_line(&mut resp).expect("read");
        json::parse(resp.trim_end()).unwrap_or_else(|e| panic!("bad frame ({e}): {resp}"))
    };

    let doc = turn(format!(
        "{{\"op\":\"open\",\"config\":{}}}",
        json::escape(config_text)
    ));
    let session = field(&doc, "session")
        .and_then(|v| v.as_u64("session").ok())
        .expect("session id");

    let mut turns = Vec::new();
    for prompt in prompts {
        let mut questions = Vec::new();
        let mut doc = turn(format!(
            "{{\"op\":\"ask\",\"session\":{session},\"target\":\"ISP_OUT\",\"intent\":{}}}",
            json::escape(prompt)
        ));
        loop {
            if field(&doc, "done").and_then(|v| v.as_bool("done").ok()) == Some(true) {
                break;
            }
            let q = field(&doc, "question").expect("question frame");
            let text = q
                .as_object("question")
                .ok()
                .and_then(|m| m.iter().find(|(k, _)| k == "text"))
                .and_then(|(_, v)| v.as_str("text").ok())
                .expect("question text")
                .to_string();
            questions.push(text);
            assert!(questions.len() < 10, "no convergence");
            doc = turn(format!(
                "{{\"op\":\"answer\",\"session\":{session},\"choice\":1}}"
            ));
        }
        let position = field(&doc, "position")
            .and_then(|v| v.as_u64("position").ok())
            .expect("position");
        let config = field(&doc, "config")
            .and_then(|v| v.as_str("config").ok())
            .expect("committed configuration")
            .to_string();
        turns.push(AskTurn {
            questions,
            position,
            config,
        });
    }

    turn("{\"op\":\"shutdown\"}".to_string());
    handle.join().expect("clean shutdown");
    turns
}

/// Drives E1 through the real CLI binary; returns (question texts,
/// position).
fn cli_transcript(threads: &str) -> (Vec<String>, u64) {
    cli_ask(threads, "testdata/isp_out.cfg", E1_PROMPT)
}

/// Asks `prompt` of the configuration at `config` through the real CLI
/// binary; returns (question texts, position). Questions are extracted
/// from the interactive transcript: between "For this route:\n\n" and
/// "\n\nyour choice [1/2]" lies exactly the question's `Display`
/// rendering — the same string the daemon sends as the `text` field.
fn cli_ask(threads: &str, config: &str, prompt: &str) -> (Vec<String>, u64) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_clarify"))
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .args(["--threads", threads, "ask", config, "ISP_OUT", prompt])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("clarify spawns");
    // Scripted answers: always OPTION 1. Extra lines are never read.
    child
        .stdin
        .take()
        .expect("stdin")
        .write_all(b"1\n1\n1\n1\n1\n1\n1\n1\n")
        .expect("script answers");
    let output = child.wait_with_output().expect("clarify runs");
    assert!(
        output.status.success(),
        "clarify ask failed: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    let stdout = String::from_utf8(output.stdout).expect("utf8 transcript");

    let mut questions = Vec::new();
    for part in stdout.split("For this route:\n\n").skip(1) {
        let text = part
            .split("\n\nyour choice [1/2]")
            .next()
            .expect("question delimited");
        questions.push(text.to_string());
    }
    let position: u64 = stdout
        .split("placed at position ")
        .nth(1)
        .and_then(|s| s.split_whitespace().next())
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("no placement line in:\n{stdout}"));
    (questions, position)
}

#[test]
fn daemon_and_cli_replay_identical_transcripts_at_1_and_8_threads() {
    let config_text = std::fs::read_to_string(
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("testdata/isp_out.cfg"),
    )
    .expect("fixture");

    // Serial daemon pass is the reference transcript.
    clarify::par::set_threads(1);
    let reference = daemon_transcript(&config_text);
    assert_eq!(reference.1, 0, "E1: all-OPTION-1 answers place on top");
    assert_eq!(reference.0.len(), 2, "E1: binary search asks 2 questions");

    // Parallel daemon pass: with 8 workers the transcript must not move
    // by a byte.
    clarify::par::set_threads(8);
    let parallel = daemon_transcript(&config_text);
    clarify::par::set_threads(0);
    assert_eq!(reference, parallel, "daemon transcript moved with threads");

    // CLI passes at both counts: same questions, same placement.
    let cli_1 = cli_transcript("1");
    let cli_8 = cli_transcript("8");
    assert_eq!(cli_1, cli_8, "CLI transcript moved with threads");
    assert_eq!(
        reference, cli_1,
        "daemon and CLI disagree on the E1 transcript"
    );

    // Recorded-replay pass: daemon sessions route turns through the same
    // backend stack as the CLI, so a daemon whose stack replays the
    // committed E1 transcript (recorded by the one-shot CLI) walks the
    // identical question sequence with zero live backend calls.
    let transcript_text = std::fs::read_to_string(
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("testdata/transcripts/e1.json"),
    )
    .expect("committed transcript");
    let transcript =
        clarify::llm::Transcript::from_json(&transcript_text).expect("transcript loads");
    let cfg = ServerConfig {
        backend: clarify::llm::BackendStack::semantic()
            .with_replay(std::sync::Arc::new(transcript)),
        ..ServerConfig::default()
    };
    let replayed = daemon_transcript_with(&config_text, cfg);
    assert_eq!(
        reference, replayed,
        "daemon replaying the recorded transcript diverged from the live run"
    );

    // A session that asks twice plans its second turn from the first
    // turn's atoms; it must ask what a one-shot `clarify ask` on the
    // configuration the first turn committed asks.
    let intermediate = std::env::temp_dir().join(format!(
        "clarify_serve_second_ask_{}.cfg",
        std::process::id()
    ));
    for threads in [1, 8] {
        clarify::par::set_threads(threads);
        let turns = daemon_session(
            &config_text,
            ServerConfig::default(),
            &[E1_PROMPT, SECOND_PROMPT],
        );
        clarify::par::set_threads(0);
        assert_eq!(
            (&turns[0].questions, turns[0].position),
            (&reference.0, reference.1)
        );
        assert!(!turns[1].questions.is_empty(), "the second intent overlaps");
        std::fs::write(&intermediate, &turns[0].config).expect("write the configuration");
        let path = intermediate.to_str().expect("utf8 path");
        let cli = cli_ask(&threads.to_string(), path, SECOND_PROMPT);
        assert_eq!(
            (turns[1].questions.clone(), turns[1].position),
            cli,
            "second ask at {threads} threads"
        );
    }
    std::fs::remove_file(&intermediate).ok();
}
