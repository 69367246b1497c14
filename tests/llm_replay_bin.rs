//! Transcript-replay CI gate (ISSUE satellite): the committed E1 and E3
//! transcripts, replayed offline through the CLI's backend stack, must
//! reproduce their pinned stdout byte for byte — at 1 worker thread and
//! at 8 — and the failure modes must hold: a tampered transcript falls
//! back to the live backend with a warning (still matching the golden,
//! since the recorded run used the same backend), a corrupt file is a
//! usage error, and a fresh record→replay roundtrip is self-consistent.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn repo() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

fn clarify(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_clarify"))
        .current_dir(repo())
        .args(args)
        .output()
        .expect("clarify runs")
}

fn golden(name: &str) -> String {
    std::fs::read_to_string(repo().join("testdata/transcripts").join(name))
        .unwrap_or_else(|e| panic!("fixture {name}: {e}"))
}

/// Replays `transcript` at the given thread count and asserts stdout is
/// byte-identical to the committed golden and stderr is empty: a stale
/// transcript falls back to the live backend, which reproduces the same
/// stdout, so only its stderr warning shows it.
fn assert_replay_matches(transcript: &str, stdout_golden: &str, threads: &str) {
    let out = clarify(&[
        "--threads",
        threads,
        "--replay-transcript",
        &format!("testdata/transcripts/{transcript}"),
    ]);
    assert!(
        out.status.success(),
        "replay of {transcript} at {threads} thread(s) failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let got = String::from_utf8(out.stdout).expect("utf8 stdout");
    assert_eq!(
        got,
        golden(stdout_golden),
        "replay of {transcript} at {threads} thread(s) diverged from {stdout_golden}"
    );
    assert_eq!(
        String::from_utf8_lossy(&out.stderr),
        "",
        "replay of {transcript} at {threads} thread(s) wrote to stderr"
    );
}

#[test]
fn committed_transcripts_replay_byte_identically_at_1_and_8_threads() {
    for threads in ["1", "8"] {
        assert_replay_matches("e1.json", "e1.stdout", threads);
        assert_replay_matches("e3.json", "e3.stdout", threads);
    }
}

#[test]
fn committed_transcripts_load_as_trusted_and_rerender_byte_identically() {
    for name in ["e1.json", "e3.json"] {
        let text = golden(name);
        let transcript = clarify::llm::Transcript::from_json(&text)
            .unwrap_or_else(|e| panic!("{name} is not trusted: {e}"));
        assert_eq!(transcript.to_json(), text, "{name} re-renders differently");
    }
}

fn tmp_path(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("clarify-replay-{}-{name}", std::process::id()))
}

#[test]
fn tampered_transcript_warns_and_falls_back_to_the_live_backend() {
    let text = golden("e1.json");
    let tampered = text.replace("set metric 55", "set metric 56");
    assert_ne!(text, tampered, "tamper target not found");
    let path = tmp_path("tampered.json");
    std::fs::write(&path, tampered).expect("write tampered transcript");

    let out = clarify(&["--replay-transcript", path.to_str().expect("utf8 path")]);
    std::fs::remove_file(&path).ok();
    assert!(out.status.success(), "stale fallback should still succeed");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("stale transcript") && stderr.contains("checksum mismatch"),
        "expected a stale-transcript warning, got: {stderr}"
    );
    // The session metadata survives the tamper, so the live fallback runs
    // the same session and lands on the same output.
    assert_eq!(
        String::from_utf8_lossy(&out.stdout),
        golden("e1.stdout"),
        "live fallback diverged from the recording"
    );
}

/// A spec whose community regex does not parse, under a valid checksum,
/// is an analysis error: exit 1 with an `error:` line, not a panic.
#[test]
fn unparseable_spec_regex_is_an_error_not_a_panic() {
    let text = golden("e1.json").replace("community _300:3_\\n", "community (300\\n");
    let transcript = clarify::llm::Transcript::from_json_unchecked(&text).expect("still JSON");
    let path = tmp_path("bad-spec-regex.json");
    std::fs::write(&path, transcript.to_json()).expect("write transcript");
    let out = clarify(&["--replay-transcript", path.to_str().expect("utf8 path")]);
    std::fs::remove_file(&path).ok();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "stderr: {stderr}");
    assert!(
        stderr.lines().any(|l| l.starts_with("error:")) && !stderr.contains("stale"),
        "expected an error line and no checksum warning, got: {stderr}"
    );
}

#[test]
fn corrupt_transcript_is_a_usage_error() {
    let path = tmp_path("corrupt.json");
    std::fs::write(&path, "{\"not\": \"a transcript\"}").expect("write corrupt transcript");
    let out = clarify(&["--replay-transcript", path.to_str().expect("utf8 path")]);
    std::fs::remove_file(&path).ok();
    assert_eq!(out.status.code(), Some(2), "corrupt transcript must exit 2");
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("corrupt transcript"),
        "expected a corrupt-transcript error"
    );
}

#[test]
fn record_then_replay_roundtrip_is_self_consistent() {
    use std::io::Write as _;
    use std::process::Stdio;

    let path = tmp_path("roundtrip.json");
    let mut child = Command::new(env!("CARGO_BIN_EXE_clarify"))
        .current_dir(repo())
        .args([
            "--record-transcript",
            path.to_str().expect("utf8 path"),
            "ask",
            "testdata/isp_out.cfg",
            "ISP_OUT",
            "Write a route-map stanza that permits routes containing the prefix \
             100.0.0.0/16 with mask length less than or equal to 23 and tagged with the \
             community 300:3. Their MED value should be set to 55.",
        ])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("clarify spawns");
    child
        .stdin
        .take()
        .expect("stdin")
        .write_all(b"1\n2\n1\n2\n1\n2\n")
        .expect("script answers");
    let recorded = child.wait_with_output().expect("clarify runs");
    assert!(
        recorded.status.success(),
        "recording run failed: {}",
        String::from_utf8_lossy(&recorded.stderr)
    );

    let replayed = clarify(&["--replay-transcript", path.to_str().expect("utf8 path")]);
    std::fs::remove_file(&path).ok();
    assert!(
        replayed.status.success(),
        "replay failed: {}",
        String::from_utf8_lossy(&replayed.stderr)
    );
    assert_eq!(
        String::from_utf8_lossy(&recorded.stdout),
        String::from_utf8_lossy(&replayed.stdout),
        "record→replay roundtrip diverged"
    );
}
