//! Unit tests: deadline wheel, manual clock, protocol parsing, and
//! socket-free eviction through [`Shared`].

use std::sync::Arc;

use crate::clock::{Clock, ManualClock};
use crate::proto::{parse_request, Request};
use crate::server::{ServerConfig, Shared};
use crate::wheel::DeadlineWheel;

#[test]
fn wheel_reports_only_genuinely_idle_sessions() {
    let mut wheel = DeadlineWheel::new();
    wheel.schedule(100, 1);
    wheel.schedule(100, 2);

    // At t=50 nothing is due.
    assert!(wheel.expired(50, 100, |_| Some(0)).is_empty());

    // At t=100: session 1 untouched since t=0 → idle. Session 2 was
    // touched at t=80 → re-queued at 180, not evicted.
    let last = |id: u64| Some(if id == 1 { 0 } else { 80 });
    assert_eq!(wheel.expired(100, 100, last), vec![1]);
    assert_eq!(wheel.len(), 1);

    // Session 2's re-queued entry fires at its true deadline.
    assert!(wheel.expired(179, 100, last).is_empty());
    assert_eq!(wheel.expired(180, 100, last), vec![2]);
}

#[test]
fn wheel_drops_entries_for_closed_sessions() {
    let mut wheel = DeadlineWheel::new();
    wheel.schedule(10, 7);
    assert!(wheel.expired(20, 10, |_| None).is_empty());
    assert!(wheel.is_empty());
}

#[test]
fn wheel_dedupes_stale_duplicates_of_one_session() {
    let mut wheel = DeadlineWheel::new();
    // Three turns on the same session left three entries behind.
    wheel.schedule(10, 1);
    wheel.schedule(20, 1);
    wheel.schedule(30, 1);
    assert_eq!(wheel.expired(100, 50, |_| Some(0)), vec![1]);
}

#[test]
fn manual_clock_only_moves_when_advanced() {
    let clock = ManualClock::new(5);
    assert_eq!(clock.now_ms(), 5);
    clock.advance(10);
    assert_eq!(clock.now_ms(), 15);
}

#[test]
fn parse_request_covers_every_op() {
    assert!(matches!(
        parse_request(r#"{"op":"ping"}"#),
        Ok(Request::Ping)
    ));
    assert!(matches!(
        parse_request(r#"{"op":"shutdown"}"#),
        Ok(Request::Shutdown)
    ));
    assert!(matches!(
        parse_request(r#"{"op":"open","config":"route-map X permit 10\n"}"#),
        Ok(Request::OpenConfig { .. })
    ));
    match parse_request(
        r#"{"op":"open","topology":"t","configs":{"a.cfg":"x"},
           "invariants":[{"kind":"reachable","router":"r1","prefix":"10.0.0.0/8"}]}"#,
    ) {
        Ok(Request::OpenNetwork {
            configs,
            invariants,
            ..
        }) => {
            assert_eq!(configs.len(), 1);
            assert_eq!(invariants.len(), 1);
        }
        other => panic!("unexpected: {:?}", other.err().map(|e| e.frame())),
    }
    assert!(matches!(
        parse_request(r#"{"op":"ask","session":3,"target":"M","intent":"set metric"}"#),
        Ok(Request::Ask {
            session: 3,
            router: None,
            ..
        })
    ));
    assert!(matches!(
        parse_request(r#"{"op":"ask","session":3,"router":"r1","target":"M","intent":"i"}"#),
        Ok(Request::Ask {
            router: Some(_),
            ..
        })
    ));
    assert!(matches!(
        parse_request(r#"{"op":"answer","session":3,"choice":2}"#),
        Ok(Request::Answer { .. })
    ));
    assert!(matches!(
        parse_request(r#"{"op":"lint","session":3}"#),
        Ok(Request::Lint { session: 3 })
    ));
    assert!(matches!(
        parse_request(r#"{"op":"close","session":3}"#),
        Ok(Request::Close { session: 3 })
    ));
}

#[test]
fn parse_request_maps_failures_to_stable_codes() {
    assert_eq!(parse_request("not json").unwrap_err().code, "bad-json");
    assert_eq!(parse_request("{}").unwrap_err().code, "bad-request");
    assert_eq!(
        parse_request(r#"{"op":"frobnicate"}"#).unwrap_err().code,
        "unknown-op"
    );
    assert_eq!(
        parse_request(r#"{"op":"answer","session":1,"choice":3}"#)
            .unwrap_err()
            .code,
        "bad-request"
    );
    assert_eq!(
        parse_request(r#"{"op":"ask","session":1}"#)
            .unwrap_err()
            .code,
        "bad-request"
    );
    // Error frames are themselves valid JSON.
    let frame = parse_request("x").unwrap_err().frame();
    clarify_obs::json::parse(&frame).expect("error frame parses");
}

fn shared_with_manual_clock(idle_ms: u64) -> (Arc<ManualClock>, Shared) {
    let clock = Arc::new(ManualClock::new(0));
    let cfg = ServerConfig {
        idle_timeout_ms: idle_ms,
        ..ServerConfig::default()
    };
    let shared = Shared::new(cfg, clock.clone());
    (clock, shared)
}

const BASE_CFG: &str = "route-map DEMO permit 10\n match ip address prefix-list P1\n set metric 5\n!\nip prefix-list P1 seq 5 permit 10.0.0.0/8\n";

fn open(shared: &Shared) -> u64 {
    let line = format!(
        "{{\"op\":\"open\",\"config\":{}}}",
        clarify_obs::json::escape(BASE_CFG)
    );
    let (frame, close) = shared.handle_line(&line);
    assert!(!close);
    let doc = clarify_obs::json::parse(&frame).expect("open frame parses");
    let members = doc.as_object("frame").unwrap();
    let id = members
        .iter()
        .find(|(k, _)| k == "session")
        .and_then(|(_, v)| v.as_u64("session").ok())
        .unwrap_or_else(|| panic!("no session id in {frame}"));
    id
}

#[test]
fn idle_sessions_are_evicted_and_active_ones_survive() {
    let (clock, shared) = shared_with_manual_clock(1_000);
    let idle = open(&shared);
    let active = open(&shared);
    assert_eq!(shared.session_count(), 2);

    // Touch `active` at t=600 via a turn (lint is the cheapest).
    clock.advance(600);
    let (frame, _) = shared.handle_line(&format!("{{\"op\":\"lint\",\"session\":{active}}}"));
    assert!(frame.contains("\"ok\":true"), "lint failed: {frame}");

    // t=1100: `idle` (last touch t=0) is past the 1000ms timeout;
    // `active` (last touch t=600) is not.
    clock.advance(500);
    shared.evict_expired();
    assert_eq!(shared.session_count(), 1);
    let (frame, _) = shared.handle_line(&format!("{{\"op\":\"lint\",\"session\":{idle}}}"));
    assert!(
        frame.contains("unknown-session"),
        "expected eviction: {frame}"
    );
    let (frame, _) = shared.handle_line(&format!("{{\"op\":\"lint\",\"session\":{active}}}"));
    assert!(frame.contains("\"ok\":true"), "survivor broken: {frame}");

    // The survivor, left alone long enough, goes too.
    clock.advance(2_000);
    shared.evict_expired();
    assert_eq!(shared.session_count(), 0);
}

#[test]
fn session_cap_returns_busy_and_close_frees_a_slot() {
    let clock = Arc::new(ManualClock::new(0));
    let cfg = ServerConfig {
        max_sessions: 2,
        ..ServerConfig::default()
    };
    let shared = Shared::new(cfg, clock);
    let first = open(&shared);
    let _second = open(&shared);
    let line = format!(
        "{{\"op\":\"open\",\"config\":{}}}",
        clarify_obs::json::escape(BASE_CFG)
    );
    let (frame, _) = shared.handle_line(&line);
    assert!(frame.contains("\"busy\""), "expected busy: {frame}");
    let (frame, _) = shared.handle_line(&format!("{{\"op\":\"close\",\"session\":{first}}}"));
    assert!(frame.contains("\"ok\":true"), "close failed: {frame}");
    open(&shared); // fits again
}

const E1_INTENT: &str = "Write a route-map stanza that permits routes containing the prefix \
100.0.0.0/16 with mask length less than or equal to 23 and tagged with the community 300:3. \
Their MED value should be set to 55.";

/// Daemon sessions route turns through the same middleware stack as the
/// one-shot CLI: a recording stack captures the exchanges, a replay stack
/// over that transcript reproduces the turn frame byte-identically, and
/// an exhausted transcript aborts the turn with `backend-error` before
/// anything commits — the session survives and replays cleanly after.
#[test]
fn replayed_sessions_reproduce_recorded_turns_and_exhaustion_aborts() {
    use clarify_llm::{BackendStack, Transcript};
    use std::sync::Mutex;

    // Live pass, with a recording layer in the daemon's stack.
    let sink = Arc::new(Mutex::new(Transcript::default()));
    let cfg = ServerConfig {
        backend: BackendStack::semantic().with_record(sink.clone()),
        ..ServerConfig::default()
    };
    let shared = Shared::new(cfg, Arc::new(ManualClock::new(0)));
    let id = open(&shared);
    let ask = format!(
        "{{\"op\":\"ask\",\"session\":{id},\"target\":\"DEMO\",\"intent\":{}}}",
        clarify_obs::json::escape(E1_INTENT)
    );
    let (live_frame, _) = shared.handle_line(&ask);
    assert!(
        live_frame.contains("\"ok\":true"),
        "live ask failed: {live_frame}"
    );
    let recorded = sink.lock().unwrap().clone();
    assert!(
        recorded.entries.len() >= 3,
        "expected classify/synthesize/extract exchanges, got {}",
        recorded.entries.len()
    );

    // Replay pass: offline stack, byte-identical turn frame.
    let cfg = ServerConfig {
        backend: BackendStack::semantic().with_replay(Arc::new(recorded.clone())),
        ..ServerConfig::default()
    };
    let shared = Shared::new(cfg, Arc::new(ManualClock::new(0)));
    let replay_id = open(&shared);
    assert_eq!(
        replay_id, id,
        "fresh daemons allocate ids deterministically"
    );
    let (replay_frame, _) = shared.handle_line(&ask);
    assert_eq!(replay_frame, live_frame, "replay diverged from recording");

    // Truncated transcript: the turn aborts before any commit and the
    // session stays open.
    let mut truncated = recorded;
    truncated.entries.truncate(1);
    let cfg = ServerConfig {
        backend: BackendStack::semantic().with_replay(Arc::new(truncated)),
        ..ServerConfig::default()
    };
    let shared = Shared::new(cfg, Arc::new(ManualClock::new(0)));
    let id = open(&shared);
    let ask = format!(
        "{{\"op\":\"ask\",\"session\":{id},\"target\":\"DEMO\",\"intent\":{}}}",
        clarify_obs::json::escape(E1_INTENT)
    );
    let (frame, _) = shared.handle_line(&ask);
    assert!(
        frame.contains("backend-error") && frame.contains("transcript exhausted"),
        "expected replay-exhaustion abort: {frame}"
    );
    let (frame, _) = shared.handle_line(&format!("{{\"op\":\"lint\",\"session\":{id}}}"));
    assert!(frame.contains("\"ok\":true"), "session died: {frame}");
}

#[test]
fn turn_state_machine_rejects_out_of_order_ops() {
    let (_clock, shared) = shared_with_manual_clock(10_000);
    let id = open(&shared);
    // answer with no pending question
    let (frame, _) = shared.handle_line(&format!(
        "{{\"op\":\"answer\",\"session\":{id},\"choice\":1}}"
    ));
    assert!(frame.contains("no-turn"), "expected no-turn: {frame}");
    // unknown session
    let (frame, _) = shared.handle_line("{\"op\":\"answer\",\"session\":999,\"choice\":1}");
    assert!(frame.contains("unknown-session"), "{frame}");
    // network-only field on a config session
    let (frame, _) = shared.handle_line(&format!(
        "{{\"op\":\"ask\",\"session\":{id},\"router\":\"r1\",\"target\":\"D\",\"intent\":\"x\"}}"
    ));
    assert!(frame.contains("bad-request"), "{frame}");
}

// ---------------------------------------------------------------------
// Network sessions over the E1 topology
// ---------------------------------------------------------------------

const E1_TOPOLOGY: &str = include_str!("../../../testdata/e1_topology.txt");
const E1_R1: &str = include_str!("../../../testdata/e1_r1.cfg");
const E1_R2: &str = include_str!("../../../testdata/e1_r2.cfg");
const E1_M: &str = include_str!("../../../testdata/e1_m.cfg");

/// On R1's export to ISP1 this stanza overlaps the private-space deny:
/// placed above it (OPTION 1) it leaks DC1's 10.1.0.0/16 to ISP1; placed
/// below it (OPTION 2) it changes nothing.
const LEAK_INTENT: &str = "Write a route-map stanza that permits routes containing the prefix \
10.0.0.0/8 with mask length less than or equal to 24.";

fn shared_over(backend: clarify_llm::BackendStack) -> Shared {
    let cfg = ServerConfig {
        backend,
        ..ServerConfig::default()
    };
    Shared::new(cfg, Arc::new(ManualClock::new(0)))
}

fn session_id(frame: &str) -> u64 {
    frame_u64(frame, "session").unwrap_or_else(|| panic!("no session id in {frame}"))
}

fn frame_u64(frame: &str, key: &str) -> Option<u64> {
    let doc = clarify_obs::json::parse(frame).expect("frame parses");
    let members = doc.as_object("frame").ok()?;
    let (_, v) = members.iter().find(|(k, _)| k == key)?;
    v.as_u64(key).ok()
}

/// Opens the E1 topology as a network session guarding ISP1's view of
/// DC1's service prefix.
fn open_e1_network(shared: &Shared) -> u64 {
    use clarify_obs::json::escape;
    let line = format!(
        "{{\"op\":\"open\",\"topology\":{},\"configs\":{{\"e1_r1.cfg\":{},\"e1_r2.cfg\":{},\
         \"e1_m.cfg\":{}}},\"invariants\":[{{\"kind\":\"unreachable\",\"router\":\"ISP1\",\
         \"prefix\":\"10.1.0.0/16\"}}]}}",
        escape(E1_TOPOLOGY),
        escape(E1_R1),
        escape(E1_R2),
        escape(E1_M)
    );
    let (frame, _) = shared.handle_line(&line);
    session_id(&frame)
}

fn open_e1_r1_config(shared: &Shared) -> u64 {
    let line = format!(
        "{{\"op\":\"open\",\"config\":{}}}",
        clarify_obs::json::escape(E1_R1)
    );
    let (frame, _) = shared.handle_line(&line);
    session_id(&frame)
}

fn ask_line(id: u64, router: Option<&str>) -> String {
    let router = router.map_or(String::new(), |r| format!("\"router\":\"{r}\","));
    format!(
        "{{\"op\":\"ask\",\"session\":{id},{router}\"target\":\"ISP_OUT\",\"intent\":{}}}",
        clarify_obs::json::escape(LEAK_INTENT)
    )
}

/// Runs one turn: asks, then answers `choice` until the turn closes.
/// Returns the ask's frame and the closing frame.
fn run_turn(shared: &Shared, id: u64, router: Option<&str>, choice: u8) -> (String, String) {
    let (first, _) = shared.handle_line(&ask_line(id, router));
    let mut frame = first.clone();
    for _ in 0..10 {
        if !frame.contains("\"done\":false") {
            return (first, frame);
        }
        let answer = format!("{{\"op\":\"answer\",\"session\":{id},\"choice\":{choice}}}");
        frame = shared.handle_line(&answer).0;
    }
    panic!("turn did not close: {frame}");
}

/// A network turn synthesizes once, on `ask`, and asks the same question,
/// byte for byte, as a config session over the router's configuration.
/// Answers replay the planned turn: a leaky placement rolls back naming
/// the invariant it breaks, and a safe one commits.
#[test]
fn network_turns_synthesize_once_and_commit_only_safe_updates() {
    use clarify_llm::{BackendStack, Transcript};
    use std::sync::Mutex;

    let sink = Arc::new(Mutex::new(Transcript::default()));
    let shared = shared_over(BackendStack::semantic().with_record(sink.clone()));
    let id = open_e1_network(&shared);
    let exchanges = || sink.lock().unwrap().entries.len();

    let (question, done) = run_turn(&shared, id, Some("R1"), 1);
    assert!(done.contains("\"result\":\"rolled-back\""), "{done}");
    assert!(done.contains("ISP1 cannot reach 10.1.0.0/16"), "{done}");
    assert_eq!(exchanges(), 3, "one synthesis: classify, spec, synthesize");

    let config = shared_over(BackendStack::semantic());
    let cfg_id = open_e1_r1_config(&config);
    assert_eq!(id, cfg_id, "fresh daemons allocate the same first id");
    let (cfg_question, _) = config.handle_line(&ask_line(cfg_id, None));
    assert!(question.contains("\"question\""), "{question}");
    assert_eq!(question, cfg_question);

    let (_, done) = run_turn(&shared, id, Some("R1"), 2);
    assert!(done.contains("\"result\":\"committed\""), "{done}");
    assert_eq!(exchanges(), 6, "one more synthesis for the second turn");
}

/// Under fault injection the backend is stateful, so a turn that
/// re-synthesized on `answer` would report another synthesis's LLM calls.
/// A network turn's closing frame counts the same calls as a config
/// session's over the same seed.
#[test]
fn network_done_frames_count_the_one_synthesis_under_faults() {
    use clarify_llm::{BackendKind, BackendStack};
    for seed in 0..8 {
        let stack = BackendStack::semantic().with_kind(BackendKind::Faulty { rate: 0.5, seed });
        let network = shared_over(stack.clone());
        let id = open_e1_network(&network);
        let (_, net_done) = run_turn(&network, id, Some("R1"), 1);
        let config = shared_over(stack);
        let id = open_e1_r1_config(&config);
        let (_, cfg_done) = run_turn(&config, id, None, 1);
        assert_eq!(
            frame_u64(&net_done, "llm_calls"),
            frame_u64(&cfg_done, "llm_calls"),
            "seed {seed}: network {net_done} vs config {cfg_done}"
        );
    }
}
