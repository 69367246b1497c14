//! The `clarify` command-line tool.
//!
//! ```text
//! clarify audit <config-file>
//!     Overlap census for every ACL and route-map in the file (the §3
//!     measurement as a tool).
//!
//! clarify ask <config-file> <route-map> <english intent...>
//!     Synthesize a stanza from the intent, verify it, and interactively
//!     disambiguate where it belongs; prints the updated configuration.
//!
//! clarify ask-acl <config-file> <acl> <english intent...>
//!     Same for an ACL entry.
//!
//! clarify compare <file-a> <file-b> <route-map> [limit]
//!     Print concrete routes on which the two versions of the route-map
//!     behave differently (differential verification).
//!
//! clarify lint [lint options] <config-file>...
//!     Symbolic lint: shadowed, redundant, empty, and conflicting rules,
//!     plus dangling/unused references, with concrete witnesses. With
//!     `--incremental`, re-lints against a cache from an earlier
//!     `--save-cache` run, recomputing only the objects the edit touched.
//!
//! clarify lint --topology <topology-file> [lint options]
//!     Cross-device lint: per-config checks on every router plus the
//!     session-composition checks L007-L011 (dead-by-upstream, route
//!     leaks, asymmetric sessions, orphan communities, black holes).
//!
//!     `clarify lint` is the standalone `lint` tool's front end
//!     (`clarify_lint::cli`): same flags, output and exit status.
//! ```

#![warn(missing_docs)]

use std::io::Write as _;
use std::process::ExitCode;

use clarify::analysis::{
    acl_overlaps, compare_route_policies, overlaps, route_map_chain_overlaps, PacketSpace,
    RouteSpace,
};
use clarify::core::{Choice, ClarifySession, Disambiguator};
use clarify::llm::{
    BackendKind, BackendStack, PipelineOutcome, SessionMeta, Transcript, TranscriptError,
};
use clarify::netconfig::Config;
use clarify::serve::session::MAX_ATTEMPTS;

/// Backend selection and transcript layers, drained from the global
/// argument list like `--threads`. One value drives `ask`, `ask-acl`,
/// and `serve`, so every entry point assembles the identical stack.
#[derive(Default)]
struct BackendOpts {
    kind: BackendKind,
    record: Option<String>,
    replay: Option<String>,
}

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    // Global `--threads N`: size the clarify-par worker pool for this run
    // (takes precedence over the CLARIFY_THREADS environment variable).
    if let Some(i) = args.iter().position(|a| a == "--threads") {
        let Some(n) = args
            .get(i + 1)
            .map(String::as_str)
            .and_then(clarify::par::parse_threads)
        else {
            eprintln!("error: --threads takes a positive integer\n\n{USAGE}");
            return ExitCode::from(2);
        };
        clarify::par::set_threads(n);
        args.drain(i..=i + 1);
    }
    // Global observability flags: `--trace-json PATH` dumps the metrics
    // registry as JSON at exit; `--stats` prints a human summary to
    // stderr. Either one switches recording on; with neither, the
    // registry stays disabled and every instrument is a no-op.
    let trace_json = match args.iter().position(|a| a == "--trace-json") {
        Some(i) => {
            let Some(path) = args.get(i + 1).cloned() else {
                eprintln!("error: --trace-json takes a file path\n\n{USAGE}");
                return ExitCode::from(2);
            };
            args.drain(i..=i + 1);
            Some(path)
        }
        None => None,
    };
    let stats = match args.iter().position(|a| a == "--stats") {
        Some(i) => {
            args.remove(i);
            true
        }
        None => false,
    };
    // Global backend flags: `--backend` picks the base backend,
    // `--record-transcript`/`--replay-transcript` attach transcript
    // layers. They apply to `ask`, `ask-acl`, and `serve`; a bare
    // `clarify --replay-transcript FILE` re-runs the recorded session.
    let mut backend = BackendOpts::default();
    if let Some(i) = args.iter().position(|a| a == "--backend") {
        let Some(spec) = args.get(i + 1) else {
            eprintln!("error: --backend takes a backend spec\n\n{USAGE}");
            return ExitCode::from(2);
        };
        backend.kind = match BackendKind::parse(spec) {
            Ok(k) => k,
            Err(e) => {
                eprintln!("error: {e}\n\n{USAGE}");
                return ExitCode::from(2);
            }
        };
        args.drain(i..=i + 1);
    }
    for (flag, slot) in [
        ("--record-transcript", &mut backend.record),
        ("--replay-transcript", &mut backend.replay),
    ] {
        if let Some(i) = args.iter().position(|a| a == flag) {
            let Some(path) = args.get(i + 1).cloned() else {
                eprintln!("error: {flag} takes a file path\n\n{USAGE}");
                return ExitCode::from(2);
            };
            *slot = Some(path);
            args.drain(i..=i + 1);
        }
    }
    if trace_json.is_some() || stats {
        clarify::obs::install(clarify::obs::Registry::new());
    }

    let code = run(&args, &backend);

    // Metrics are dumped on every exit path (including failures) so a
    // failing run still leaves a trace to debug from.
    if trace_json.is_some() || stats {
        let snapshot = clarify::obs::global().snapshot();
        if let Some(path) = trace_json {
            if let Err(e) = std::fs::write(&path, snapshot.to_json()) {
                eprintln!("error: cannot write {path}: {e}");
                return ExitCode::from(2);
            }
        }
        if stats {
            eprint!("{}", snapshot.render_human());
        }
    }
    code
}

/// Dispatches one subcommand; split out of `main` so the observability
/// dump above runs on every return path.
fn run(args: &[String], backend: &BackendOpts) -> ExitCode {
    let result = match args.first().map(String::as_str) {
        Some("audit") => audit(&args[1..]),
        Some("ask") => ask(&args[1..], false, backend),
        Some("ask-acl") => ask(&args[1..], true, backend),
        Some("compare") => compare(&args[1..]),
        Some("chain") => chain(&args[1..]),
        Some("lint") => return clarify::lint::cli::run(&args[1..]),
        Some("serve") => serve(&args[1..], backend),
        None if backend.replay.is_some() => {
            return replay_session(backend.replay.as_deref().expect("checked"), backend)
        }
        Some("--help") | Some("-h") | None => {
            eprint!("{}", USAGE);
            return ExitCode::SUCCESS;
        }
        Some(other) => Err(format!("unknown command '{other}'\n\n{USAGE}")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "\
usage:
  clarify audit <config-file>
  clarify ask <config-file> <route-map> <english intent...>
  clarify ask-acl <config-file> <acl> <english intent...>
  clarify compare <file-a> <file-b> <route-map> [limit]
  clarify chain <config-file> <route-map> <route-map>...
  clarify lint [lint options] <config-file>...
  clarify lint --topology <topology-file> [lint options]
  clarify serve [--addr HOST:PORT] [--max-sessions N] [--idle-timeout SECS]
  clarify --replay-transcript <FILE>
      re-run the session recorded in FILE offline: the LLM exchanges, the
      target, the prompt, and the oracle answers all come from the
      transcript, so the output reproduces the recorded run byte for byte

options:
  --threads <N>       worker threads for the symbolic analyses (default:
                      the CLARIFY_THREADS env var, else all available
                      cores)
  --trace-json <PATH> record internal metrics and write them to PATH as
                      JSON at exit
  --stats             record internal metrics and print a summary to
                      stderr at exit
  --backend <SPEC>    LLM backend for ask/ask-acl/serve: 'semantic' (the
                      deterministic parser, default) or
                      'faulty[:rate[:seed]]' (fault injection around it)
  --record-transcript <PATH>
                      write every LLM exchange (and, for ask/ask-acl, the
                      session itself) to PATH as a replayable transcript
  --replay-transcript <PATH>
                      answer LLM calls from the transcript at PATH instead
                      of running a backend; a stale transcript (checksum
                      or format mismatch) falls back to the live backend
                      with a warning, a corrupt file is an error

lint options:
  the standalone `lint` tool's (--format, --strict, --topology, ...);
  `clarify lint --help` lists them

serve options:
  --addr <HOST:PORT>  bind address (default 127.0.0.1:4545; port 0 picks
                      an ephemeral port, printed on startup)
  --max-sessions <N>  live-session cap; opens beyond it get a 'busy'
                      error frame (default 1024)
  --idle-timeout <S>  evict sessions idle longer than S seconds
                      (default 300)
";

fn serve(args: &[String], backend: &BackendOpts) -> Result<(), String> {
    let (stack, record_sink) = build_stack(backend)?;
    let mut cfg = clarify::serve::ServerConfig {
        addr: "127.0.0.1:4545".to_string(),
        backend: stack,
        ..clarify::serve::ServerConfig::default()
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{arg} takes {what}\n\n{USAGE}"))
        };
        match arg.as_str() {
            "--addr" => cfg.addr = value("an address")?,
            "--max-sessions" => {
                cfg.max_sessions = value("a count")?
                    .parse()
                    .map_err(|_| format!("--max-sessions takes a positive integer\n\n{USAGE}"))?;
            }
            "--idle-timeout" => {
                let secs: u64 = value("seconds")?
                    .parse()
                    .map_err(|_| format!("--idle-timeout takes seconds\n\n{USAGE}"))?;
                cfg.idle_timeout_ms = secs.saturating_mul(1000);
            }
            other => return Err(format!("unknown serve option '{other}'\n\n{USAGE}")),
        }
    }
    let server = clarify::serve::Server::bind(cfg).map_err(|e| format!("cannot bind: {e}"))?;
    let addr = server.local_addr().map_err(|e| e.to_string())?;
    println!("listening on {addr}");
    server.run().map_err(|e| e.to_string())?;
    // The daemon records exchanges from every session into one transcript,
    // written at shutdown. No session metadata: daemon transcripts replay
    // through `serve --replay-transcript`, not the bare replay mode.
    if let (Some(sink), Some(path)) = (record_sink, &backend.record) {
        let transcript = sink.lock().map_err(|_| "transcript sink poisoned")?;
        std::fs::write(path, transcript.to_json())
            .map_err(|e| format!("cannot write {path}: {e}"))?;
    }
    Ok(())
}

/// Assembles the backend stack the CLI was asked for: base backend from
/// `--backend`, a recording sink for `--record-transcript`, and a replay
/// transcript for `--replay-transcript`. Returns the sink so the caller
/// can attach session metadata and write the file once the run finishes.
#[allow(clippy::type_complexity)]
fn build_stack(
    backend: &BackendOpts,
) -> Result<
    (
        BackendStack,
        Option<std::sync::Arc<std::sync::Mutex<Transcript>>>,
    ),
    String,
> {
    let mut stack = BackendStack::semantic().with_kind(backend.kind);
    let sink = match &backend.record {
        Some(_) => {
            let sink = std::sync::Arc::new(std::sync::Mutex::new(Transcript::default()));
            stack = stack.with_record(sink.clone());
            Some(sink)
        }
        None => None,
    };
    if let Some(path) = &backend.replay {
        if let (Some(transcript), _) = load_transcript(path)? {
            stack = stack.with_replay(transcript);
        }
    }
    Ok((stack, sink))
}

/// Loads a transcript for replay. A stale one (unknown format version or
/// checksum mismatch) warns and returns no transcript — the caller falls
/// back to the live backend — but still recovers the session metadata; a
/// corrupt file is an error.
#[allow(clippy::type_complexity)]
fn load_transcript(
    path: &str,
) -> Result<(Option<std::sync::Arc<Transcript>>, Option<SessionMeta>), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    match Transcript::from_json(&text) {
        Ok(t) => {
            let meta = t.session.clone();
            Ok((Some(std::sync::Arc::new(t)), meta))
        }
        Err(TranscriptError::Stale(m)) => {
            eprintln!("warning: {path}: stale transcript ({m}); falling back to the live backend");
            let meta = Transcript::from_json_unchecked(&text)
                .ok()
                .and_then(|t| t.session);
            Ok((None, meta))
        }
        Err(TranscriptError::Corrupt(m)) => Err(format!("{path}: corrupt transcript: {m}")),
    }
}

fn load(path: &str) -> Result<Config, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    Config::parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn audit(args: &[String]) -> Result<(), String> {
    let [path] = args else {
        return Err(format!("audit takes one config file\n\n{USAGE}"));
    };
    let cfg = load(path)?;
    cfg.validate().map_err(|e| e.to_string())?;

    println!("== ACLs ({}) ==", cfg.acls.len());
    for acl in cfg.acls.values() {
        let r = acl_overlaps(acl);
        println!(
            "{}: {} rules, {} overlapping pairs ({} conflicting, {} non-trivial)",
            acl.name,
            r.num_rules,
            r.count(),
            r.conflict_count(),
            r.nontrivial_conflict_count()
        );
        let mut space = PacketSpace::new();
        for p in r.pairs.iter().filter(|p| p.conflicting && !p.subset) {
            println!("  conflict: rule {} vs rule {}", p.i, p.j);
            println!("   {}", acl.entries[p.i]);
            println!("   {}", acl.entries[p.j]);
            // Exact size of the contested packet region, as a fraction of
            // the whole header space.
            let a = space.encode_entry(&acl.entries[p.i]);
            let b = space.encode_entry(&acl.entries[p.j]);
            let both = space.manager().and(a, b);
            let valid = space.valid();
            let both = space.manager().and(both, valid);
            let contested = space.manager().sat_count_exact(both);
            let total = space.manager().sat_count_exact(valid);
            println!(
                "   contested region: 2^{:.1} packets ({:.2e} of the header space)",
                (contested as f64).log2(),
                contested as f64 / total as f64
            );
        }
    }

    println!("\n== route-maps ({}) ==", cfg.route_maps.len());
    // One space serves every map: it depends only on the config's regexes.
    let mut space = RouteSpace::new(&[&cfg]).map_err(|e| e.to_string())?;
    for rm in cfg.route_maps.values() {
        let r = overlaps(&mut space, &cfg, rm).map_err(|e| e.to_string())?;
        println!(
            "{}: {} stanzas, {} overlapping pairs ({} with differing actions)",
            rm.name,
            r.num_rules,
            r.count(),
            r.pairs.iter().filter(|p| p.conflicting).count()
        );
        for p in &r.pairs {
            println!(
                "  overlap: stanza {} and stanza {}{}",
                rm.stanzas[p.i].seq,
                rm.stanzas[p.j].seq,
                if p.conflicting {
                    " (actions differ)"
                } else {
                    ""
                }
            );
        }
    }
    Ok(())
}

fn read_choice() -> Choice {
    loop {
        print!("your choice [1/2]: ");
        std::io::stdout().flush().ok();
        let mut line = String::new();
        if std::io::stdin().read_line(&mut line).is_err() || line.is_empty() {
            println!("(end of input: choosing OPTION 1)");
            return Choice::First;
        }
        match line.trim() {
            "1" => return Choice::First,
            "2" => return Choice::Second,
            _ => println!("please answer 1 or 2"),
        }
    }
}

fn ask(args: &[String], acl_mode: bool, backend: &BackendOpts) -> Result<(), String> {
    let [path, target, intent @ ..] = args else {
        return Err(format!(
            "ask takes a config file, a target name, and an intent\n\n{USAGE}"
        ));
    };
    if intent.is_empty() {
        return Err("missing the English intent".to_string());
    }
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let base = Config::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    let prompt = intent.join(" ");
    let (stack, record_sink) = build_stack(backend)?;
    // Interactive oracle; the answers are kept so a recorded transcript
    // can replay the whole session, questions and all.
    let answers = std::cell::RefCell::new(Vec::new());
    let mut choose = || {
        let c = read_choice();
        answers.borrow_mut().push(
            if matches!(c, Choice::Second) {
                "2"
            } else {
                "1"
            }
            .to_string(),
        );
        c
    };
    run_ask(&base, target, &prompt, acl_mode, path, &stack, &mut choose)?;
    if let (Some(sink), Some(out)) = (record_sink, &backend.record) {
        let mut transcript = sink.lock().map_err(|_| "transcript sink poisoned")?.clone();
        transcript.session = Some(SessionMeta {
            command: if acl_mode { "ask-acl" } else { "ask" }.to_string(),
            config: text,
            target: target.clone(),
            prompt,
            answers: answers.into_inner(),
        });
        std::fs::write(out, transcript.to_json())
            .map_err(|e| format!("cannot write {out}: {e}"))?;
    }
    Ok(())
}

/// Re-runs the session recorded in a transcript: configuration, target,
/// prompt, LLM exchanges, and oracle answers all come from the file, so
/// the run is fully offline and reproduces the recorded output byte for
/// byte. Exit codes mirror the transcript contract: a corrupt file (or
/// one without session metadata) is a usage error (2); a stale one warns
/// and re-runs against the live backend.
fn replay_session(path: &str, backend: &BackendOpts) -> ExitCode {
    let (replay, meta) = match load_transcript(path) {
        Ok(l) => l,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let Some(meta) = meta else {
        eprintln!(
            "error: {path}: the transcript records no session metadata \
             (daemon or middleware-level recording); replay it behind \
             `ask --replay-transcript` or `serve --replay-transcript` instead"
        );
        return ExitCode::from(2);
    };
    let acl_mode = match meta.command.as_str() {
        "ask" => false,
        "ask-acl" => true,
        other => {
            eprintln!("error: {path}: unknown recorded command '{other}'");
            return ExitCode::from(2);
        }
    };
    let base = match Config::parse(&meta.config) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("error: {path}: the recorded configuration did not parse: {e}");
            return ExitCode::from(2);
        }
    };
    let mut stack = BackendStack::semantic().with_kind(backend.kind);
    if let Some(transcript) = replay {
        stack = stack.with_replay(transcript);
    }
    // Scripted oracle: prints the same prompt the interactive run did, so
    // stdout matches the recording, and answers from the stored list.
    let mut answers = meta.answers.iter();
    let mut choose = || {
        print!("your choice [1/2]: ");
        std::io::stdout().flush().ok();
        match answers.next().map(String::as_str) {
            Some("2") => Choice::Second,
            Some(_) => Choice::First,
            None => {
                println!("(end of input: choosing OPTION 1)");
                Choice::First
            }
        }
    };
    match run_ask(
        &base,
        &meta.target,
        &meta.prompt,
        acl_mode,
        path,
        &stack,
        &mut choose,
    ) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// The synthesis-and-placement session shared by the interactive `ask`
/// and the transcript replay mode: one Clarify turn over the configured
/// backend stack, asking `choose` for every question.
fn run_ask(
    base: &Config,
    target: &str,
    prompt: &str,
    acl_mode: bool,
    source: &str,
    stack: &BackendStack,
    choose: &mut dyn FnMut() -> Choice,
) -> Result<(), String> {
    // Validate the target up front so a typo'd name fails fast instead of
    // after a full synthesis round.
    if acl_mode {
        if base.acl(target).is_none() {
            return Err(format!("no access-list '{target}' in {source}"));
        }
    } else if base.route_map(target).is_none() {
        return Err(format!("no route-map '{target}' in {source}"));
    }
    let mut session = ClarifySession::new(stack.build(), MAX_ATTEMPTS, Disambiguator::default());
    let outcome = session.synthesize(prompt).map_err(|e| e.to_string())?;
    // The rule and its input, as the questions name them.
    let (rule, input) = match (&outcome, acl_mode) {
        (
            PipelineOutcome::RouteMap {
                snippet,
                spec,
                llm_calls,
                ..
            },
            false,
        ) => {
            println!("synthesized and verified in {llm_calls} LLM calls:\n{snippet}");
            println!("specification: {}\n", spec.to_json());
            ("stanza", "route")
        }
        (
            PipelineOutcome::Acl {
                entry, llm_calls, ..
            },
            true,
        ) => {
            println!("synthesized and verified in {llm_calls} LLM calls:\n{entry}\n");
            ("entry", "packet")
        }
        (PipelineOutcome::Punt { reason, llm_calls }, _) => {
            return Err(format!(
                "the synthesizer could not produce a verified result after {llm_calls} calls: \
                 {reason}"
            ))
        }
        (PipelineOutcome::RouteMap { .. }, true) => {
            return Err("that intent describes a route-map; use `clarify ask`".to_string())
        }
        (PipelineOutcome::Acl { .. }, false) => {
            return Err("that intent describes an ACL; use `clarify ask-acl`".to_string())
        }
    };
    let turn = session
        .plan(base, target, &outcome)
        .map_err(|e| e.to_string())?;
    let placed = session
        .drive(turn, &mut |pivot, question| {
            println!(
                "The new {rule} interacts with existing {rule} {pivot}. \
                 For this {input}:\n\n{question}\n"
            );
            choose()
        })
        .map_err(|e| e.to_string())?;
    println!(
        "\nplaced at position {} after {} question(s); updated configuration:\n",
        placed.position, placed.questions
    );
    println!("{}", placed.config);
    Ok(())
}

fn compare(args: &[String]) -> Result<(), String> {
    let (a_path, b_path, map, limit) = match args {
        [a, b, m] => (a, b, m, 4usize),
        [a, b, m, l] => (a, b, m, l.parse().map_err(|_| "bad limit".to_string())?),
        _ => {
            return Err(format!(
                "compare takes two files and a route-map name\n\n{USAGE}"
            ))
        }
    };
    let cfg_a = load(a_path)?;
    let cfg_b = load(b_path)?;
    let mut space = RouteSpace::new(&[&cfg_a, &cfg_b]).map_err(|e| e.to_string())?;
    let diffs = compare_route_policies(&mut space, &cfg_a, map, &cfg_b, map, limit)
        .map_err(|e| e.to_string())?;
    if diffs.is_empty() {
        println!("the two versions of '{map}' are behaviourally equivalent");
        return Ok(());
    }
    println!("{} difference(s) found (limit {limit}):", diffs.len());
    for d in &diffs {
        println!("\ninput route:\n{}", d.route);
        let show = |v: &clarify::netconfig::RouteMapVerdict| match v {
            clarify::netconfig::RouteMapVerdict::Permit { route, .. } => {
                format!("ACTION: permit\n{route}")
            }
            _ => "ACTION: deny".to_string(),
        };
        println!("\n{a_path}:\n{}", show(&d.a));
        println!("\n{b_path}:\n{}", show(&d.b));
    }
    Ok(())
}

/// Cross-map overlap census for a chain of route-maps applied in sequence
/// to the same neighbor (the §3.1 observation).
fn chain(args: &[String]) -> Result<(), String> {
    let [path, maps @ ..] = args else {
        return Err(format!(
            "chain takes a config file and route-map names\n\n{USAGE}"
        ));
    };
    if maps.len() < 2 {
        return Err("chain needs at least two route-map names".to_string());
    }
    let cfg = load(path)?;
    let chain: Vec<_> = maps
        .iter()
        .map(|m| {
            cfg.route_map(m)
                .cloned()
                .ok_or_else(|| format!("no route-map '{m}' in {path}"))
        })
        .collect::<Result<_, _>>()?;
    let refs: Vec<&clarify::netconfig::RouteMap> = chain.iter().collect();
    let mut space = RouteSpace::new(&[&cfg]).map_err(|e| e.to_string())?;
    let pairs = route_map_chain_overlaps(&mut space, &cfg, &refs).map_err(|e| e.to_string())?;
    let cross = pairs.iter().filter(|p| p.map_i != p.map_j).count();
    println!(
        "{} overlapping stanza pairs across the chain ({} of them cross-map):",
        pairs.len(),
        cross
    );
    for p in &pairs {
        println!(
            "  {}:{} overlaps {}:{}{}",
            maps[p.map_i],
            chain[p.map_i].stanzas[p.stanza_i].seq,
            maps[p.map_j],
            chain[p.map_j].stanzas[p.stanza_j].seq,
            if p.conflicting {
                "  (actions differ)"
            } else {
                ""
            }
        );
    }
    Ok(())
}
