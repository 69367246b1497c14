//! Output correctness, checked after the timed window.
//!
//! Each round's configuration must implement the user's intent: the target
//! must be behaviourally equivalent to the base with the intended rule
//! inserted at the seeded slot (`policies_equivalent` /
//! `filters_equivalent`, so a placement in an equivalent slot passes).
//! Each `lint` response must report the counts a cold in-process
//! `lint_config` of the same configuration reports, which also pins the
//! daemon's incremental re-lint to the cold result.

use std::collections::BTreeMap;

use clarify_analysis::{filters_equivalent, policies_equivalent, PacketSpace, RouteSpace};
use clarify_lint::lint_config;
use clarify_llm::{AclIntent, RouteMapIntent};
use clarify_netconfig::{insert_acl_entry, insert_route_map_stanza, Config};

use crate::inputs::{Kind, Round, Script, Workload};
use crate::session::SessionLog;

/// Keeps one log per distinct `(script, outputs)` pair.
#[derive(Default)]
pub struct DistinctLogs {
    logs: BTreeMap<(usize, u64), SessionLog>,
}

impl DistinctLogs {
    /// Adds a log unless an identical one is already held.
    pub fn add(&mut self, log: SessionLog) {
        self.logs.entry(log.key()).or_insert(log);
    }

    /// Adds every log of `other`.
    pub fn merge(&mut self, other: DistinctLogs) {
        for log in other.logs.into_values() {
            self.add(log);
        }
    }

    /// The held logs, in `(script, digest)` order.
    pub fn logs(&self) -> impl Iterator<Item = &SessionLog> {
        self.logs.values()
    }
}

/// Checks every distinct log; returns one message per failed check.
pub fn check(w: &Workload, logs: &DistinctLogs) -> Vec<String> {
    let logs: Vec<&SessionLog> = logs.logs().collect();
    // Most pools share one base configuration: lint each distinct one once.
    let mut bases: Vec<&Script> = logs.iter().map(|l| w.script(l.script)).collect();
    bases.sort_by(|a, b| a.base.cmp(&b.base));
    bases.dedup_by(|a, b| a.base == b.base);
    let counts = clarify_par::par_map(&bases, |s| cold_counts(&s.parsed));
    let base_counts: BTreeMap<&str, Result<(u64, u64), String>> =
        bases.iter().map(|s| s.base.as_str()).zip(counts).collect();
    clarify_par::par_map(&logs, |log| check_log(w, log, &base_counts))
        .into_iter()
        .flatten()
        .collect()
}

/// The cold-lint counts of `cfg`.
fn cold_counts(cfg: &Config) -> Result<(u64, u64), String> {
    let report = lint_config(cfg, None).map_err(|e| e.to_string())?;
    Ok((
        report.findings().count() as u64,
        report.diagnostics.len() as u64,
    ))
}

fn check_log(
    w: &Workload,
    log: &SessionLog,
    base_counts: &BTreeMap<&str, Result<(u64, u64), String>>,
) -> Vec<String> {
    let script = w.script(log.script);
    let mut failures = Vec::new();
    let mut fail = |what: String| failures.push(format!("script {}: {what}", log.script));
    if log.outputs.len() != script.rounds.len() || log.lints.len() != script.rounds.len() + 1 {
        fail("incomplete session log".to_string());
        return failures;
    }
    let mut configs = vec![script.parsed.clone()];
    for (r, (round, out)) in script.rounds.iter().zip(&log.outputs).enumerate() {
        let got = match Config::parse(out) {
            Ok(c) => c,
            Err(e) => {
                fail(format!("round {r} output does not parse: {e}"));
                return failures;
            }
        };
        match intended(&configs[r], round).and_then(|want| equivalent(&got, &want, round)) {
            Ok(true) => {}
            Ok(false) => fail(format!(
                "round {r} placed the rule where slot {} does not",
                round.slot
            )),
            Err(e) => fail(format!("round {r} check failed: {e}")),
        }
        configs.push(got);
    }
    for (k, (cfg, seen)) in configs.iter().zip(&log.lints).enumerate() {
        let want = match k {
            0 => base_counts[script.base.as_str()].clone(),
            _ => cold_counts(cfg),
        };
        match want {
            Ok(want) if want == (seen.findings, seen.diagnostics) => {}
            Ok(want) => fail(format!(
                "lint {k} reported {:?}, a cold lint reports {want:?}",
                (seen.findings, seen.diagnostics)
            )),
            Err(e) => fail(format!("lint {k} check failed: {e}")),
        }
    }
    failures
}

/// `start` with the round's intended rule inserted at its seeded slot.
fn intended(start: &Config, round: &Round) -> Result<Config, String> {
    let s = |e: &dyn std::fmt::Display| e.to_string();
    match round.kind {
        Kind::RouteMap => {
            let (snippet, map) = RouteMapIntent::parse(&round.prompt)
                .and_then(|i| i.to_snippet())
                .map_err(|e| s(&e))?;
            insert_route_map_stanza(start, &round.target, &snippet, &map, round.slot)
                .map(|(cfg, _)| cfg)
                .map_err(|e| s(&e))
        }
        Kind::Acl => {
            let entry = AclIntent::parse(&round.prompt)
                .map_err(|e| s(&e))?
                .to_entry();
            insert_acl_entry(start, &round.target, entry, round.slot).map_err(|e| s(&e))
        }
    }
}

fn equivalent(got: &Config, want: &Config, round: &Round) -> Result<bool, String> {
    let t = round.target.as_str();
    match round.kind {
        Kind::RouteMap => {
            let mut space = RouteSpace::new(&[got, want]).map_err(|e| e.to_string())?;
            policies_equivalent(&mut space, got, t, want, t).map_err(|e| e.to_string())
        }
        Kind::Acl => {
            let (Some(a), Some(b)) = (got.acl(t), want.acl(t)) else {
                return Err(format!("access-list {t} is missing"));
            };
            Ok(filters_equivalent(&mut PacketSpace::new(), a, b))
        }
    }
}
