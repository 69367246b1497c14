//! SARIF 2.1.0 output (`--format sarif`).
//!
//! Emits the minimal static-analysis interchange shape CI systems ingest:
//! one log per run with one run, one driver (`clarify-lint`), a rule table
//! built from the [`LintCode`]s that actually fired, and one result per
//! diagnostic with a physical location. The log is one
//! [`clarify_obs::json::Value`] in the document layout.

use clarify_obs::json::Value;

use crate::diagnostic::{Diagnostic, LintCode, Severity};

/// SARIF severity levels for our three.
fn level(s: Severity) -> &'static str {
    match s {
        Severity::Note => "note",
        Severity::Warning => "warning",
        Severity::Error => "error",
    }
}

fn result(origin: &str, d: &Diagnostic) -> Value {
    let mut text = format!("{}: {}", d.rule, d.message);
    if let Some(w) = &d.witness {
        text.push_str(&format!(" [witness: {}]", w.replace('\n', "; ")));
    }
    let mut location = vec![("artifactLocation", Value::object([("uri", origin.into())]))];
    if let Some(line) = d.line {
        location.push(("region", Value::object([("startLine", line.into())])));
    }
    Value::object([
        ("ruleId", d.code.code().into()),
        ("level", level(d.severity).into()),
        ("message", Value::object([("text", text.into())])),
        (
            "locations",
            Value::array([Value::object([(
                "physicalLocation",
                Value::object(location),
            )])]),
        ),
    ])
}

/// Renders one SARIF 2.1.0 log for a whole run: one result per
/// `(origin, diagnostic)` pair, in the given order, whose artifact URI is
/// its origin (a config path).
pub fn render_sarif<'a>(diags: impl IntoIterator<Item = (&'a str, &'a Diagnostic)>) -> String {
    let diags: Vec<(&str, &Diagnostic)> = diags.into_iter().collect();
    // One rule entry per distinct code, in code order.
    let mut codes: Vec<LintCode> = diags.iter().map(|(_, d)| d.code).collect();
    codes.sort();
    codes.dedup();
    let rules = codes
        .iter()
        .map(|c| Value::object([("id", c.code().into()), ("name", c.name().into())]));
    let driver = Value::object([
        ("name", "clarify-lint".into()),
        ("rules", Value::array(rules)),
    ]);
    let run = Value::object([
        ("tool", Value::object([("driver", driver)])),
        (
            "results",
            Value::array(diags.iter().map(|&(origin, d)| result(origin, d))),
        ),
    ]);
    Value::object([
        ("version", "2.1.0".into()),
        (
            "$schema",
            "https://json.schemastore.org/sarif-2.1.0.json".into(),
        ),
        ("runs", Value::array([run])),
    ])
    .to_document()
}
