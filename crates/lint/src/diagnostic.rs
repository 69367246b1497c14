//! Structured lint diagnostics and the report they aggregate into.

use clarify_netconfig::RuleId;
use clarify_obs::json::Value;

/// How serious a diagnostic is.
///
/// The ordering matters: `Note < Warning < Error`. Only warnings and
/// errors count as *findings* (a config with notes alone is considered
/// clean); notes surface structure worth knowing about — like the
/// conflicting overlaps the paper's §3 census counts — that is routine in
/// real policies and not by itself a defect.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Informational: intentional-looking structure worth surfacing.
    Note,
    /// Almost certainly unintended; the policy works but carries dead or
    /// duplicate weight.
    Warning,
    /// The configuration is broken (e.g. a dangling list reference).
    Error,
}

impl std::fmt::Display for Severity {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Severity::Note => "note",
            Severity::Warning => "warning",
            Severity::Error => "error",
        })
    }
}

/// The lint checks, each with a stable `L0xx` code.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum LintCode {
    /// L001: the rule's match space is fully covered by earlier rules, so
    /// it can never fire (BDD containment).
    ShadowedRule,
    /// L002: deleting the rule leaves the policy behaviourally equivalent
    /// on every input, even though the rule fires on some of them.
    RedundantRule,
    /// L003: two rules with different actions match a common input and
    /// neither contains the other (the §3.2 non-trivial conflict measure).
    ConflictingOverlap,
    /// L004: the rule's match condition is unsatisfiable (⊥) on its own.
    EmptyMatch,
    /// L005: a match clause names a list that is not defined.
    DanglingReference,
    /// L006: a defined list no route-map references.
    UnusedList,
    /// L007: a rule that can fire in isolation, but never on any route its
    /// neighbors can actually deliver (dead by upstream filtering).
    DeadByUpstream,
    /// L008: provider-learned routes can re-export to another provider or
    /// peer — a valley-free (Gao–Rexford) violation, i.e. a route leak.
    RouteLeak,
    /// L009: the two ends of a session disagree — one end exports routes
    /// the other end's import rejects (or vice versa) on a nonempty region.
    AsymmetricSession,
    /// L010: a community set on some export path that no import policy
    /// anywhere in the topology ever matches.
    OrphanCommunity,
    /// L011: an import policy that denies everything its peer can send — a
    /// black-hole session.
    BlackHoleFilter,
}

impl LintCode {
    /// The stable diagnostic code (`"L001"` …).
    pub fn code(&self) -> &'static str {
        match self {
            LintCode::ShadowedRule => "L001",
            LintCode::RedundantRule => "L002",
            LintCode::ConflictingOverlap => "L003",
            LintCode::EmptyMatch => "L004",
            LintCode::DanglingReference => "L005",
            LintCode::UnusedList => "L006",
            LintCode::DeadByUpstream => "L007",
            LintCode::RouteLeak => "L008",
            LintCode::AsymmetricSession => "L009",
            LintCode::OrphanCommunity => "L010",
            LintCode::BlackHoleFilter => "L011",
        }
    }

    /// The check behind a stable code string, if it is one of ours
    /// (used when reading back a persisted lint cache).
    pub fn from_code(code: &str) -> Option<LintCode> {
        match code {
            "L001" => Some(LintCode::ShadowedRule),
            "L002" => Some(LintCode::RedundantRule),
            "L003" => Some(LintCode::ConflictingOverlap),
            "L004" => Some(LintCode::EmptyMatch),
            "L005" => Some(LintCode::DanglingReference),
            "L006" => Some(LintCode::UnusedList),
            "L007" => Some(LintCode::DeadByUpstream),
            "L008" => Some(LintCode::RouteLeak),
            "L009" => Some(LintCode::AsymmetricSession),
            "L010" => Some(LintCode::OrphanCommunity),
            "L011" => Some(LintCode::BlackHoleFilter),
            _ => None,
        }
    }

    /// Human-readable check name.
    pub fn name(&self) -> &'static str {
        match self {
            LintCode::ShadowedRule => "shadowed-rule",
            LintCode::RedundantRule => "redundant-rule",
            LintCode::ConflictingOverlap => "conflicting-overlap",
            LintCode::EmptyMatch => "empty-match",
            LintCode::DanglingReference => "dangling-reference",
            LintCode::UnusedList => "unused-list",
            LintCode::DeadByUpstream => "dead-by-upstream",
            LintCode::RouteLeak => "route-leak",
            LintCode::AsymmetricSession => "asymmetric-session",
            LintCode::OrphanCommunity => "orphan-community",
            LintCode::BlackHoleFilter => "black-hole-filter",
        }
    }

    /// The default severity of this check.
    pub fn severity(&self) -> Severity {
        match self {
            LintCode::DanglingReference | LintCode::RouteLeak => Severity::Error,
            LintCode::ShadowedRule
            | LintCode::RedundantRule
            | LintCode::EmptyMatch
            | LintCode::DeadByUpstream
            | LintCode::BlackHoleFilter => Severity::Warning,
            LintCode::ConflictingOverlap
            | LintCode::UnusedList
            | LintCode::AsymmetricSession
            | LintCode::OrphanCommunity => Severity::Note,
        }
    }
}

/// One structured diagnostic.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Diagnostic {
    /// Which check fired.
    pub code: LintCode,
    /// Its severity.
    pub severity: Severity,
    /// The rule the diagnostic is about.
    pub rule: RuleId,
    /// A second rule involved (the covering rule of a shadow, the partner
    /// of a conflict), when there is one.
    pub related: Option<RuleId>,
    /// One-based source line of `rule`, when the config carried spans.
    pub line: Option<u32>,
    /// What went wrong, in one sentence.
    pub message: String,
    /// A concrete input exhibiting the issue (a route, packet, or prefix,
    /// rendered), when the check produces one.
    pub witness: Option<String>,
    /// A suggested edit, when one is obvious.
    pub suggested_fix: Option<String>,
}

impl Diagnostic {
    /// Builds a diagnostic for `code` at its default severity.
    pub fn new(code: LintCode, rule: RuleId, message: impl Into<String>) -> Diagnostic {
        Diagnostic {
            code,
            severity: code.severity(),
            rule,
            related: None,
            line: None,
            message: message.into(),
            witness: None,
            suggested_fix: None,
        }
    }

    /// Attaches the related rule.
    pub fn with_related(mut self, related: RuleId) -> Diagnostic {
        self.related = Some(related);
        self
    }

    /// Attaches a rendered witness input.
    pub fn with_witness(mut self, witness: impl Into<String>) -> Diagnostic {
        self.witness = Some(witness.into());
        self
    }

    /// Attaches a suggested fix.
    pub fn with_fix(mut self, fix: impl Into<String>) -> Diagnostic {
        self.suggested_fix = Some(fix.into());
        self
    }
}

impl std::fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}[{}]: {}: {}",
            self.severity,
            self.code.code(),
            self.rule,
            self.message
        )?;
        if let Some(w) = &self.witness {
            // Multi-line witnesses (e.g. a rendered BGP route) keep the
            // two-space hang so they read as one block.
            write!(f, "\n  witness: {}", w.replace('\n', "\n    "))?;
        }
        if let Some(fix) = &self.suggested_fix {
            write!(f, "\n  suggested fix: {fix}")?;
        }
        Ok(())
    }
}

/// All diagnostics produced by one lint run, in deterministic order.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct LintReport {
    /// The diagnostics, sorted by (line, rule, code).
    pub diagnostics: Vec<Diagnostic>,
    /// Diagnostics dropped by inline `! lint-allow` suppressions.
    pub suppressed: usize,
}

impl LintReport {
    /// Sorts the diagnostics into the report's canonical order: by source
    /// line when known, then by rule identity, then by code.
    pub(crate) fn finish(mut self) -> LintReport {
        self.diagnostics
            .sort_by_key(|d| (d.line.unwrap_or(u32::MAX), d.rule.clone(), d.code));
        self
    }

    /// Diagnostics that count as findings (warnings and errors).
    pub fn findings(&self) -> impl Iterator<Item = &Diagnostic> {
        self.diagnostics
            .iter()
            .filter(|d| d.severity >= Severity::Warning)
    }

    /// Informational notes.
    pub fn notes(&self) -> impl Iterator<Item = &Diagnostic> {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Note)
    }

    /// Number of findings (warnings + errors).
    pub fn finding_count(&self) -> usize {
        self.findings().count()
    }

    /// Whether the config is clean: no warnings, no errors.
    pub fn is_clean(&self) -> bool {
        self.finding_count() == 0
    }

    /// Diagnostics with a given code.
    pub fn with_code(&self, code: LintCode) -> impl Iterator<Item = &Diagnostic> {
        self.diagnostics.iter().filter(move |d| d.code == code)
    }

    /// Renders the report for humans: one block per diagnostic plus a
    /// summary line. `origin` names the config (typically its file path)
    /// and prefixes every diagnostic location.
    pub fn render_human(&self, origin: &str) -> String {
        let mut out = String::new();
        for d in &self.diagnostics {
            match d.line {
                Some(line) => out.push_str(&format!("{origin}:{line}: {d}\n")),
                None => out.push_str(&format!("{origin}: {d}\n")),
            }
        }
        let errors = self
            .diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Error)
            .count();
        let warnings = self
            .diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Warning)
            .count();
        let notes = self.notes().count();
        let suppressed = if self.suppressed > 0 {
            format!(", {} suppressed", self.suppressed)
        } else {
            String::new()
        };
        out.push_str(&format!(
            "{origin}: {errors} error(s), {warnings} warning(s), {notes} note(s){suppressed}\n"
        ));
        out
    }

    /// Renders the report as a JSON document.
    pub fn render_json(&self, origin: &str) -> String {
        let diagnostic = |d: &Diagnostic| {
            Value::object([
                ("code", d.code.code().into()),
                ("check", d.code.name().into()),
                ("severity", d.severity.to_string().into()),
                ("rule", d.rule.to_string().into()),
                ("related", d.related.as_ref().map(RuleId::to_string).into()),
                ("line", d.line.into()),
                ("message", d.message.as_str().into()),
                ("witness", d.witness.as_deref().into()),
                ("suggested_fix", d.suggested_fix.as_deref().into()),
            ])
        };
        Value::object([
            ("config", origin.into()),
            ("clean", self.is_clean().into()),
            ("suppressed", self.suppressed.into()),
            (
                "diagnostics",
                Value::array(self.diagnostics.iter().map(diagnostic)),
            ),
        ])
        .to_document()
    }
}
