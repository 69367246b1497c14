//! The persisted lint cache behind `clarify lint --incremental`.
//!
//! A cache is a full lint report re-keyed by object: for every named
//! object of the linted configuration it records the object's content
//! hash and the symbolic diagnostics (L001–L004) anchored in it, plus the
//! atom-environment hash the route-map findings were decoded under.
//! Reference-pass diagnostics (L005/L006) are *not* cached — that pass is
//! a cheap AST walk the incremental driver always re-runs — and source
//! lines are not cached either: an edit shifts every line below it, so
//! lines are re-applied from the new [`SourceMap`] at splice time.
//!
//! The format is versioned and carries a checksum over everything
//! semantic. Any mismatch — a tampered hash, a truncated object list —
//! makes the whole cache [`DocError::Stale`], and `lint --incremental`
//! falls back to a full recompute rather than risk splicing findings that
//! no longer correspond to any configuration.
//!
//! [`SourceMap`]: clarify_netconfig::SourceMap

use std::collections::BTreeMap;

use clarify_netconfig::{fnv1a64, fnv1a64_combine, Config, ObjectKind, RuleId, RuleKey};
use clarify_obs::json::{self, DocError, Fields, Value};

use crate::diagnostic::{Diagnostic, LintCode, LintReport};

/// The format tag written to and expected from cache files.
pub const CACHE_FORMAT: &str = "clarify-lint-cache/v2";

/// One object's entry in the cache.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CachedObject {
    /// The object's content hash
    /// (from [`Config::object_hashes`](clarify_netconfig::Config::object_hashes)).
    pub hash: u64,
    /// The symbolic diagnostics anchored in this object, in report order,
    /// with `line` cleared.
    pub diagnostics: Vec<Diagnostic>,
}

/// A previous lint run, keyed for incremental splicing.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct LintCache {
    /// Content hash of the configuration this cache describes, as the
    /// persisted cache carries it; 0 in a re-lint session's cache, which
    /// never reads it.
    pub config_hash: u64,
    /// Atom-environment hash
    /// (see [`atom_env_hash`](clarify_analysis::atom_env_hash)) at lint
    /// time; a change dirties every route-map.
    pub atom_env: u64,
    /// Per-object entries, keyed by object identity.
    pub objects: BTreeMap<RuleId, CachedObject>,
}

impl LintCache {
    /// Builds the cache for `cfg` from its finished `report`: hashes
    /// every object and files the symbolic diagnostics under the object
    /// their anchor rule lives in.
    pub fn from_report(cfg: &Config, report: &LintReport) -> LintCache {
        let mut cache = LintCache::keys(cfg);
        cache.config_hash = cfg.content_hash();
        cache.file(report);
        cache
    }

    /// The keys an incremental run compares with the previous run's: every
    /// object's hash, without diagnostics yet, and the atom environment.
    /// `config_hash` stays 0: only a persisted cache carries it.
    pub(crate) fn keys(cfg: &Config) -> LintCache {
        let hashes = cfg.object_hashes();
        LintCache {
            config_hash: 0,
            atom_env: clarify_analysis::atom_env_hash(&[cfg]),
            objects: hashes
                .iter()
                .map(|(id, hash)| {
                    let diagnostics = Vec::new();
                    (id.clone(), CachedObject { hash, diagnostics })
                })
                .collect(),
        }
    }

    /// Files the symbolic diagnostics of `report`, the lint of the
    /// configuration these keys hash, under the object their anchor rule
    /// lives in.
    pub(crate) fn file(&mut self, report: &LintReport) {
        for d in &report.diagnostics {
            if !matches!(
                d.code,
                LintCode::ShadowedRule
                    | LintCode::RedundantRule
                    | LintCode::ConflictingOverlap
                    | LintCode::EmptyMatch
            ) {
                continue;
            }
            let owner = RuleId::object(d.rule.kind, d.rule.object.clone());
            if let Some(entry) = self.objects.get_mut(&owner) {
                let mut d = d.clone();
                d.line = None;
                entry.diagnostics.push(d);
            }
        }
    }

    /// The entry for one object, if the cache has it.
    pub fn object(&self, kind: ObjectKind, name: &str) -> Option<&CachedObject> {
        self.objects.get(&RuleId::object(kind, name))
    }

    /// The checksum over everything semantic: atom environment, config
    /// hash, and every object with its diagnostics.
    pub fn digest(&self) -> u64 {
        let mut h = fnv1a64(CACHE_FORMAT.as_bytes());
        h = fnv1a64_combine(h, self.config_hash);
        h = fnv1a64_combine(h, self.atom_env);
        for (id, obj) in &self.objects {
            h = fnv1a64_combine(h, fnv1a64(id.to_string().as_bytes()));
            h = fnv1a64_combine(h, obj.hash);
            for d in &obj.diagnostics {
                // `diag_value` covers every persisted field (Display omits
                // `related`), so digesting it makes any tampering visible.
                h = fnv1a64_combine(h, fnv1a64(diag_value(d).to_string().as_bytes()));
            }
        }
        h
    }

    /// Renders the cache as a deterministic JSON document.
    pub fn to_json(&self) -> String {
        let object = |(id, obj): (&RuleId, &CachedObject)| {
            Value::object([
                ("kind", id.kind.keyword().into()),
                ("name", id.object.as_str().into()),
                ("hash", Value::hex(obj.hash)),
                (
                    "diagnostics",
                    Value::array(obj.diagnostics.iter().map(diag_value)),
                ),
            ])
        };
        Value::object([
            ("format", CACHE_FORMAT.into()),
            ("config_hash", Value::hex(self.config_hash)),
            ("atom_env", Value::hex(self.atom_env)),
            ("checksum", Value::hex(self.digest())),
            ("objects", Value::array(self.objects.iter().map(object))),
        ])
        .to_document()
    }

    /// Parses a cache document and verifies its format tag and checksum.
    pub fn from_json(text: &str) -> Result<LintCache, DocError> {
        let value = json::parse(text)?;
        let mut top = Fields::new(&value, "top level")?;
        let format = top.str("format")?;
        let stored = top.req("checksum")?.as_hex("checksum")?;
        let cache = LintCache {
            config_hash: top.req("config_hash")?.as_hex("config_hash")?,
            atom_env: top.req("atom_env")?.as_hex("atom_env")?,
            objects: top
                .req("objects")?
                .as_array("objects")?
                .iter()
                .map(parse_object)
                .collect::<Result<_, _>>()?,
        };
        top.done()?;
        json::check_seal(format, CACHE_FORMAT, stored, cache.digest())?;
        Ok(cache)
    }
}

/// One diagnostic as a JSON object (no line — lines are re-applied from
/// the new source map at splice time; no severity — it derives from the
/// code).
fn diag_value(d: &Diagnostic) -> Value {
    Value::object([
        ("code", d.code.code().into()),
        ("rule", rule_value(&d.rule)),
        ("related", d.related.as_ref().map(rule_value).into()),
        ("message", d.message.as_str().into()),
        ("witness", d.witness.as_deref().into()),
        ("suggested_fix", d.suggested_fix.as_deref().into()),
    ])
}

fn rule_value(id: &RuleId) -> Value {
    let key = match id.rule {
        RuleKey::Object => "object".to_string(),
        RuleKey::Seq(n) => format!("seq:{n}"),
        RuleKey::Index(i) => format!("index:{i}"),
    };
    Value::object([
        ("kind", id.kind.keyword().into()),
        ("object", id.object.as_str().into()),
        ("key", key.into()),
    ])
}

fn parse_rule(v: &Value) -> Result<RuleId, String> {
    let mut f = Fields::new(v, "rule")?;
    let kind = kind_from_keyword(f.str("kind")?)?;
    let object = f.str("object")?.to_string();
    let key = f.str("key")?;
    let rule = match key.split_once(':') {
        None if key == "object" => Some(RuleKey::Object),
        Some(("seq", n)) => n.parse().ok().map(RuleKey::Seq),
        Some(("index", i)) => i.parse().ok().map(RuleKey::Index),
        _ => None,
    }
    .ok_or_else(|| format!("bad rule key '{key}'"))?;
    f.done()?;
    Ok(RuleId { kind, object, rule })
}

fn kind_from_keyword(s: &str) -> Result<ObjectKind, String> {
    [
        ObjectKind::RouteMap,
        ObjectKind::Acl,
        ObjectKind::PrefixList,
        ObjectKind::AsPathList,
        ObjectKind::CommunityList,
    ]
    .into_iter()
    .find(|kind| kind.keyword() == s)
    .ok_or_else(|| format!("unknown object kind '{s}'"))
}

fn parse_diag(v: &Value) -> Result<Diagnostic, String> {
    let mut f = Fields::new(v, "diagnostic")?;
    let code = f.str("code")?;
    let code =
        LintCode::from_code(code).ok_or_else(|| format!("unknown diagnostic code '{code}'"))?;
    let d = Diagnostic {
        code,
        severity: code.severity(),
        rule: parse_rule(f.req("rule")?)?,
        related: f.opt("related").map(parse_rule).transpose()?,
        line: None,
        message: f.str("message")?.to_string(),
        witness: f.opt_str("witness")?.map(str::to_string),
        suggested_fix: f.opt_str("suggested_fix")?.map(str::to_string),
    };
    f.done()?;
    Ok(d)
}

fn parse_object(v: &Value) -> Result<(RuleId, CachedObject), String> {
    let mut f = Fields::new(v, "object entry")?;
    let kind = kind_from_keyword(f.str("kind")?)?;
    let id = RuleId::object(kind, f.str("name")?);
    let obj = CachedObject {
        hash: f.req("hash")?.as_hex("hash")?,
        diagnostics: f
            .req("diagnostics")?
            .as_array("diagnostics")?
            .iter()
            .map(parse_diag)
            .collect::<Result<_, _>>()?,
    };
    f.done()?;
    Ok((id, obj))
}
