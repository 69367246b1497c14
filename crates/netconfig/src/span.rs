//! Stable rule identities and source spans.
//!
//! Static-analysis passes (`clarify-lint`) need two things the plain AST
//! does not carry: a *name* for every individual rule that survives
//! re-sorting and insertion (the [`RuleId`]), and the source line the rule
//! came from when the configuration was parsed from text (the
//! [`SourceMap`]). Keeping spans in a side table rather than on the AST
//! nodes keeps structural equality (`PartialEq`) purely semantic: two
//! configs that print identically stay equal no matter where their lines
//! sat in the original file.

use std::collections::BTreeMap;

/// The kind of named configuration object a rule lives in.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ObjectKind {
    /// A `route-map`.
    RouteMap,
    /// An `ip access-list extended`.
    Acl,
    /// An `ip prefix-list`.
    PrefixList,
    /// An `ip as-path access-list`.
    AsPathList,
    /// An `ip community-list`.
    CommunityList,
}

impl ObjectKind {
    /// The IOS-ish keyword used when rendering identities.
    pub fn keyword(&self) -> &'static str {
        match self {
            ObjectKind::RouteMap => "route-map",
            ObjectKind::Acl => "access-list",
            ObjectKind::PrefixList => "prefix-list",
            ObjectKind::AsPathList => "as-path access-list",
            ObjectKind::CommunityList => "community-list",
        }
    }
}

/// Which rule within an object an identity points at.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum RuleKey {
    /// The object itself (its header line), not any one rule.
    Object,
    /// A rule addressed by its IOS sequence number (route-map stanzas,
    /// prefix-list entries).
    Seq(u32),
    /// A rule addressed by its zero-based position in file order (ACL,
    /// as-path and community-list entries, which carry no sequence
    /// numbers).
    Index(usize),
}

/// A stable identity for one rule (or one whole object) of a [`Config`].
///
/// [`Config`]: crate::Config
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RuleId {
    /// The kind of containing object.
    pub kind: ObjectKind,
    /// The containing object's name.
    pub object: String,
    /// The rule within the object.
    pub rule: RuleKey,
}

impl RuleId {
    /// Identity of a whole named object.
    pub fn object(kind: ObjectKind, name: impl Into<String>) -> RuleId {
        RuleId {
            kind,
            object: name.into(),
            rule: RuleKey::Object,
        }
    }

    /// Identity of a route-map stanza by sequence number.
    pub fn route_map_stanza(map: impl Into<String>, seq: u32) -> RuleId {
        RuleId {
            kind: ObjectKind::RouteMap,
            object: map.into(),
            rule: RuleKey::Seq(seq),
        }
    }

    /// Identity of an ACL entry by zero-based index.
    pub fn acl_entry(acl: impl Into<String>, index: usize) -> RuleId {
        RuleId {
            kind: ObjectKind::Acl,
            object: acl.into(),
            rule: RuleKey::Index(index),
        }
    }

    /// Identity of a prefix-list entry by sequence number.
    pub fn prefix_entry(list: impl Into<String>, seq: u32) -> RuleId {
        RuleId {
            kind: ObjectKind::PrefixList,
            object: list.into(),
            rule: RuleKey::Seq(seq),
        }
    }

    /// Identity of an as-path access-list entry by zero-based index.
    pub fn as_path_entry(list: impl Into<String>, index: usize) -> RuleId {
        RuleId {
            kind: ObjectKind::AsPathList,
            object: list.into(),
            rule: RuleKey::Index(index),
        }
    }

    /// Identity of a community-list entry by zero-based index.
    pub fn community_entry(list: impl Into<String>, index: usize) -> RuleId {
        RuleId {
            kind: ObjectKind::CommunityList,
            object: list.into(),
            rule: RuleKey::Index(index),
        }
    }

    /// The rule's name within its object, as diagnostics spell it:
    /// `stanza 10` for a route-map stanza, `seq 5` for another
    /// sequence-numbered rule, `rule 3` for a positional one; empty for a
    /// whole object.
    pub fn rule_label(&self) -> String {
        match (self.kind, self.rule) {
            (_, RuleKey::Object) => String::new(),
            (ObjectKind::RouteMap, RuleKey::Seq(n)) => format!("stanza {n}"),
            (_, RuleKey::Seq(n)) => format!("seq {n}"),
            (_, RuleKey::Index(i)) => format!("rule {i}"),
        }
    }
}

impl std::fmt::Display for RuleId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} {}", self.kind.keyword(), self.object)?;
        match self.rule {
            RuleKey::Object => Ok(()),
            _ => write!(f, " {}", self.rule_label()),
        }
    }
}

/// Side table mapping rule identities to one-based source line numbers,
/// produced by [`Config::parse_with_spans`].
///
/// [`Config::parse_with_spans`]: crate::Config::parse_with_spans
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SourceMap {
    lines: BTreeMap<RuleId, u32>,
}

impl SourceMap {
    /// An empty map.
    pub fn new() -> SourceMap {
        SourceMap::default()
    }

    /// Records the line a rule was parsed from. The first record for an
    /// identity wins (object headers keep their first occurrence).
    pub fn record(&mut self, id: RuleId, line: u32) {
        self.lines.entry(id).or_insert(line);
    }

    /// The one-based source line for a rule, if known.
    pub fn line(&self, id: &RuleId) -> Option<u32> {
        self.lines.get(id).copied()
    }

    /// Number of recorded spans.
    pub fn len(&self) -> usize {
        self.lines.len()
    }

    /// Whether nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.lines.is_empty()
    }

    /// Iterates over `(identity, line)` pairs in identity order.
    pub fn iter(&self) -> impl Iterator<Item = (&RuleId, u32)> {
        self.lines.iter().map(|(k, &v)| (k, v))
    }
}
