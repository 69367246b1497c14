//! Content hashing of configurations.
//!
//! These are the invalidation keys of the incremental re-lint layer: every
//! named object gets a stable 64-bit content hash over its canonical
//! printed form (which round-trips through the parser, so two objects that
//! print identically are semantically interchangeable to every analysis),
//! keyed by its [`RuleId`]. Hashes deliberately ignore source lines:
//! moving an object within a file must not dirty it, exactly as
//! [`SourceMap`](crate::SourceMap) keeps spans out of structural equality.

use std::collections::BTreeMap;

use crate::ast::Config;
use crate::span::{ObjectKind, RuleId};

/// 64-bit FNV-1a over a byte string. Stable across platforms and runs —
/// the incremental lint cache persists these hashes to disk.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = OFFSET;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(PRIME);
    }
    h
}

/// Extends an FNV-1a state with one `u64` (for combining hashes).
pub fn fnv1a64_combine(state: u64, value: u64) -> u64 {
    fnv1a64_extend(state, &value.to_le_bytes())
}

fn fnv1a64_extend(mut h: u64, bytes: &[u8]) -> u64 {
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(PRIME);
    }
    h
}

/// Content hashes for every named object of a configuration, keyed by the
/// object-level [`RuleId`] (`RuleKey::Object`).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ObjectHashes {
    hashes: BTreeMap<RuleId, u64>,
}

impl ObjectHashes {
    /// The hash of one object, if it exists.
    pub fn get(&self, kind: ObjectKind, name: &str) -> Option<u64> {
        self.hashes.get(&RuleId::object(kind, name)).copied()
    }

    /// Iterates over `(identity, hash)` pairs in identity order.
    pub fn iter(&self) -> impl Iterator<Item = (&RuleId, u64)> {
        self.hashes.iter().map(|(k, &v)| (k, v))
    }

    /// Number of hashed objects.
    pub fn len(&self) -> usize {
        self.hashes.len()
    }

    /// Whether the configuration had no objects.
    pub fn is_empty(&self) -> bool {
        self.hashes.is_empty()
    }
}

impl Config {
    /// Content hashes for every named object, over each object's canonical
    /// printed form (prefixed by its kind keyword so equal text under
    /// different kinds cannot collide).
    pub fn object_hashes(&self) -> ObjectHashes {
        let mut hashes = BTreeMap::new();
        let mut put = |kind: ObjectKind, name: &str, text: String| {
            let mut h = fnv1a64(kind.keyword().as_bytes());
            h = fnv1a64_extend(h, b"\0");
            h = fnv1a64_extend(h, text.as_bytes());
            hashes.insert(RuleId::object(kind, name), h);
        };
        for (name, o) in &self.route_maps {
            put(ObjectKind::RouteMap, name, o.to_string());
        }
        for (name, o) in &self.acls {
            put(ObjectKind::Acl, name, o.to_string());
        }
        for (name, o) in &self.prefix_lists {
            put(ObjectKind::PrefixList, name, o.to_string());
        }
        for (name, o) in &self.as_path_lists {
            put(ObjectKind::AsPathList, name, o.to_string());
        }
        for (name, o) in &self.community_lists {
            put(ObjectKind::CommunityList, name, o.to_string());
        }
        ObjectHashes { hashes }
    }

    /// Hash of the whole canonical rendering (the printed config).
    pub fn content_hash(&self) -> u64 {
        fnv1a64(self.to_string().as_bytes())
    }
}
