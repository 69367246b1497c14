//! Point-in-time registry snapshots: the machine-readable JSON report
//! behind `--trace-json`, the human summary behind `--stats`, and a
//! minimal JSON reader so integration tests can check emitted reports
//! without an external JSON crate.

use std::collections::BTreeMap;

use crate::json;

/// One non-empty histogram bucket.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HistogramBucket {
    /// Inclusive upper bound of the bucket (0, then `2^i - 1`).
    pub le: u64,
    /// Observations that landed in it.
    pub count: u64,
}

/// A frozen histogram: totals plus the non-empty buckets.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Number of observations.
    pub count: u64,
    /// Sum of all observed values.
    pub sum: u64,
    /// Smallest observed value (0 when empty).
    pub min: u64,
    /// Largest observed value (0 when empty).
    pub max: u64,
    /// The non-empty buckets, ascending by bound.
    pub buckets: Vec<HistogramBucket>,
}

impl HistogramSnapshot {
    /// Mean observed value (0 when empty).
    pub fn mean(&self) -> u64 {
        self.sum.checked_div(self.count).unwrap_or(0)
    }
}

/// A frozen copy of a whole [`crate::Registry`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Snapshot {
    /// Counter values by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge levels by name.
    pub gauges: BTreeMap<String, i64>,
    /// Histograms by name.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

impl Snapshot {
    /// A counter's value, 0 when it was never registered.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// A gauge's level, 0 when it was never registered.
    pub fn gauge(&self, name: &str) -> i64 {
        self.gauges.get(name).copied().unwrap_or(0)
    }

    /// A histogram by name, when it was registered.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms.get(name)
    }

    /// Renders the snapshot as a deterministic JSON document (names
    /// sorted; hand-rolled — the workspace is dependency-free by
    /// design).
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n  \"counters\": {");
        for (i, (k, v)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\n    {}: {v}", json::escape(k)));
        }
        out.push_str(if self.counters.is_empty() {
            "},\n"
        } else {
            "\n  },\n"
        });
        out.push_str("  \"gauges\": {");
        for (i, (k, v)) in self.gauges.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\n    {}: {v}", json::escape(k)));
        }
        out.push_str(if self.gauges.is_empty() {
            "},\n"
        } else {
            "\n  },\n"
        });
        out.push_str("  \"histograms\": {");
        for (i, (k, h)) in self.histograms.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\n    {}: {{\"count\": {}, \"sum\": {}, \"min\": {}, \"max\": {}, \"buckets\": [",
                json::escape(k),
                h.count,
                h.sum,
                h.min,
                h.max
            ));
            for (j, b) in h.buckets.iter().enumerate() {
                if j > 0 {
                    out.push_str(", ");
                }
                out.push_str(&format!("{{\"le\": {}, \"count\": {}}}", b.le, b.count));
            }
            out.push_str("]}");
        }
        out.push_str(if self.histograms.is_empty() {
            "}\n"
        } else {
            "\n  }\n"
        });
        out.push_str("}\n");
        out
    }

    /// Parses a document produced by [`Snapshot::to_json`] (any
    /// whitespace; unknown keys rejected — the format is ours).
    pub fn from_json(text: &str) -> Result<Snapshot, String> {
        let value = json::parse(text)?;
        let top = value.as_object("top level")?;
        let mut snap = Snapshot::default();
        for (key, v) in top {
            match key.as_str() {
                "counters" => {
                    for (name, n) in v.as_object("counters")? {
                        snap.counters.insert(name.clone(), n.as_u64(name)?);
                    }
                }
                "gauges" => {
                    for (name, n) in v.as_object("gauges")? {
                        snap.gauges.insert(name.clone(), n.as_i64(name)?);
                    }
                }
                "histograms" => {
                    for (name, h) in v.as_object("histograms")? {
                        let mut hs = HistogramSnapshot::default();
                        for (field, fv) in h.as_object(name)? {
                            match field.as_str() {
                                "count" => hs.count = fv.as_u64(field)?,
                                "sum" => hs.sum = fv.as_u64(field)?,
                                "min" => hs.min = fv.as_u64(field)?,
                                "max" => hs.max = fv.as_u64(field)?,
                                "buckets" => {
                                    for b in fv.as_array(field)? {
                                        let fields = b.as_object("bucket")?;
                                        let mut bucket = HistogramBucket { le: 0, count: 0 };
                                        for (bk, bv) in fields {
                                            match bk.as_str() {
                                                "le" => bucket.le = bv.as_u64(bk)?,
                                                "count" => bucket.count = bv.as_u64(bk)?,
                                                other => {
                                                    return Err(format!(
                                                        "unknown bucket key '{other}'"
                                                    ))
                                                }
                                            }
                                        }
                                        hs.buckets.push(bucket);
                                    }
                                }
                                other => {
                                    return Err(format!("unknown histogram key '{other}'"));
                                }
                            }
                        }
                        snap.histograms.insert(name.clone(), hs);
                    }
                }
                other => return Err(format!("unknown top-level key '{other}'")),
            }
        }
        Ok(snap)
    }

    /// Renders the human `--stats` summary: counters and gauges in name
    /// order, then one line per histogram with count/mean/min/max.
    pub fn render_human(&self) -> String {
        let mut out = String::new();
        if self.counters.is_empty() && self.gauges.is_empty() && self.histograms.is_empty() {
            out.push_str("obs: no metrics recorded\n");
            return out;
        }
        if !self.counters.is_empty() {
            out.push_str("counters:\n");
            for (k, v) in &self.counters {
                out.push_str(&format!("  {k:<44} {v}\n"));
            }
        }
        if !self.gauges.is_empty() {
            out.push_str("gauges:\n");
            for (k, v) in &self.gauges {
                out.push_str(&format!("  {k:<44} {v}\n"));
            }
        }
        if !self.histograms.is_empty() {
            out.push_str("histograms:\n");
            for (k, h) in &self.histograms {
                out.push_str(&format!(
                    "  {k:<44} count {}  mean {}  min {}  max {}\n",
                    h.count,
                    fmt_ns(h.mean()),
                    fmt_ns(h.min),
                    fmt_ns(h.max),
                ));
            }
        }
        out
    }
}

/// Formats a (nanosecond) value for the human summary. All histograms in
/// this workspace record nanoseconds; raw-valued histograms would simply
/// read as "ns" and still be unambiguous next to the JSON report.
fn fmt_ns(ns: u64) -> String {
    let ns = ns as f64;
    if ns < 1_000.0 {
        format!("{ns:.0}ns")
    } else if ns < 1_000_000.0 {
        format!("{:.1}us", ns / 1_000.0)
    } else if ns < 1_000_000_000.0 {
        format!("{:.1}ms", ns / 1_000_000.0)
    } else {
        format!("{:.2}s", ns / 1_000_000_000.0)
    }
}
