//! Point-in-time registry snapshots: the machine-readable JSON report
//! behind `--trace-json`, the human summary behind `--stats`, and a
//! minimal JSON reader so integration tests can check emitted reports
//! without an external JSON crate.

use std::collections::BTreeMap;

use crate::json::{self, Fields, Value};

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

    fn to_value(&self) -> Value {
        let bucket =
            |b: &HistogramBucket| Value::object([("le", b.le.into()), ("count", b.count.into())]);
        Value::object([
            ("count", self.count.into()),
            ("sum", self.sum.into()),
            ("min", self.min.into()),
            ("max", self.max.into()),
            ("buckets", Value::array(self.buckets.iter().map(bucket))),
        ])
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
    /// sorted).
    pub fn to_json(&self) -> String {
        Value::object([
            ("counters", section(&self.counters, |&n| n.into())),
            ("gauges", section(&self.gauges, |&n| n.into())),
            (
                "histograms",
                section(&self.histograms, HistogramSnapshot::to_value),
            ),
        ])
        .to_document()
    }

    /// Parses a document produced by [`Snapshot::to_json`] (any
    /// whitespace; a missing section or histogram field reads as empty;
    /// unknown and repeated keys rejected — the format is ours).
    pub fn from_json(text: &str) -> Result<Snapshot, String> {
        let value = json::parse(text)?;
        let mut top = Fields::new(&value, "top level")?;
        let mut snap = Snapshot::default();
        for (name, n) in read_section(&mut top, "counters")? {
            snap.counters.insert(name.clone(), n.as_u64(name)?);
        }
        for (name, n) in read_section(&mut top, "gauges")? {
            snap.gauges.insert(name.clone(), n.as_i64(name)?);
        }
        for (name, h) in read_section(&mut top, "histograms")? {
            let mut f = Fields::new(h, "histogram")?;
            let mut hs = HistogramSnapshot {
                count: int(&mut f, "count")?,
                sum: int(&mut f, "sum")?,
                min: int(&mut f, "min")?,
                max: int(&mut f, "max")?,
                buckets: Vec::new(),
            };
            for b in f
                .opt("buckets")
                .map_or(Ok(&Vec::new()), |v| v.as_array("buckets"))?
            {
                let mut f = Fields::new(b, "bucket")?;
                let (le, count) = (int(&mut f, "le")?, int(&mut f, "count")?);
                hs.buckets.push(HistogramBucket { le, count });
                f.done()?;
            }
            f.done()?;
            snap.histograms.insert(name.clone(), hs);
        }
        top.done()?;
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

/// One name-sorted section of the JSON report.
fn section<T>(map: &BTreeMap<String, T>, value: impl Fn(&T) -> Value) -> Value {
    Value::object(map.iter().map(|(k, v)| (k.as_str(), value(v))))
}

/// The members of one section of a parsed report; an absent section is
/// empty.
fn read_section<'a>(top: &mut Fields<'a>, key: &'a str) -> Result<&'a [(String, Value)], String> {
    match top.opt(key) {
        Some(v) => Ok(Fields::new(v, key)?.members()),
        None => Ok(&[]),
    }
}

/// An integer field of a histogram or bucket; absent reads as 0.
fn int(f: &mut Fields, key: &str) -> Result<u64, String> {
    f.opt(key).map_or(Ok(0), |v| v.as_u64(key))
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
