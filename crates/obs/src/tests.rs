use super::*;

#[test]
fn counters_gauges_and_handles_share_storage() {
    let reg = Registry::new();
    let a = reg.counter("events");
    let b = reg.counter("events");
    a.incr();
    b.add(4);
    assert_eq!(a.get(), 5);
    assert_eq!(reg.snapshot().counter("events"), 5);

    let g = reg.gauge("level");
    g.add(10);
    g.sub(3);
    assert_eq!(g.get(), 7);
    g.set(-2);
    assert_eq!(reg.snapshot().gauge("level"), -2);
}

#[test]
fn disabled_registry_is_a_no_op() {
    let reg = Registry::disabled();
    assert!(!reg.is_enabled());
    let c = reg.counter("events");
    c.incr();
    assert_eq!(c.get(), 0);
    reg.gauge("level").add(7);
    reg.histogram("h").record(9);
    {
        let _span = reg.span("work");
    }
    let snap = reg.snapshot();
    assert!(snap.counters.is_empty());
    assert!(snap.gauges.is_empty());
    assert!(snap.histograms.is_empty());
    assert_eq!(snap, Snapshot::default());
}

#[test]
fn histogram_buckets_are_log_scale() {
    let reg = Registry::new();
    let h = reg.histogram("values");
    for v in [0u64, 1, 1, 2, 3, 1024, u64::MAX] {
        h.record(v);
    }
    let snap = reg.snapshot();
    let hs = snap.histogram("values").expect("registered");
    assert_eq!(hs.count, 7);
    assert_eq!(hs.min, 0);
    assert_eq!(hs.max, u64::MAX);
    // 0 -> bucket 0 (le 0); 1 -> [1,2) le 1; 2,3 -> [2,4) le 3;
    // 1024 -> [1024,2048) le 2047; u64::MAX -> the open-ended last bucket.
    let by_le: Vec<(u64, u64)> = hs.buckets.iter().map(|b| (b.le, b.count)).collect();
    assert_eq!(
        by_le,
        vec![(0, 1), (1, 2), (3, 2), (2047, 1), (u64::MAX, 1)]
    );
    // The sum atomic wraps on overflow (fetch_add semantics).
    assert_eq!(hs.sum, 1031u64.wrapping_add(u64::MAX));
}

#[test]
fn span_records_into_named_histogram_on_drop() {
    let reg = Registry::new();
    {
        let _guard = reg.span("pivot_scan");
        std::hint::black_box(());
    }
    {
        let _guard = reg.span("pivot_scan");
    }
    let snap = reg.snapshot();
    let hs = snap.histogram("span.pivot_scan.ns").expect("span recorded");
    assert_eq!(hs.count, 2);
    assert!(hs.max >= hs.min);
}

#[test]
fn snapshot_json_round_trips() {
    let reg = Registry::new();
    reg.counter("a.b").add(42);
    reg.counter("weird \"name\"\n").incr();
    reg.gauge("g").set(-17);
    let h = reg.histogram("h.ns");
    h.record(0);
    h.record(500);
    h.record(70_000);
    let snap = reg.snapshot();
    let json = snap.to_json();
    let back = Snapshot::from_json(&json).expect("parses");
    assert_eq!(back, snap);
}

#[test]
fn empty_snapshot_round_trips() {
    let snap = Registry::new().snapshot();
    let back = Snapshot::from_json(&snap.to_json()).expect("parses");
    assert_eq!(back, snap);
}

#[test]
fn snapshot_json_layout_is_pinned() {
    assert_eq!(
        Snapshot::default().to_json(),
        "{\n  \"counters\": {},\n  \"gauges\": {},\n  \"histograms\": {}\n}\n"
    );
    let mut snap = Snapshot::default();
    snap.counters.insert("a.count".to_string(), 3);
    snap.counters.insert("b.count".to_string(), 0);
    snap.gauges.insert("level".to_string(), -4);
    snap.histograms.insert(
        "span.x.ns".to_string(),
        HistogramSnapshot {
            count: 3,
            sum: 1500,
            min: 0,
            max: 1000,
            buckets: vec![
                HistogramBucket { le: 0, count: 1 },
                HistogramBucket { le: 1023, count: 2 },
            ],
        },
    );
    snap.histograms
        .insert("empty.ns".to_string(), HistogramSnapshot::default());
    assert_eq!(
        snap.to_json(),
        r#"{
  "counters": {
    "a.count": 3,
    "b.count": 0
  },
  "gauges": {
    "level": -4
  },
  "histograms": {
    "empty.ns": {"count": 0, "sum": 0, "min": 0, "max": 0, "buckets": []},
    "span.x.ns": {"count": 3, "sum": 1500, "min": 0, "max": 1000, "buckets": [{"le": 0, "count": 1}, {"le": 1023, "count": 2}]}
  }
}
"#
    );
}

#[test]
fn one_value_renders_in_three_layouts() {
    use crate::json::Value;
    let v = Value::object([
        ("ok", true.into()),
        ("n", Value::array([1u64.into(), 2.5.into(), Value::Null])),
        ("s", "a\"b".into()),
    ]);
    assert_eq!(v.to_compact(), r#"{"ok":true,"n":[1,2.5,null],"s":"a\"b"}"#);
    assert_eq!(
        v.to_string(),
        r#"{"ok": true, "n": [1, 2.5, null], "s": "a\"b"}"#
    );
    assert_eq!(
        v.to_document(),
        "{\n  \"ok\": true,\n  \"n\": [\n    1,\n    2.5,\n    null\n  ],\n  \"s\": \"a\\\"b\"\n}\n"
    );
}

#[test]
fn floats_read_and_write_back() {
    use crate::json::{parse, Value};
    for text in ["57669.0", "-0.5", "1e21", "2.5e-7", "1E3", "0.1"] {
        let v = parse(text).expect(text);
        assert!(matches!(v, Value::Float(_)), "{text} reads as a float");
        let x = v.as_f64(text).expect("a number");
        assert_eq!(x, text.parse::<f64>().unwrap());
        // The written form reads back as the same float.
        let back = parse(&v.to_compact()).expect("written float parses");
        assert_eq!(back.as_f64("back").unwrap().to_bits(), x.to_bits());
        assert!(v.as_u64(text).is_err() && v.as_i64(text).is_err());
    }
    assert_eq!(Value::Float(100.0).to_compact(), "100.0");
    assert_eq!(Value::Float(f64::NAN).to_compact(), "null");
    assert_eq!(parse("7").unwrap().as_f64("int").unwrap(), 7.0);
    assert!(parse("\"7\"").unwrap().as_f64("str").is_err());
    for bad in [".5", "1e", "1e+", "-", "1-2", "1e999", "01.5.2"] {
        assert!(parse(bad).is_err(), "{bad} is not a number");
    }
}

#[test]
fn from_json_rejects_garbage() {
    assert!(Snapshot::from_json("").is_err());
    assert!(Snapshot::from_json("{").is_err());
    assert!(Snapshot::from_json("{\"counters\": {\"x\": \"y\"}}").is_err());
    assert!(Snapshot::from_json("{\"unknown\": {}}").is_err());
    assert!(Snapshot::from_json("{\"counters\": {}} trailing").is_err());
    // A repeated key is an error, not a merge of the two sections.
    assert!(Snapshot::from_json("{\"counters\": {\"a\": 1}, \"counters\": {\"b\": 2}}").is_err());
    // Counters are u64: negatives must be rejected, not wrapped.
    assert!(Snapshot::from_json("{\"counters\": {\"x\": -1}}").is_err());
    // Gauges are i64: negatives are fine.
    let s = Snapshot::from_json("{\"gauges\": {\"x\": -1}}").expect("parses");
    assert_eq!(s.gauge("x"), -1);
}

#[test]
fn render_human_mentions_every_section() {
    let reg = Registry::new();
    reg.counter("c").incr();
    reg.gauge("g").set(3);
    reg.histogram("span.x.ns").record(1_500);
    let text = reg.snapshot().render_human();
    assert!(text.contains("counters:"));
    assert!(text.contains("gauges:"));
    assert!(text.contains("histograms:"));
    assert!(text.contains("span.x.ns"));
    assert!(text.contains("1.5us"));

    assert_eq!(
        Registry::disabled().snapshot().render_human(),
        "obs: no metrics recorded\n"
    );
}

#[test]
fn global_starts_disabled_and_install_swaps() {
    // The one test that touches process-global state: every other obs
    // test uses a local registry, so no cross-test interference.
    assert!(!global().is_enabled());
    let reg = install(Registry::new());
    let guard = span!("global_probe");
    drop(guard);
    reg.counter("global.probe").incr();
    let snap = global().snapshot();
    assert_eq!(snap.counter("global.probe"), 1);
    assert_eq!(
        snap.histogram("span.global_probe.ns").map(|h| h.count),
        Some(1)
    );
    install(Registry::disabled());
    assert!(!global().is_enabled());
}

#[test]
fn scoped_registry_records_this_thread_only() {
    let reg = Arc::new(Registry::new());
    let probe = reg.clone();
    scoped(reg.clone(), || {
        global().counter("scoped.probe").incr();
        drop(span!("scoped_probe"));
        let elsewhere = std::thread::spawn(move || Arc::ptr_eq(&global(), &probe));
        assert!(!elsewhere.join().unwrap(), "other threads keep the global");
    });
    assert!(!Arc::ptr_eq(&global(), &reg), "the scope ended");
    let snap = reg.snapshot();
    assert_eq!(snap.counter("scoped.probe"), 1);
    assert_eq!(
        snap.histogram("span.scoped_probe.ns").map(|h| h.count),
        Some(1)
    );
}

#[test]
fn counter_registration_alone_appears_in_snapshot() {
    // Handing out a handle registers the name at 0, so reports always
    // contain the full counter vocabulary of the code that ran — a punt
    // counter that stayed at zero is still present.
    let reg = Registry::new();
    let _ = reg.counter("pipeline.punts");
    assert_eq!(reg.snapshot().counters.get("pipeline.punts"), Some(&0));
}
