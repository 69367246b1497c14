//! Unit tests of the bench comparator: reading records and comparing
//! them by unit.

use super::*;

fn baseline() -> Records {
    let text = r#"{
  "bench": "demo",
  "trajectory": [
    {"records": [
      {"name": "demo/a", "median_ns": 100.0},
      {"name": "demo/b\\c", "median_ns": 200.0},
      {"name": "demo/d", "median_ns": 300.0},
      {"name": "demo/nodes", "unit": "nodes", "median_ns": 40},
      {"name": "demo/runs", "median_ns": 3}
    ]}
  ]
}"#;
    records(&documents(text, "baseline"))
}

/// A name holding an escape no longer ends the scan: the records
/// after it are compared, so a regression there is seen and gated.
#[test]
fn an_escaped_name_does_not_end_the_scan() {
    let baseline = baseline();
    assert_eq!(baseline.len(), 5);
    assert_eq!(baseline["demo/b\\c"].median, 200.0);
    let fresh = "{\"name\":\"demo/a\",\"median_ns\":100.0}\n\
                 {\"name\":\"demo/d\",\"median_ns\":900.0}\n";
    let fresh = records(&documents(fresh, "fresh"));
    let warned = compare(&baseline, "baseline", &fresh, "fresh", "demo/", None);
    assert_eq!((warned.compared, warned.ok), (2, 1));
    assert_eq!((warned.regressed, warned.missing, warned.failed), (1, 3, 0));
    // `--fail-over 100`: beyond 2x fails, and the exit status is 1.
    let gated = compare(&baseline, "baseline", &fresh, "fresh", "demo/", Some(2.0));
    assert_eq!((gated.regressed, gated.failed), (0, 1));
}

/// A record in a unit other than `ns` compares exactly, taking its
/// unit from the fresh record when the baseline names none.
#[test]
fn counts_compare_exactly() {
    let baseline = baseline();
    let fresh = "{\"name\":\"demo/nodes\",\"median_ns\":40.0}\n\
                 {\"name\":\"demo/runs\",\"unit\":\"count\",\"median_ns\":2}\n\
                 not json\n";
    let fresh = records(&documents(fresh, "fresh"));
    assert_eq!(fresh.len(), 2);
    let tally = compare(&baseline, "baseline", &fresh, "fresh", "demo/", Some(2.0));
    assert_eq!((tally.compared, tally.ok, tally.changed), (2, 1, 1));
    // A count that fell by a third is neither improved nor gated.
    assert_eq!((tally.improved, tally.regressed, tally.failed), (0, 0, 0));
}
