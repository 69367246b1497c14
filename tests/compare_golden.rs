//! Characterization golden for `clarify compare` over the `set` clauses:
//! `testdata/compare_sets_{a,b}.cfg` hold one route-map whose stanza
//! pairs each differ in one kind of `set` clause (metric, local
//! preference, a tag outside the 16-bit space, weight, next hop,
//! community add vs replace), plus a pair whose clause lists differ but
//! whose effects agree and a permit-vs-deny pair. The comparison must
//! reproduce `testdata/compare_sets_report.txt` byte for byte and exit 0.
//! Refresh the golden only for an intended change:
//!
//! ```sh
//! clarify compare testdata/compare_sets_a.cfg testdata/compare_sets_b.cfg SETS 16 \
//!   > testdata/compare_sets_report.txt
//! ```

use std::path::Path;
use std::process::{Command, Stdio};

fn manifest_dir() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

#[test]
fn compare_over_set_clauses_matches_golden() {
    let out = Command::new(env!("CARGO_BIN_EXE_clarify"))
        .current_dir(manifest_dir())
        .args([
            "compare",
            "testdata/compare_sets_a.cfg",
            "testdata/compare_sets_b.cfg",
            "SETS",
            "16",
        ])
        .stdin(Stdio::null())
        .output()
        .expect("clarify runs");
    assert_eq!(
        out.status.code(),
        Some(0),
        "clarify compare failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let actual = String::from_utf8(out.stdout).expect("stdout is UTF-8");
    let expected = std::fs::read_to_string(manifest_dir().join("testdata/compare_sets_report.txt"))
        .expect("golden exists");
    assert_eq!(
        actual, expected,
        "compare output drifted from testdata/compare_sets_report.txt"
    );
}
