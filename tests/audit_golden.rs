//! Characterization golden for the overlap CLI: `clarify audit` over the
//! shipped corpus, then `clarify chain` over the two inbound maps of the
//! border router, must reproduce `testdata/audit_report.txt` byte for
//! byte and exit 0. These are the only CLI users of the overlap census.
//! Refresh the golden only for an intended change:
//!
//! ```sh
//! for f in isp_out edge_acl border_router lint_kinds; do
//!   clarify audit testdata/$f.cfg
//! done > testdata/audit_report.txt
//! clarify chain testdata/border_router.cfg ISP_IN ISP_IN_SECOND >> testdata/audit_report.txt
//! ```

use std::path::Path;
use std::process::{Command, Stdio};

fn manifest_dir() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

#[test]
fn audit_and_chain_match_golden() {
    let runs: [&[&str]; 5] = [
        &["audit", "testdata/isp_out.cfg"],
        &["audit", "testdata/edge_acl.cfg"],
        &["audit", "testdata/border_router.cfg"],
        &["audit", "testdata/lint_kinds.cfg"],
        &[
            "chain",
            "testdata/border_router.cfg",
            "ISP_IN",
            "ISP_IN_SECOND",
        ],
    ];
    let mut actual = String::new();
    for args in runs {
        let out = Command::new(env!("CARGO_BIN_EXE_clarify"))
            .current_dir(manifest_dir())
            .args(args)
            .stdin(Stdio::null())
            .output()
            .expect("clarify runs");
        assert_eq!(
            out.status.code(),
            Some(0),
            "clarify {args:?} failed: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        actual.push_str(&String::from_utf8(out.stdout).expect("stdout is UTF-8"));
    }
    let expected = std::fs::read_to_string(manifest_dir().join("testdata/audit_report.txt"))
        .expect("golden exists");
    assert_eq!(
        actual, expected,
        "overlap CLI output drifted from testdata/audit_report.txt"
    );
}
