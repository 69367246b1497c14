//! Characterization golden: atom witnesses in decoded routes.
//!
//! `testdata/lint_atoms.cfg` holds two route-maps over nested and
//! overlapping community regexes (`_65000:[0-9]+_` around `_65000:1[0-9]_`,
//! `:100_`, `^[0-9]:`, `_6553[0-5]:`) and AS-path regexes (`_100_`,
//! `^100_`, `_200$`, `_1[0-9][0-9]_`, `^$`). Its L001 and L003 witnesses
//! show the atoms' witness strings in their AS paths and communities, so
//! the report pins the atom partition, its order and its witnesses. The
//! `clarify lint` report must match `testdata/lint_atoms_report.txt` byte
//! for byte at 1 and 8 worker threads; the config has warnings, so the
//! exit status is 1.

use std::path::Path;
use std::process::{Command, Stdio};

#[test]
fn lint_atoms_report_matches_golden_at_1_and_8_threads() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let golden = std::fs::read_to_string(root.join("testdata/lint_atoms_report.txt"))
        .expect("pinned golden exists");
    for threads in ["1", "8"] {
        let out = Command::new(env!("CARGO_BIN_EXE_clarify"))
            .current_dir(root)
            .args(["lint", "--threads", threads, "testdata/lint_atoms.cfg"])
            .stdin(Stdio::null())
            .output()
            .expect("clarify runs");
        assert_eq!(
            out.status.code(),
            Some(1),
            "--threads {threads}; stderr: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        assert_eq!(
            String::from_utf8_lossy(&out.stdout),
            golden,
            "--threads {threads}: report drifted from testdata/lint_atoms_report.txt"
        );
    }
}
