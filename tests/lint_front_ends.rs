//! `clarify lint` and the standalone `lint` binary are one front end
//! (`clarify_lint::cli`): the same arguments must give the same stdout
//! and the same exit status.

use std::path::{Path, PathBuf};
use std::process::{Command, Output, Stdio};
use std::sync::OnceLock;

fn manifest_dir() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

/// The `lint` binary, built next to `clarify`. Cargo only builds the
/// binaries of the package under test, so this builds clarify-lint's
/// shim into the same target directory and profile (a no-op when fresh).
fn lint_bin() -> &'static Path {
    static BIN: OnceLock<PathBuf> = OnceLock::new();
    BIN.get_or_init(|| {
        let dir = Path::new(env!("CARGO_BIN_EXE_clarify"))
            .parent()
            .expect("binary has a directory");
        let profile = match dir.file_name().and_then(|n| n.to_str()) {
            Some("debug") | None => "dev",
            Some(p) => p,
        };
        let target_dir = dir.parent().expect("profile dir has a target dir");
        let status = Command::new(env!("CARGO"))
            .current_dir(manifest_dir())
            .args([
                "build",
                "--quiet",
                "--offline",
                "-p",
                "clarify-lint",
                "--bin",
                "lint",
            ])
            .args(["--profile", profile, "--target-dir"])
            .arg(target_dir)
            .status()
            .expect("cargo runs");
        assert!(status.success(), "building the lint binary failed");
        dir.join(format!("lint{}", std::env::consts::EXE_SUFFIX))
    })
}

fn run(program: &Path, prefix: &[&str], args: &[&str]) -> Output {
    Command::new(program)
        .current_dir(manifest_dir())
        .args(prefix)
        .args(args)
        .stdin(Stdio::null())
        .output()
        .expect("binary runs")
}

#[test]
fn clarify_lint_and_lint_agree_on_stdout_and_exit_status() {
    for args in [
        &["--strict", "testdata/isp_out.cfg"][..],
        &["--format", "json", "testdata/isp_out.cfg"],
        &[
            "--topology",
            "testdata/e1_topology.txt",
            "--format",
            "sarif",
        ],
    ] {
        let clarify = run(Path::new(env!("CARGO_BIN_EXE_clarify")), &["lint"], args);
        let lint = run(lint_bin(), &[], args);
        assert_eq!(
            String::from_utf8_lossy(&clarify.stdout),
            String::from_utf8_lossy(&lint.stdout),
            "stdout differs for {args:?}"
        );
        assert_eq!(
            clarify.status.code(),
            lint.status.code(),
            "exit status differs for {args:?}; clarify stderr: {}",
            String::from_utf8_lossy(&clarify.stderr)
        );
        assert!(!lint.stdout.is_empty(), "{args:?} printed a report");
    }
}
