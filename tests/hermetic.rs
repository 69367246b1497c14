//! The zero-dependency guarantee: every manifest in the workspace may
//! depend only on sibling path crates, never on crates.io. This is what
//! lets `cargo build --offline` work on a machine that has never had
//! network access.

use std::fs;
use std::path::{Path, PathBuf};

/// All Cargo.toml files in the workspace: the root manifest plus one per
/// crate under `crates/`.
fn workspace_manifests() -> Vec<PathBuf> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut out = vec![root.join("Cargo.toml")];
    let crates = root.join("crates");
    for entry in fs::read_dir(&crates).expect("crates/ exists") {
        let dir = entry.expect("readable dir entry").path();
        let manifest = dir.join("Cargo.toml");
        if manifest.is_file() {
            out.push(manifest);
        }
    }
    assert!(out.len() >= 11, "expected the full workspace, got {out:?}");
    out
}

/// Returns the entries of every `*dependencies*` table in the manifest as
/// `(section, line)` pairs, using a minimal TOML section scan (no TOML
/// crate — that would itself be an external dependency).
fn dependency_lines(text: &str) -> Vec<(String, String)> {
    let mut out = Vec::new();
    let mut section = String::new();
    for raw in text.lines() {
        let line = raw.trim();
        if line.starts_with('[') && line.ends_with(']') {
            section = line.trim_matches(['[', ']']).to_string();
            continue;
        }
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        if section.ends_with("dependencies") {
            out.push((section.clone(), line.to_string()));
        }
    }
    out
}

#[test]
fn every_dependency_is_a_workspace_path_crate() {
    for manifest in workspace_manifests() {
        let text = fs::read_to_string(&manifest).expect("manifest reads");
        for (section, line) in dependency_lines(&text) {
            let ok = line.contains("path = \"")
                || line.contains(".workspace = true")
                || line.contains("workspace = true");
            assert!(
                ok,
                "{}: [{}] entry `{}` is not a path/workspace dependency — \
                 external crates break the offline build",
                manifest.display(),
                section,
                line,
            );
        }
    }
}

#[test]
fn workspace_dependency_table_only_names_local_crates() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let text = fs::read_to_string(root.join("Cargo.toml")).expect("root manifest");
    for (section, line) in dependency_lines(&text) {
        if section != "workspace.dependencies" {
            continue;
        }
        let (name, spec) = line.split_once('=').expect("key = value");
        assert!(
            name.trim().starts_with("clarify-"),
            "workspace dependency `{name}` is not a clarify-* crate"
        );
        assert!(
            spec.contains("path = \"crates/"),
            "workspace dependency `{name}` must point into crates/: {spec}"
        );
    }
}

#[test]
fn banned_external_crates_never_reappear() {
    // The crates this workspace deliberately replaced with in-repo
    // equivalents (clarify-rng, clarify-testkit). Keep the list in sync
    // with DESIGN.md §5.
    const BANNED: [&str; 3] = ["rand", "proptest", "criterion"];
    for manifest in workspace_manifests() {
        let text = fs::read_to_string(&manifest).expect("manifest reads");
        for (section, line) in dependency_lines(&text) {
            let name = line.split('=').next().unwrap_or("").trim();
            assert!(
                !BANNED.contains(&name),
                "{}: [{}] resurrects banned dependency `{}`",
                manifest.display(),
                section,
                name,
            );
        }
    }
}

/// The Rust files under `dir` (recursively), except unit-test modules
/// named `tests.rs`.
fn non_test_sources(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    for entry in entries {
        let path = entry.expect("readable dir entry").path();
        if path.is_dir() {
            non_test_sources(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs")
            && path.file_name().is_some_and(|n| n != "tests.rs")
        {
            out.push(path);
        }
    }
}

/// Whether `text` holds `ident` as a whole identifier.
fn names(text: &str, ident: &str) -> bool {
    let is_ident = |c: char| c.is_alphanumeric() || c == '_';
    text.match_indices(ident).any(|(at, _)| {
        !text[..at].ends_with(is_ident) && !text[at + ident.len()..].starts_with(is_ident)
    })
}

#[test]
fn every_clarify_dependency_is_named_by_its_crate() {
    // A manifest edge the code never names still orders builds and widens
    // what a change rebuilds; the crate graph should be what the code uses.
    for manifest in workspace_manifests() {
        let dir = manifest.parent().expect("manifest has a directory");
        let mut files = Vec::new();
        non_test_sources(&dir.join("src"), &mut files);
        non_test_sources(&dir.join("benches"), &mut files);
        let code: String = files
            .iter()
            .map(|f| fs::read_to_string(f).expect("source reads"))
            .collect();
        let text = fs::read_to_string(&manifest).expect("manifest reads");
        for (section, line) in dependency_lines(&text) {
            let name = line.split(['.', '=', ' ']).next().unwrap_or("");
            if section != "dependencies" || !name.starts_with("clarify-") {
                continue;
            }
            assert!(
                names(&code, &name.replace('-', "_")),
                "{}: [dependencies] names `{name}`, but no file under src/ or \
                 benches/ outside tests.rs uses it",
                manifest.display(),
            );
        }
    }
}
