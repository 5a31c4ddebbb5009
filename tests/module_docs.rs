//! ICN005's file half: every first-party source file opens with `//!`
//! docs saying what it models. rustc's `missing_docs` checks public items
//! only, so it cannot see a private module without them.

use std::path::{Path, PathBuf};

/// Every `.rs` file under `dir`, recursively.
fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in std::fs::read_dir(dir).expect("source directory reads") {
        let path = entry.expect("directory entry reads").path();
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|ext| ext == "rs") {
            out.push(path);
        }
    }
}

#[test]
fn every_source_file_opens_with_module_docs() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files = Vec::new();
    rust_files(&root.join("src"), &mut files);
    for krate in std::fs::read_dir(root.join("crates")).expect("crates/ reads") {
        rust_files(
            &krate.expect("crate entry reads").path().join("src"),
            &mut files,
        );
    }
    assert!(files.len() > 20, "found only {} source files", files.len());
    let undocumented: Vec<_> = files
        .iter()
        .filter(|f| !std::fs::read_to_string(f).is_ok_and(|s| s.starts_with("//!")))
        .collect();
    assert!(
        undocumented.is_empty(),
        "no leading `//!`: {undocumented:?}"
    );
}
