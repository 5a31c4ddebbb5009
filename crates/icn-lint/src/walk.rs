//! Workspace traversal: find the first-party source files and lint each.
//!
//! Two entry points: [`scan_workspace`] walks the whole workspace, and
//! [`scan_paths`] lints a user-selected subset of files or directories
//! (the `icn lint [PATH ...]` form CI uses to keep the gate fast). Every
//! rule is per file, so a subset scan reports exactly the full scan's
//! findings for the files it selects.

use std::path::{Path, PathBuf};

use crate::diagnostics::{self, Diagnostic};
use crate::lexer;
use crate::rules::{check_file, FileContext};

/// A failure to read the tree being linted.
#[derive(Debug)]
pub struct WalkError {
    /// The path that could not be read.
    pub path: PathBuf,
    /// The underlying I/O error.
    pub source: std::io::Error,
}

impl core::fmt::Display for WalkError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "cannot read {}: {}", self.path.display(), self.source)
    }
}

impl std::error::Error for WalkError {}

/// Lint every first-party library source file under `root` (a workspace
/// directory laid out like this repository: `crates/<name>/src/**/*.rs`,
/// plus the root package's own `src/`). Test suites, examples, and benches
/// live outside `src/` and are therefore never scanned; `vendor/` is not a
/// workspace member and is skipped by construction.
///
/// Diagnostics come back in stable (file, line, code) order with
/// `/`-separated paths relative to `root`, so output is byte-identical
/// across machines.
///
/// # Errors
/// Returns a [`WalkError`] if a directory or file cannot be read.
pub fn scan_workspace(root: &Path) -> Result<Vec<Diagnostic>, WalkError> {
    let mut srcs: Vec<(PathBuf, String)> = Vec::new();
    for crate_dir in sorted_dir(&root.join("crates"))? {
        srcs.push((crate_dir.join("src"), dir_name(&crate_dir)));
    }
    srcs.push((root.join("src"), dir_name(root)));
    let mut diags = Vec::new();
    for (src, crate_name) in srcs {
        if !src.is_dir() {
            continue;
        }
        let crate_root = src.join("lib.rs");
        for file in rust_files(&src)? {
            let is_crate_root = file == crate_root;
            lint_file(root, &file, crate_name.clone(), is_crate_root, &mut diags)?;
        }
    }
    diagnostics::sort(&mut diags);
    Ok(diags)
}

/// Lint a subset: each path may be a `.rs` file or a directory (recursed,
/// filtered to files under a `src/`). Paths are resolved relative to
/// `root`, which must be the workspace root so crate membership and
/// relative diagnostic paths stay identical to a full scan.
///
/// # Errors
/// Returns a [`WalkError`] if a path does not exist or cannot be read.
pub fn scan_paths(root: &Path, paths: &[PathBuf]) -> Result<Vec<Diagnostic>, WalkError> {
    // Expand the selection to concrete `.rs` files under a `src/`.
    let mut selected: Vec<PathBuf> = Vec::new();
    for p in paths {
        let abs = if p.is_absolute() {
            p.clone()
        } else {
            root.join(p)
        };
        if abs.is_dir() {
            for f in rust_files(&abs)? {
                if rel_slash_path(root, &f).split('/').any(|c| c == "src") {
                    selected.push(f);
                }
            }
        } else if abs.is_file() {
            selected.push(abs);
        } else {
            return Err(WalkError {
                path: abs,
                source: std::io::Error::new(
                    std::io::ErrorKind::NotFound,
                    "no such file or directory",
                ),
            });
        }
    }
    selected.sort();
    selected.dedup();

    let mut diags = Vec::new();
    for f in &selected {
        // Files outside the recognized crate layout (e.g. fixtures given
        // directly) still get the per-file rules, keyed by their parent dir.
        let (crate_name, is_crate_root) = match crate_of(root, f) {
            Some((name, src)) => (name, *f == src.join("lib.rs")),
            None => (f.parent().map_or_else(String::new, dir_name), false),
        };
        lint_file(root, f, crate_name, is_crate_root, &mut diags)?;
    }
    diagnostics::sort(&mut diags);
    Ok(diags)
}

/// Read, lex and lint one source file.
fn lint_file(
    root: &Path,
    file: &Path,
    crate_name: String,
    is_crate_root: bool,
    diags: &mut Vec<Diagnostic>,
) -> Result<(), WalkError> {
    let source = std::fs::read_to_string(file).map_err(|e| WalkError {
        path: file.to_path_buf(),
        source: e,
    })?;
    let ctx = FileContext {
        rel_path: rel_slash_path(root, file),
        crate_name,
        is_crate_root,
    };
    diags.extend(check_file(&ctx, &lexer::lex(&source)));
    Ok(())
}

/// Which crate owns `file`? Returns the crate name and its `src/` dir for
/// `crates/<name>/src/**` files and for the root package's `src/**`.
fn crate_of(root: &Path, file: &Path) -> Option<(String, PathBuf)> {
    let rel = rel_slash_path(root, file);
    let parts: Vec<&str> = rel.split('/').collect();
    if parts.len() >= 4 && parts[0] == "crates" && parts[2] == "src" {
        let name = parts[1].to_string();
        let src = root.join("crates").join(&name).join("src");
        return Some((name, src));
    }
    if parts.len() >= 2 && parts[0] == "src" {
        return Some((dir_name(root), root.join("src")));
    }
    None
}

/// All `.rs` files under `dir`, recursively, in sorted order.
fn rust_files(dir: &Path) -> Result<Vec<PathBuf>, WalkError> {
    let mut files = Vec::new();
    let mut stack = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        for entry in sorted_dir(&d)? {
            if entry.is_dir() {
                stack.push(entry);
            } else if entry.extension().is_some_and(|e| e == "rs") {
                files.push(entry);
            }
        }
    }
    files.sort();
    Ok(files)
}

/// Directory entries in lexicographic order (read_dir order is OS-defined).
fn sorted_dir(dir: &Path) -> Result<Vec<PathBuf>, WalkError> {
    let mut entries: Vec<PathBuf> = std::fs::read_dir(dir)
        .map_err(|e| WalkError {
            path: dir.to_path_buf(),
            source: e,
        })?
        .filter_map(Result::ok)
        .map(|e| e.path())
        .collect();
    entries.sort();
    Ok(entries)
}

fn dir_name(path: &Path) -> String {
    path.file_name()
        .map_or_else(String::new, |n| n.to_string_lossy().into_owned())
}

/// `root`-relative path with `/` separators regardless of platform.
fn rel_slash_path(root: &Path, file: &Path) -> String {
    let rel = file.strip_prefix(root).unwrap_or(file);
    rel.components()
        .map(|c| c.as_os_str().to_string_lossy())
        .collect::<Vec<_>>()
        .join("/")
}
