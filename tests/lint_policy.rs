//! The lint policy's entries stay in place. An `#[expect(lint)]` turns its
//! lint on at that site, so every waiver stays fulfilled and clippy stays
//! green if a rule's entry is deleted: only a check on the entries
//! themselves notices.

use std::path::Path;

/// The non-comment lines of `[section]` in a TOML file's text, trimmed.
fn section<'a>(toml: &'a str, section: &str) -> Vec<&'a str> {
    let header = format!("[{section}]");
    toml.lines()
        .map(str::trim)
        .skip_while(|line| *line != header)
        .skip(1)
        .take_while(|line| !line.starts_with('['))
        .filter(|line| !line.is_empty() && !line.starts_with('#'))
        .collect()
}

/// The value `key` is set to in `lines` (`key = value`), if any.
fn value<'a>(lines: &[&'a str], key: &str) -> Option<&'a str> {
    lines.iter().find_map(|line| {
        let (k, v) = line.split_once('=')?;
        (k.trim() == key).then(|| v.trim())
    })
}

#[test]
fn workspace_lint_table_keeps_its_rules() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let manifest = std::fs::read_to_string(root.join("Cargo.toml")).expect("Cargo.toml reads");
    let rust = section(&manifest, "workspace.lints.rust");
    let clippy = section(&manifest, "workspace.lints.clippy");
    for (lines, key, level) in [
        (&rust, "unsafe_code", "\"forbid\""),
        (&rust, "missing_docs", "\"warn\""),
        (&clippy, "float_cmp", "\"warn\""),
        (&clippy, "allow_attributes_without_reason", "\"warn\""),
    ] {
        assert_eq!(
            value(lines, key),
            Some(level),
            "[workspace.lints] must set {key} = {level}"
        );
    }
}

#[test]
fn panicking_crates_keep_their_unwrap_rules() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    for krate in ["icn-sim", "icn-explore"] {
        let lib = std::fs::read_to_string(root.join("crates").join(krate).join("src/lib.rs"))
            .expect("lib.rs reads");
        assert!(
            lib.lines().any(|line| line.trim()
                == "#![warn(clippy::unwrap_used, clippy::expect_used, clippy::panic)]"),
            "{krate}'s lib.rs lost its unwrap/expect/panic rules"
        );
    }
}
