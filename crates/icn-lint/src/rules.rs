//! The ICN source rules (ICN001–ICN005, ICN203) over a lexed token stream.
//!
//! Each rule keys on identifier/punctuation patterns that are unambiguous at
//! the token level; anything that needs type resolution (e.g. *which* type a
//! `.now()` receiver is, or whether an index expression can panic) is
//! documented as out of scope in DESIGN.md §8 and delegated to clippy or
//! review.

use crate::diagnostics::{Diagnostic, Severity};
use crate::lexer::{LexedFile, Token, TokenKind};

/// Which crate a file belongs to and where it sits, deciding rule scope.
#[derive(Debug, Clone)]
pub struct FileContext {
    /// Path relative to the workspace root, with `/` separators.
    pub rel_path: String,
    /// The owning crate's directory name (e.g. `icn-sim`).
    pub crate_name: String,
    /// Whether this file is the crate root (`src/lib.rs`).
    pub is_crate_root: bool,
}

impl FileContext {
    /// ICN001/ICN003 scope: the deterministic simulation library and the
    /// exploration engine whose output must be byte-identical at any
    /// thread count.
    fn is_sim_library(&self) -> bool {
        self.crate_name == "icn-sim" || self.crate_name == "icn-explore"
    }

    /// ICN203 scope: every `icn-sim` file except `pool.rs`, the crate's
    /// one fan-out.
    fn confines_threads(&self) -> bool {
        self.crate_name == "icn-sim" && !self.rel_path.ends_with("/pool.rs")
    }

    /// ICN002 scope: simulation logic — the engine, the workload/traffic
    /// generators that feed it, and the deterministic exploration engine.
    fn is_simulation_logic(&self) -> bool {
        self.crate_name == "icn-sim"
            || self.crate_name == "icn-workloads"
            || self.crate_name == "icn-explore"
    }
}

/// Run every applicable rule over one lexed file.
#[must_use]
pub fn check_file(ctx: &FileContext, lexed: &LexedFile) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    let tokens = without_test_modules(&lexed.tokens);

    report_malformed_allows(ctx, lexed, &mut diags);
    if ctx.is_sim_library() {
        icn001_no_unordered_iteration(ctx, lexed, &tokens, &mut diags);
        icn003_no_panic_paths(ctx, lexed, &tokens, &mut diags);
    }
    if ctx.is_simulation_logic() {
        icn002_no_ambient_entropy(ctx, lexed, &tokens, &mut diags);
    }
    icn004_no_float_eq(ctx, lexed, &tokens, &mut diags);
    icn005_pub_api_docs(ctx, lexed, &tokens, &mut diags);
    if ctx.confines_threads() {
        icn203_lock_confinement(ctx, lexed, &tokens, &mut diags);
    }
    diags
}

/// Strip the bodies of `#[cfg(test)] mod … { … }` items: tests are allowed
/// to panic, use `HashMap`, and compare floats at will.
fn without_test_modules(tokens: &[Token]) -> Vec<Token> {
    let mut out = Vec::with_capacity(tokens.len());
    let mut i = 0usize;
    while i < tokens.len() {
        if is_cfg_test_attr(tokens, i) {
            // Skip the attribute, any further attributes, the `mod name`,
            // and the brace-matched body.
            let mut j = i;
            while j < tokens.len() && tokens[j].is_punct('#') {
                j = skip_attr(tokens, j);
            }
            if j + 1 < tokens.len() && tokens[j].is_ident("mod") {
                let mut k = j + 2; // past `mod name`
                while k < tokens.len() && !tokens[k].is_punct('{') {
                    k += 1;
                }
                let mut depth = 0i32;
                while k < tokens.len() {
                    if tokens[k].is_punct('{') {
                        depth += 1;
                    } else if tokens[k].is_punct('}') {
                        depth -= 1;
                        if depth == 0 {
                            k += 1;
                            break;
                        }
                    }
                    k += 1;
                }
                i = k;
                continue;
            }
        }
        out.push(tokens[i].clone());
        i += 1;
    }
    out
}

/// Does `#` at index `i` open exactly `#[cfg(test)]`?
fn is_cfg_test_attr(tokens: &[Token], i: usize) -> bool {
    let pat = ["#", "[", "cfg", "(", "test", ")", "]"];
    tokens.len() >= i + pat.len()
        && pat.iter().enumerate().all(|(k, want)| {
            let t = &tokens[i + k];
            t.text == *want && matches!(t.kind, TokenKind::Ident | TokenKind::Punct)
        })
}

/// Given `#` at index `i`, return the index just past its closing `]`.
fn skip_attr(tokens: &[Token], i: usize) -> usize {
    let mut j = i + 1;
    if j >= tokens.len() || !tokens[j].is_punct('[') {
        return i + 1;
    }
    let mut depth = 0i32;
    while j < tokens.len() {
        if tokens[j].is_punct('[') {
            depth += 1;
        } else if tokens[j].is_punct(']') {
            depth -= 1;
            if depth == 0 {
                return j + 1;
            }
        }
        j += 1;
    }
    tokens.len()
}

fn push_unless_allowed(
    ctx: &FileContext,
    lexed: &LexedFile,
    diags: &mut Vec<Diagnostic>,
    code: &'static str,
    line: u32,
    message: String,
    suggestion: &str,
) {
    if lexed.is_allowed(code, line) {
        return;
    }
    diags.push(Diagnostic {
        code: code.to_string(),
        severity: Severity::Error,
        file: ctx.rel_path.clone(),
        line,
        message,
        suggestion: suggestion.to_string(),
    });
}

/// A malformed escape hatch (no `-- reason`) is itself reported: an allow
/// without a recorded justification is indistinguishable from a suppressed
/// bug two PRs later.
fn report_malformed_allows(ctx: &FileContext, lexed: &LexedFile, diags: &mut Vec<Diagnostic>) {
    for allow in &lexed.allows {
        if allow.reason.is_empty() {
            diags.push(Diagnostic {
                code: "ICN000".to_string(),
                severity: Severity::Warning,
                file: ctx.rel_path.clone(),
                line: allow.line,
                message: format!(
                    "allow directive for {} has no `-- reason` and is ignored",
                    allow.codes.join(", ")
                ),
                suggestion: "write `// icn-lint: allow(CODE) -- why this site is exempt`"
                    .to_string(),
            });
        }
    }
}

/// ICN001 `no-unordered-iteration`: `HashMap`/`HashSet` anywhere in the
/// simulation library. Iteration order of the std hash containers is seeded
/// per process, so any iteration silently breaks replay-identical runs; the
/// rule bans the types outright (BTreeMap/BTreeSet/Vec are drop-ins).
fn icn001_no_unordered_iteration(
    ctx: &FileContext,
    lexed: &LexedFile,
    tokens: &[Token],
    diags: &mut Vec<Diagnostic>,
) {
    for t in tokens {
        if t.kind == TokenKind::Ident && (t.text == "HashMap" || t.text == "HashSet") {
            push_unless_allowed(
                ctx,
                lexed,
                diags,
                "ICN001",
                t.line,
                format!("`{}` in the simulation library", t.text),
                "use BTreeMap/BTreeSet (deterministic iteration) or a Vec keyed by index",
            );
        }
    }
}

/// ICN002 `no-ambient-entropy`: wall clocks and OS randomness in simulation
/// logic. Every source of nondeterminism must flow from the seeded config.
fn icn002_no_ambient_entropy(
    ctx: &FileContext,
    lexed: &LexedFile,
    tokens: &[Token],
    diags: &mut Vec<Diagnostic>,
) {
    for (i, t) in tokens.iter().enumerate() {
        if t.kind != TokenKind::Ident {
            continue;
        }
        let hit = match t.text.as_str() {
            "thread_rng" | "from_entropy" | "OsRng" => Some(t.text.clone()),
            "now" if path_prefix_is(tokens, i, "SystemTime") => Some("SystemTime::now".to_string()),
            "now" if path_prefix_is(tokens, i, "Instant") => Some("Instant::now".to_string()),
            "random" if path_prefix_is(tokens, i, "rand") => Some("rand::random".to_string()),
            _ => None,
        };
        if let Some(name) = hit {
            push_unless_allowed(
                ctx,
                lexed,
                diags,
                "ICN002",
                t.line,
                format!("ambient entropy source `{name}` in simulation logic"),
                "derive all randomness and time from the seeded SimConfig (ChaCha8Rng::seed_from_u64, cycle counters)",
            );
        }
    }
}

/// Is token `i` preceded by `prefix::`?
fn path_prefix_is(tokens: &[Token], i: usize, prefix: &str) -> bool {
    i >= 3
        && tokens[i - 1].is_punct(':')
        && tokens[i - 2].is_punct(':')
        && tokens[i - 3].is_ident(prefix)
}

/// ICN003 `no-panic-paths`: `.unwrap()`, `.expect(…)`, and `panic!` in the
/// simulation library. Library callers get typed [`SimError`]s; panics are
/// reserved for tests and for documented invariant sites carrying an
/// explicit allow directive.
///
/// [`SimError`]: https://docs.rs/icn-sim
fn icn003_no_panic_paths(
    ctx: &FileContext,
    lexed: &LexedFile,
    tokens: &[Token],
    diags: &mut Vec<Diagnostic>,
) {
    for (i, t) in tokens.iter().enumerate() {
        if t.kind != TokenKind::Ident {
            continue;
        }
        let called = i >= 1 && (tokens[i - 1].is_punct('.') || tokens[i - 1].is_punct(':'));
        let hit = match t.text.as_str() {
            "unwrap" | "expect" if called => Some(format!("`.{}()`", t.text)),
            "panic" if i + 1 < tokens.len() && tokens[i + 1].is_punct('!') => {
                Some("`panic!`".to_string())
            }
            _ => None,
        };
        if let Some(what) = hit {
            push_unless_allowed(
                ctx,
                lexed,
                diags,
                "ICN003",
                t.line,
                format!("{what} in a library path"),
                "return a typed SimError (or restructure with let-else/if-let so the invariant is local); panicking wrappers need an allow directive naming the invariant",
            );
        }
    }
}

/// ICN004 `no-float-eq`: `==`/`!=` against a non-zero float literal.
/// Exact comparison against a computed float is a correctness hazard; the
/// one idiomatic exception is the exact-zero sentinel (`x == 0.0`), which is
/// well-defined for values that are assigned, never computed.
fn icn004_no_float_eq(
    ctx: &FileContext,
    lexed: &LexedFile,
    tokens: &[Token],
    diags: &mut Vec<Diagnostic>,
) {
    for i in 1..tokens.len() {
        let is_eq = tokens[i].is_punct('=')
            && (tokens[i - 1].is_punct('=') || tokens[i - 1].is_punct('!'))
            // `<=`, `>=`, `+=`, … end in `=` too: the char before must not
            // form a different operator, and `==`'s first char must not
            // close one (`x !== y` is not Rust).
            && (i < 2 || !tokens[i - 2].is_punct('=') && !tokens[i - 2].is_punct('<')
                && !tokens[i - 2].is_punct('>'));
        if !is_eq {
            continue;
        }
        // Right operand may carry a unary minus (`x == -1.5`).
        let right = match tokens.get(i + 1) {
            Some(t) if t.is_punct('-') => tokens.get(i + 2),
            other => other,
        };
        for neighbor in [tokens.get(i.wrapping_sub(2)), right].into_iter().flatten() {
            if neighbor.kind == TokenKind::Float && !is_zero_float(&neighbor.text) {
                push_unless_allowed(
                    ctx,
                    lexed,
                    diags,
                    "ICN004",
                    tokens[i].line,
                    format!("exact float comparison against `{}`", neighbor.text),
                    "compare with an explicit tolerance ((a - b).abs() < eps) or use integer/fixed-point representations",
                );
            }
        }
    }
}

/// ICN203 `lock-confinement`: `Mutex`/`RwLock`/`Condvar` and `spawn(…)`
/// in `icn-sim` outside `pool.rs`. The engine steps on its caller's
/// thread; the crate's one fan-out, `fold_by_worker` (and `ordered_map`
/// on it), lives in `pool.rs`, so a lock or a spawn anywhere else is a
/// second concurrency mechanism.
/// Each (line, name) is reported once.
fn icn203_lock_confinement(
    ctx: &FileContext,
    lexed: &LexedFile,
    tokens: &[Token],
    diags: &mut Vec<Diagnostic>,
) {
    let mut flagged: Vec<(u32, &str)> = Vec::new();
    for (i, t) in tokens.iter().enumerate() {
        if t.kind != TokenKind::Ident {
            continue;
        }
        let what = match t.text.as_str() {
            "Mutex" | "RwLock" | "Condvar" => format!("synchronization primitive `{}`", t.text),
            "spawn" if tokens.get(i + 1).is_some_and(|n| n.is_punct('(')) => {
                "thread spawn".to_string()
            }
            _ => continue,
        };
        if flagged.contains(&(t.line, t.text.as_str())) {
            continue;
        }
        flagged.push((t.line, t.text.as_str()));
        push_unless_allowed(
            ctx,
            lexed,
            diags,
            "ICN203",
            t.line,
            format!("{what} outside pool.rs"),
            "fan out through pool::ordered_map; annotate why a site outside the engine cycle needs its own primitive",
        );
    }
}

/// Is this float literal exactly zero (`0.0`, `0.`, `0e0`, `0_f64`, …)?
fn is_zero_float(text: &str) -> bool {
    let cleaned: String = text
        .chars()
        .filter(|c| *c != '_')
        .take_while(|c| {
            c.is_ascii_digit() || *c == '.' || *c == 'e' || *c == 'E' || *c == '+' || *c == '-'
        })
        .collect();
    cleaned.parse::<f64>().is_ok_and(|v| v == 0.0)
}

/// ICN005 `pub-api-docs`: every source file must carry `//!` module docs,
/// and every externally visible `pub` item must be doc-commented. Mirrors
/// rustc's `missing_docs` semantics: restricted visibility (`pub(crate)`,
/// `pub(super)`) is exempt, and an out-of-line `pub mod name;` is satisfied
/// by the `//!` docs inside the module's own file. (rustc's `missing_docs`
/// is the authoritative type-aware check — the workspace lint table turns
/// it on — but it only fires when the code *compiles*; this rule also
/// covers fixtures and keeps the policy visible in `icn lint` output.)
fn icn005_pub_api_docs(
    ctx: &FileContext,
    lexed: &LexedFile,
    tokens: &[Token],
    diags: &mut Vec<Diagnostic>,
) {
    if !tokens
        .iter()
        .any(|t| t.kind == TokenKind::DocComment && (t.text == "//!" || t.text == "/*!"))
    {
        let what = if ctx.is_crate_root { "crate" } else { "module" };
        push_unless_allowed(
            ctx,
            lexed,
            diags,
            "ICN005",
            1,
            format!("source file has no `//!` {what}-level documentation"),
            "open the file with a `//!` comment saying what it models",
        );
    }
    const ITEM_KEYWORDS: [&str; 9] = [
        "fn", "struct", "enum", "trait", "mod", "type", "const", "static", "union",
    ];
    for (i, t) in tokens.iter().enumerate() {
        if !t.is_ident("pub") {
            continue;
        }
        // Restricted visibility — pub(crate), pub(super), pub(in …) — is
        // not externally visible and needs no docs (missing_docs parity).
        let mut j = i + 1;
        if j < tokens.len() && tokens[j].is_punct('(') {
            continue;
        }
        // Step over qualifiers to the item keyword.
        let mut keyword = None;
        for _ in 0..4 {
            let Some(tok) = tokens.get(j) else { break };
            if ITEM_KEYWORDS.contains(&tok.text.as_str()) && tok.kind == TokenKind::Ident {
                keyword = Some(tok.text.clone());
                break;
            }
            if matches!(tok.text.as_str(), "unsafe" | "async" | "extern")
                || tok.kind == TokenKind::Str
            {
                j += 1;
                continue;
            }
            break;
        }
        let Some(keyword) = keyword else { continue };
        // `pub mod name;` is an out-of-line module: its docs are the `//!`
        // header of its own file, which this rule checks separately.
        if keyword == "mod" && tokens.get(j + 2).is_some_and(|t| t.is_punct(';')) {
            continue;
        }
        if is_documented(tokens, i) {
            continue;
        }
        push_unless_allowed(
            ctx,
            lexed,
            diags,
            "ICN005",
            t.line,
            format!("undocumented `pub {keyword}`"),
            "add a `///` doc comment explaining the item's contract",
        );
    }
}

/// Walk backwards from the `pub` at `i` over attribute groups; documented
/// means a doc comment (or a `#[doc…]`/`#[cfg_attr(…doc…)]` attribute)
/// immediately precedes the item.
fn is_documented(tokens: &[Token], i: usize) -> bool {
    let mut j = i;
    while j > 0 {
        let prev = &tokens[j - 1];
        if prev.kind == TokenKind::DocComment {
            // Only *outer* doc comments document the following item; a
            // `//!`/`/*!` above it documents the enclosing module instead.
            return prev.text == "///" || prev.text == "/**";
        }
        if prev.is_punct(']') {
            // Scan back to the matching `[`; a `doc` ident inside counts.
            let mut depth = 0i32;
            let mut k = j - 1;
            let mut saw_doc = false;
            loop {
                if tokens[k].is_punct(']') {
                    depth += 1;
                } else if tokens[k].is_punct('[') {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                } else if tokens[k].is_ident("doc") {
                    saw_doc = true;
                }
                if k == 0 {
                    return false;
                }
                k -= 1;
            }
            if saw_doc {
                return true;
            }
            // Step past the `#` (and `!` for inner attrs) before the `[`.
            j = k;
            if j > 0 && tokens[j - 1].is_punct('#') {
                j -= 1;
            } else if j > 1 && tokens[j - 1].is_punct('!') && tokens[j - 2].is_punct('#') {
                j -= 2;
            }
            continue;
        }
        return false;
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn ctx(crate_name: &str, root: bool) -> FileContext {
        FileContext {
            rel_path: format!("crates/{crate_name}/src/x.rs"),
            crate_name: crate_name.to_string(),
            is_crate_root: root,
        }
    }

    fn codes(crate_name: &str, src: &str) -> Vec<String> {
        // Every scanned file needs `//!` docs (ICN005); prepend them so the
        // other rules can be exercised in isolation.
        let with_docs = format!("//! Test fixture module.\n{src}");
        check_file(&ctx(crate_name, false), &lex(&with_docs))
            .into_iter()
            .map(|d| d.code)
            .collect()
    }

    #[test]
    fn icn001_fires_only_in_icn_sim() {
        let src = "use std::collections::HashMap;\n";
        assert_eq!(codes("icn-sim", src), vec!["ICN001"]);
        assert!(codes("icn-core", src).is_empty());
    }

    #[test]
    fn icn002_catches_clocks_and_rngs() {
        let src = "let a = thread_rng(); let b = SystemTime::now(); let c = Instant::now();\n";
        assert_eq!(codes("icn-sim", src), vec!["ICN002"; 3]);
        assert_eq!(codes("icn-workloads", src).len(), 3);
        assert!(codes("icn-phys", src).is_empty());
    }

    #[test]
    fn icn002_ignores_unrelated_now() {
        // `.now()` on an engine (a cycle counter) is not a wall clock.
        assert!(codes("icn-sim", "let t = engine.now();\n").is_empty());
    }

    #[test]
    fn icn003_catches_unwrap_expect_panic() {
        assert_eq!(
            codes(
                "icn-sim",
                "let x = o.unwrap(); let y = r.expect(\"msg\"); panic!(\"boom\");\n"
            ),
            vec!["ICN003"; 3]
        );
        // `Option::unwrap` as a path call counts too.
        assert_eq!(
            codes("icn-sim", "let f = Option::unwrap(o);\n"),
            vec!["ICN003"]
        );
    }

    #[test]
    fn icn003_ignores_lookalikes() {
        // unwrap_or / expect-free idents / the #[expect] attribute.
        let src = "let x = o.unwrap_or(0); #[expect(dead_code)] fn f() {}\n";
        assert!(codes("icn-sim", src).is_empty());
    }

    #[test]
    fn icn003_skips_test_modules() {
        let src = "#[cfg(test)]\nmod tests {\n fn f() { o.unwrap(); }\n}\n";
        assert!(codes("icn-sim", src).is_empty());
    }

    #[test]
    fn icn004_flags_nonzero_float_eq_everywhere() {
        assert_eq!(codes("icn-core", "if x == 1.5 {}\n"), vec!["ICN004"]);
        assert_eq!(codes("icn-units", "if 2.0 != y {}\n"), vec!["ICN004"]);
        // The exact-zero sentinel is idiomatic and exempt.
        assert!(codes("icn-core", "if x == 0.0 {}\n").is_empty());
        // Non-float comparisons and other `=` operators don't fire.
        assert!(codes("icn-core", "if x == 15 {} x += 1.5; if y <= 1.5 {}\n").is_empty());
    }

    #[test]
    fn icn005_requires_item_and_crate_docs() {
        let undocumented = "pub fn f() {}\n";
        assert_eq!(codes("icn-core", undocumented), vec!["ICN005"]);
        let documented = "/// Does f things.\npub fn f() {}\n";
        assert!(codes("icn-core", documented).is_empty());
        let attr_between = "/// Docs.\n#[must_use]\npub fn f() -> u32 { 0 }\n";
        assert!(codes("icn-core", attr_between).is_empty());
        let doc_attr = "#[doc = \"generated\"]\npub struct S;\n";
        assert!(codes("icn-core", doc_attr).is_empty());
        // pub use re-exports need no docs.
        assert!(codes("icn-core", "pub use other::Thing;\n").is_empty());
        // Restricted visibility is not externally visible (missing_docs
        // parity): exempt.
        assert!(codes("icn-core", "pub(crate) struct S;\n").is_empty());
        // Out-of-line modules carry their docs as `//!` in their own file…
        assert!(codes("icn-core", "pub mod helpers;\n").is_empty());
        // …but inline modules are items like any other.
        assert_eq!(codes("icn-core", "pub mod helpers { }\n"), vec!["ICN005"]);

        let root = FileContext {
            rel_path: "crates/icn-core/src/lib.rs".to_string(),
            crate_name: "icn-core".to_string(),
            is_crate_root: true,
        };
        let diags = check_file(&root, &lex("fn private() {}\n"));
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].code, "ICN005");
        assert!(check_file(&root, &lex("//! Crate docs.\nfn private() {}\n")).is_empty());
    }

    #[test]
    fn allow_escape_hatch_suppresses_with_reason_only() {
        let with_reason =
            "let x = o.unwrap(); // icn-lint: allow(ICN003) -- invariant: checked above\n";
        assert!(codes("icn-sim", with_reason).is_empty());
        let without_reason = "let x = o.unwrap(); // icn-lint: allow(ICN003)\n";
        // The violation stays AND the malformed directive is reported.
        let got = codes("icn-sim", without_reason);
        assert!(got.contains(&"ICN000".to_string()), "{got:?}");
        assert!(got.contains(&"ICN003".to_string()), "{got:?}");
        let wrong_code = "let x = o.unwrap(); // icn-lint: allow(ICN001) -- not this rule\n";
        assert_eq!(codes("icn-sim", wrong_code), vec!["ICN003"]);
    }

    #[test]
    fn icn203_confines_locks_to_pool_rs() {
        let src = "fn f() { let m = Mutex::new(Mutex::new(0)); thread::spawn(|| {});\n }\n\
                   fn g() { let c = Condvar::new(); let l: RwLock<u8>; scope.spawn; }\n";
        assert_eq!(codes("icn-sim", src), vec!["ICN203"; 4]);
        let pool = FileContext {
            rel_path: "crates/icn-sim/src/pool.rs".to_string(),
            crate_name: "icn-sim".to_string(),
            is_crate_root: false,
        };
        let with_docs = format!("//! The pool.\n{src}");
        assert!(check_file(&pool, &lex(&with_docs)).is_empty());
        assert!(codes("icn-serve", src).is_empty());
        let allowed =
            "// icn-lint: allow(ICN203) -- consumer-side handle, never shared with the engine\n\
                       fn f() { let m = Mutex::new(0); }\n";
        assert!(codes("icn-sim", allowed).is_empty());
        let tests_only = "#[cfg(test)]\nmod tests {\n fn f() { std::thread::spawn(|| {}); }\n}\n";
        assert!(codes("icn-sim", tests_only).is_empty());
    }
}
