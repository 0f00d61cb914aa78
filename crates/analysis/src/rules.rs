//! The rule engine: every invariant `bbgnn-lint` enforces, as token-level
//! scans over one file.
//!
//! Rule catalog (see DESIGN.md §9 for the rationale behind each):
//!
//! | rule | scope | fires on |
//! |---|---|---|
//! | `fma` | numeric-crate library code | `mul_add` (FMA contraction changes bits) |
//! | `hash_iter` | numeric-crate library code | iterating a `HashMap`/`HashSet` (order is seeded per process) |
//! | `clock` | numeric-crate library code; `thread::sleep` everywhere | `Instant::now` / `SystemTime` (wall-clock reads outside `obs`/`bench`); `thread::sleep` anywhere, tests included (inject a sleeper instead) |
//! | `unsafe` | whole workspace | `unsafe` outside `linalg::kernels` and `supervise::signal`; undocumented `unsafe` inside them |
//! | `panic` | all library code | `.unwrap()` / `.expect(` / `panic!` outside tests and binaries |
//! | `obs_name` | library + binary code | a `span!`/`event!`/`counter`/`kernel_timer` name literal absent from the DESIGN.md §8 taxonomy |
//! | `fault_site` | whole workspace | a `fault_at(...)` site literal absent from the DESIGN.md §11 fault-site catalog |
//!
//! Scans are lexical, so they check what is *written*, not what is
//! *executed*: a `HashSet` iterated through a helper in another crate or a
//! clock read behind a type alias will not fire. The dynamic CI jobs
//! (Miri, ThreadSanitizer, the 1-vs-N reproducibility diff) cover what a
//! lexer cannot see; the lint covers what a human reviewer would otherwise
//! re-derive from DESIGN.md §7–§8 on every PR.

use crate::allow::{apply_allows, parse_allows};
use crate::lexer::{lex, Lexed, Tok, TokKind};
use crate::parse::test_token_mask;
use crate::taxonomy::Taxonomy;

/// Crates whose library code carries the bitwise-determinism contract
/// (DESIGN.md §7): every numeric decision must be reproducible across
/// thread counts, processes, and tracing on/off.
pub const NUMERIC_CRATES: [&str; 5] = ["linalg", "autodiff", "gnn", "attack", "defense"];

/// The files allowed to contain `unsafe` (with a `// SAFETY:` comment per
/// block): the AVX2 dispatch sites of the kernel layer and the `signal(2)`
/// FFI binding of the supervision layer.
pub const UNSAFE_ALLOWED_FILES: [&str; 2] = [
    "crates/linalg/src/kernels.rs",
    "crates/supervise/src/signal.rs",
];

/// Identifier of one lint rule.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Rule {
    Fma,
    HashIter,
    Clock,
    Unsafe,
    Panic,
    ObsName,
    FaultSite,
    /// Graph rule (see [`crate::flow`]): unsupervised loop over kernel work.
    CheckSite,
    /// Graph rule: store key missing a config field.
    KeyFields,
    /// Graph rule: §8 taxonomy name no workspace code can emit.
    DeadTaxonomy,
    /// Graph rule: allocation in a kernel hot region.
    HotAlloc,
    /// Meta-rule: a malformed `lint: allow(...)` directive.
    LintAllow,
}

impl Rule {
    /// Rule names as written in `lint: allow(<name>)`.
    pub const KNOWN: [&'static str; 11] = [
        "fma",
        "hash_iter",
        "clock",
        "unsafe",
        "panic",
        "obs_name",
        "fault_site",
        "check_site",
        "key_fields",
        "dead_taxonomy",
        "hot_alloc",
    ];

    pub fn name(self) -> &'static str {
        match self {
            Rule::Fma => "fma",
            Rule::HashIter => "hash_iter",
            Rule::Clock => "clock",
            Rule::Unsafe => "unsafe",
            Rule::Panic => "panic",
            Rule::ObsName => "obs_name",
            Rule::FaultSite => "fault_site",
            Rule::CheckSite => "check_site",
            Rule::KeyFields => "key_fields",
            Rule::DeadTaxonomy => "dead_taxonomy",
            Rule::HotAlloc => "hot_alloc",
            Rule::LintAllow => "lint_allow",
        }
    }

    pub fn from_name(name: &str) -> Option<Self> {
        match name {
            "fma" => Some(Rule::Fma),
            "hash_iter" => Some(Rule::HashIter),
            "clock" => Some(Rule::Clock),
            "unsafe" => Some(Rule::Unsafe),
            "panic" => Some(Rule::Panic),
            "obs_name" => Some(Rule::ObsName),
            "fault_site" => Some(Rule::FaultSite),
            "check_site" => Some(Rule::CheckSite),
            "key_fields" => Some(Rule::KeyFields),
            "dead_taxonomy" => Some(Rule::DeadTaxonomy),
            "hot_alloc" => Some(Rule::HotAlloc),
            _ => None,
        }
    }
}

/// One finding, pointing at a file and 1-based line.
#[derive(Clone, Debug)]
pub struct Violation {
    pub file: String,
    pub line: u32,
    pub rule: Rule,
    pub msg: String,
}

impl Violation {
    pub fn new(file: &str, line: u32, rule: Rule, msg: String) -> Self {
        Violation {
            file: file.to_string(),
            line,
            rule,
            msg,
        }
    }

    /// `path:line: [rule] message` — the report format, clickable in most
    /// terminals and editors.
    pub fn render(&self) -> String {
        format!(
            "{}:{}: [{}] {}",
            self.file,
            self.line,
            self.rule.name(),
            self.msg
        )
    }
}

/// Where a file sits in the workspace, derived from its relative path.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FileKind {
    /// `crates/<k>/src/**` (not `src/bin`): rules for library code apply.
    Lib,
    /// `crates/<k>/src/bin/**`: binaries may unwrap CLI errors freely.
    Bin,
    /// Test, bench, or example code — only the `unsafe` rule applies.
    TestLike,
}

/// Path-derived classification consumed by the rule scopes.
#[derive(Clone, Debug)]
pub struct FileInfo {
    /// `crates/<k>/...` crate name, if any.
    pub krate: Option<String>,
    pub kind: FileKind,
}

/// Classifies a workspace-relative, forward-slash path.
pub fn classify(rel_path: &str) -> FileInfo {
    let parts: Vec<&str> = rel_path.split('/').collect();
    if parts.first() == Some(&"crates") && parts.len() >= 3 {
        let krate = Some(parts[1].to_string());
        let kind = match parts[2] {
            "src" if parts.get(3) == Some(&"bin") => FileKind::Bin,
            "src" if parts.get(3) == Some(&"main.rs") => FileKind::Bin,
            "src" => FileKind::Lib,
            _ => FileKind::TestLike, // tests/, benches/, examples/
        };
        return FileInfo { krate, kind };
    }
    FileInfo {
        krate: None,
        kind: FileKind::TestLike,
    }
}

/// Result of linting one file.
#[derive(Debug, Default)]
pub struct FileReport {
    pub violations: Vec<Violation>,
    pub allows_used: usize,
}

fn ident_at(toks: &[Tok], i: usize) -> Option<&str> {
    toks.get(i)
        .filter(|t| t.kind == TokKind::Ident)
        .map(|t| t.text.as_str())
}

fn punct_at(toks: &[Tok], i: usize) -> Option<char> {
    toks.get(i)
        .filter(|t| t.kind == TokKind::Punct)
        .and_then(|t| t.text.chars().next())
}

fn is_ident(toks: &[Tok], i: usize, s: &str) -> bool {
    ident_at(toks, i) == Some(s)
}

fn is_punct(toks: &[Tok], i: usize, c: char) -> bool {
    punct_at(toks, i) == Some(c)
}

/// Identifiers bound (via `let` / `let mut`) to a statement mentioning
/// `HashMap` or `HashSet` anywhere — type annotation, `::new()`,
/// `::with_capacity`, or a turbofished `collect`.
fn hashy_bindings(toks: &[Tok]) -> Vec<String> {
    let mut names = Vec::new();
    let mut i = 0usize;
    while i < toks.len() {
        if !is_ident(toks, i, "let") {
            i += 1;
            continue;
        }
        let mut j = i + 1;
        if is_ident(toks, j, "mut") {
            j += 1;
        }
        let Some(name) = ident_at(toks, j) else {
            i = j;
            continue;
        };
        // `let Some(x) = ...`, `let (a, b) = ...`: not a simple binding.
        if is_punct(toks, j + 1, '(') {
            i = j + 1;
            continue;
        }
        // Scan the statement (to `;` at depth 0, capped) for hash types.
        let mut depth = 0isize;
        let mut hashy = false;
        let mut k = j + 1;
        let cap = (j + 200).min(toks.len());
        while k < cap {
            match punct_at(toks, k) {
                Some('(') | Some('[') | Some('{') => depth += 1,
                Some(')') | Some(']') | Some('}') => depth -= 1,
                Some(';') if depth <= 0 => break,
                _ => {
                    if matches!(ident_at(toks, k), Some("HashMap") | Some("HashSet")) {
                        hashy = true;
                    }
                }
            }
            k += 1;
        }
        if hashy {
            names.push(name.to_string());
        }
        i = k;
    }
    names
}

/// Methods that iterate a collection in storage order.
const ITERATING_METHODS: [&str; 8] = [
    "iter",
    "iter_mut",
    "into_iter",
    "keys",
    "values",
    "values_mut",
    "drain",
    "retain",
];

/// Lints one file. `rel_path` must be workspace-relative with forward
/// slashes; `tax` is the parsed DESIGN.md §8 taxonomy.
pub fn lint_source(rel_path: &str, src: &str, tax: &Taxonomy) -> FileReport {
    lint_lexed(rel_path, &lex(src), tax)
}

/// Lints an already-lexed file — the workspace walk lexes each file once
/// and feeds the same token stream to this per-file pass and to the
/// symbol-graph builder ([`crate::symbols::Model::build`]).
pub fn lint_lexed(rel_path: &str, lx: &Lexed, tax: &Taxonomy) -> FileReport {
    let info = classify(rel_path);
    let toks = &lx.toks;
    let mask = test_token_mask(toks);
    let mut v: Vec<Violation> = Vec::new();

    let numeric_lib = info.kind == FileKind::Lib
        && info
            .krate
            .as_deref()
            .is_some_and(|k| NUMERIC_CRATES.contains(&k));

    // --- determinism: fma + clock -----------------------------------------
    if numeric_lib {
        for (i, t) in toks.iter().enumerate() {
            if mask[i] || t.kind != TokKind::Ident {
                continue;
            }
            match t.text.as_str() {
                "mul_add" => v.push(Violation::new(
                    rel_path,
                    t.line,
                    Rule::Fma,
                    "mul_add fuses the multiply-add (different rounding than mul then add); \
                     the §7 bitwise-determinism contract forbids FMA in numeric paths"
                        .to_string(),
                )),
                "Instant"
                    if is_punct(toks, i + 1, ':')
                        && is_punct(toks, i + 2, ':')
                        && is_ident(toks, i + 3, "now") =>
                {
                    v.push(Violation::new(
                        rel_path,
                        t.line,
                        Rule::Clock,
                        "Instant::now in a numeric crate — clock reads belong in crates/obs \
                         and crates/bench; wall-clock reporting must never branch numerics"
                            .to_string(),
                    ));
                }
                "SystemTime" if is_punct(toks, i + 1, ':') && is_punct(toks, i + 2, ':') => {
                    v.push(Violation::new(
                        rel_path,
                        t.line,
                        Rule::Clock,
                        "SystemTime in a numeric crate — clock reads belong in crates/obs \
                         and crates/bench"
                            .to_string(),
                    ));
                }
                _ => {}
            }
        }

        // --- determinism: hash_iter ---------------------------------------
        let hashy = hashy_bindings(toks);
        let is_hashy = |name: &str| hashy.iter().any(|h| h == name);
        for i in 0..toks.len() {
            if mask[i] {
                continue;
            }
            // set.iter() / map.keys() / set.drain(..) ...
            if let Some(name) = ident_at(toks, i) {
                if is_hashy(name) && is_punct(toks, i + 1, '.') {
                    if let Some(m) = ident_at(toks, i + 2) {
                        if ITERATING_METHODS.contains(&m) && !is_punct(toks, i.wrapping_sub(1), '.')
                        {
                            v.push(Violation::new(
                                rel_path,
                                toks[i].line,
                                Rule::HashIter,
                                format!(
                                    "`{name}.{m}(...)` iterates a HashMap/HashSet — iteration \
                                     order is seeded per process; use a sorted Vec (or keep the \
                                     hash collection for membership only)"
                                ),
                            ));
                        }
                    }
                }
            }
            // out.extend(set) / out.extend(&set)
            if is_ident(toks, i, "extend") && is_punct(toks, i + 1, '(') {
                let mut j = i + 2;
                if is_punct(toks, j, '&') {
                    j += 1;
                }
                if is_ident(toks, j, "mut") {
                    j += 1;
                }
                if let Some(name) = ident_at(toks, j) {
                    if is_hashy(name) && is_punct(toks, j + 1, ')') {
                        v.push(Violation::new(
                            rel_path,
                            toks[i].line,
                            Rule::HashIter,
                            format!(
                                "`.extend({name})` drains a HashMap/HashSet in seeded storage \
                                 order — collect into a Vec in insertion order instead"
                            ),
                        ));
                    }
                }
            }
            // for x in set { ... } / for x in &set { ... }
            if is_ident(toks, i, "for") {
                let cap = (i + 40).min(toks.len());
                for j in i + 1..cap {
                    if is_punct(toks, j, '{') {
                        break;
                    }
                    if is_ident(toks, j, "in") {
                        let mut k = j + 1;
                        if is_punct(toks, k, '&') {
                            k += 1;
                        }
                        if is_ident(toks, k, "mut") {
                            k += 1;
                        }
                        if let Some(name) = ident_at(toks, k) {
                            if is_hashy(name) && is_punct(toks, k + 1, '{') {
                                v.push(Violation::new(
                                    rel_path,
                                    toks[i].line,
                                    Rule::HashIter,
                                    format!(
                                        "`for _ in {name}` iterates a HashMap/HashSet — \
                                         iteration order is seeded per process"
                                    ),
                                ));
                            }
                        }
                        break;
                    }
                }
            }
        }
    }

    // --- clock: thread::sleep, everywhere (tests included) -----------------
    // Real sleeps belong behind the one injectable-sleeper seam
    // (scenario's default_sleeper, injected through Job::with_sleeper and
    // FaultRunner::with_sleeper); everything else — and every test — uses
    // the injected clock, so the scan deliberately ignores the test-token
    // mask.
    for (i, t) in toks.iter().enumerate() {
        if t.kind != TokKind::Ident || t.text != "thread" {
            continue;
        }
        if is_punct(toks, i + 1, ':')
            && is_punct(toks, i + 2, ':')
            && is_ident(toks, i + 3, "sleep")
        {
            v.push(Violation::new(
                rel_path,
                t.line,
                Rule::Clock,
                "thread::sleep — real sleeps hide behind the one injectable-sleeper seam \
                 (scenario::job::default_sleeper, replaced via Job::with_sleeper or \
                 FaultRunner::with_sleeper); tests must inject a virtual clock instead of \
                 burning wall-clock time (DESIGN.md §9)"
                    .to_string(),
            ));
        }
    }

    // --- unsafe hygiene ----------------------------------------------------
    for t in toks.iter() {
        if t.kind != TokKind::Ident || t.text != "unsafe" {
            continue;
        }
        if !UNSAFE_ALLOWED_FILES.contains(&rel_path) {
            v.push(Violation::new(
                rel_path,
                t.line,
                Rule::Unsafe,
                format!(
                    "`unsafe` is forbidden outside {} — they are the only audited unsafe \
                     surfaces (DESIGN.md §7, §11)",
                    UNSAFE_ALLOWED_FILES.join(" and ")
                ),
            ));
        } else if !has_safety_comment(lx, t.line) {
            v.push(Violation::new(
                rel_path,
                t.line,
                Rule::Unsafe,
                "`unsafe` without a `// SAFETY:` comment — state the disjointness / in-bounds \
                 argument the block relies on"
                    .to_string(),
            ));
        }
    }

    // --- panic paths ---------------------------------------------------
    if info.kind == FileKind::Lib {
        for (i, t) in toks.iter().enumerate() {
            if mask[i] || t.kind != TokKind::Ident {
                continue;
            }
            match t.text.as_str() {
                "unwrap" | "expect"
                    if is_punct(toks, i.wrapping_sub(1), '.') && is_punct(toks, i + 1, '(') =>
                {
                    v.push(Violation::new(
                        rel_path,
                        t.line,
                        Rule::Panic,
                        format!(
                            ".{}() in library code — route the failure through BbgnnError \
                             (crates/errors) or justify with lint: allow(panic)",
                            t.text
                        ),
                    ));
                }
                "panic" if is_punct(toks, i + 1, '!') => {
                    v.push(Violation::new(
                        rel_path,
                        t.line,
                        Rule::Panic,
                        "panic! in library code — return a BbgnnError or justify with \
                         lint: allow(panic)"
                            .to_string(),
                    ));
                }
                _ => {}
            }
        }
    }

    // --- obs name taxonomy ----------------------------------------------
    if matches!(info.kind, FileKind::Lib | FileKind::Bin) {
        for (i, t) in toks.iter().enumerate() {
            if mask[i] || t.kind != TokKind::Ident {
                continue;
            }
            let (name_tok, kind) = match t.text.as_str() {
                "span" | "event" if is_punct(toks, i + 1, '!') && is_punct(toks, i + 2, '(') => {
                    (toks.get(i + 3), t.text.as_str())
                }
                "counter" if is_punct(toks, i + 1, '(') => (toks.get(i + 2), "counter"),
                "kernel_timer" if is_punct(toks, i + 1, '(') => (toks.get(i + 2), "kernel_timer"),
                _ => continue,
            };
            let Some(name_tok) = name_tok.filter(|n| n.kind == TokKind::Str) else {
                continue; // dynamic name — checked at runtime by trace_report
            };
            let name = &name_tok.text;
            let ok = match kind {
                "span" => tax.span_ok(name),
                "event" => tax.event_ok(name),
                "counter" => tax.counter_ok(name),
                _ => tax.kernel_ok(name),
            };
            if !ok {
                v.push(Violation::new(
                    rel_path,
                    name_tok.line,
                    Rule::ObsName,
                    format!(
                        "{kind} name {name:?} is not in the DESIGN.md §8 taxonomy — add it to \
                         the doc's bullet list or fix the name (docs and code must not drift)"
                    ),
                ));
            }
        }
    }

    // --- fault-site catalog (whole workspace, tests included) -------------
    // Every `fault_at("...")` literal must name a DESIGN.md §11 catalog
    // entry: an uncataloged site can never be reached by a BBGNN_FAULTS
    // plan (`fault::install` rejects it), so it is dead chaos coverage.
    // Dynamic site expressions are checked at install time instead.
    for (i, t) in toks.iter().enumerate() {
        if t.kind != TokKind::Ident || t.text != "fault_at" || !is_punct(toks, i + 1, '(') {
            continue;
        }
        let Some(name_tok) = toks.get(i + 2).filter(|n| n.kind == TokKind::Str) else {
            continue;
        };
        if !tax.fault_site_ok(&name_tok.text) {
            v.push(Violation::new(
                rel_path,
                name_tok.line,
                Rule::FaultSite,
                format!(
                    "fault site {:?} is not in the DESIGN.md §11 catalog — add it to the \
                     catalog bullet and supervise::fault::FAULT_SITES, or fix the name \
                     (an uncataloged site is unreachable by any BBGNN_FAULTS plan)",
                    name_tok.text
                ),
            ));
        }
    }

    // --- apply allowlist -------------------------------------------------
    let (mut allows, mut bad_allows) = parse_allows(rel_path, lx);
    let (mut kept, allows_used) = apply_allows(v, &mut allows);
    kept.append(&mut bad_allows);
    kept.sort_by_key(|x| x.line);
    FileReport {
        violations: kept,
        allows_used,
    }
}

/// True if the contiguous comment block directly above `line` (skipping
/// blank and attribute-only lines) or a trailing comment on `line` itself
/// contains `SAFETY`.
fn has_safety_comment(lx: &Lexed, line: u32) -> bool {
    if lx.comment_text_on(line).contains("SAFETY") {
        return true;
    }
    let mut l = line.saturating_sub(1);
    for _ in 0..25 {
        if l == 0 {
            return false;
        }
        if lx.line_has_comment(l) && lx.comment_text_on(l).contains("SAFETY") {
            return true;
        }
        if lx.line_has_code(l) {
            // Attribute lines (`#[target_feature(...)]`) may sit between
            // the SAFETY comment and the unsafe fn; anything else ends the
            // upward scan.
            let first = lx.toks.iter().find(|t| t.line == l);
            match first {
                Some(t) if t.text == "#" => {}
                _ => return false,
            }
        }
        l -= 1;
    }
    false
}
