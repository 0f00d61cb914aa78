//! The DESIGN.md §8 span/event/counter/kernel-timer name taxonomy, parsed
//! from the document itself.
//!
//! The obs layer's names are documented as a bullet list in DESIGN.md §8
//! ("Span & counter taxonomy"). Rather than maintaining a second copy of
//! that list in code — which would drift — both consumers parse the doc:
//!
//! * `bbgnn-lint`'s `obs_name` rule checks every `span!` / `event!` /
//!   `counter` / `kernel_timer` **name literal** in the workspace against
//!   the taxonomy at lint time;
//! * `bbgnn_bench::trace` validates the counter and kernel-timer names in
//!   a recorded trace at `trace_report` time.
//!
//! The document is embedded at compile time (`include_str!`), so editing
//! DESIGN.md §8 recompiles and re-checks both.
//!
//! Grammar of a taxonomy item: backtick-quoted, `/`-separated segments.
//! `<placeholder>` segments match any single segment (`attack/<name>`
//! matches `attack/peega_parallel`), and `{a,b}` brace alternation expands
//! (`kernel/{matmul,spmm}` is two names). Backticked items without a `/`
//! (prose like `layer/detail` lives outside the bullet block) are ignored.

/// The DESIGN.md source this build was compiled against.
pub const DESIGN_MD: &str = include_str!(concat!(env!("CARGO_MANIFEST_DIR"), "/../../DESIGN.md"));

/// One `/`-separated name pattern. Carries its source text and DESIGN.md
/// line so the `dead_taxonomy` flow rule can anchor "declared but never
/// emitted" findings at the declaration site.
#[derive(Clone, Debug, Eq)]
pub struct Pattern {
    segs: Vec<Seg>,
    /// The item as written in the doc (post brace-expansion).
    pub text: String,
    /// 1-based DESIGN.md line the item was parsed from (0 for patterns
    /// built outside the doc, e.g. in tests).
    pub line: u32,
}

/// Equality is by shape only — the same name declared twice (e.g. once
/// per brace alternation) deduplicates regardless of source line.
impl PartialEq for Pattern {
    fn eq(&self, other: &Self) -> bool {
        self.segs == other.segs
    }
}

#[derive(Clone, Debug, PartialEq, Eq)]
enum Seg {
    Lit(String),
    Any,
}

impl Pattern {
    fn parse_at(item: &str, line: u32) -> Self {
        let segs = item
            .split('/')
            .map(|s| {
                if s.starts_with('<') && s.ends_with('>') {
                    Seg::Any
                } else {
                    Seg::Lit(s.to_string())
                }
            })
            .collect();
        Pattern {
            segs,
            text: item.to_string(),
            line,
        }
    }

    /// True if `name` has the same number of segments and every literal
    /// segment matches.
    pub fn matches(&self, name: &str) -> bool {
        let parts: Vec<&str> = name.split('/').collect();
        parts.len() == self.segs.len()
            && self.segs.iter().zip(&parts).all(|(seg, part)| match seg {
                Seg::Any => !part.is_empty(),
                Seg::Lit(l) => l == part,
            })
    }
}

/// The parsed taxonomy: one pattern list per record kind, plus the §11
/// fault-site catalog (exact names, no placeholders — the catalog is
/// closed by design).
#[derive(Clone, Debug, Default)]
pub struct Taxonomy {
    pub spans: Vec<Pattern>,
    pub events: Vec<Pattern>,
    pub counters: Vec<Pattern>,
    pub kernels: Vec<Pattern>,
    pub fault_sites: Vec<String>,
}

impl Taxonomy {
    pub fn span_ok(&self, name: &str) -> bool {
        self.spans.iter().any(|p| p.matches(name))
    }
    pub fn event_ok(&self, name: &str) -> bool {
        self.events.iter().any(|p| p.matches(name))
    }
    pub fn counter_ok(&self, name: &str) -> bool {
        self.counters.iter().any(|p| p.matches(name))
    }
    pub fn kernel_ok(&self, name: &str) -> bool {
        self.kernels.iter().any(|p| p.matches(name))
    }
    pub fn fault_site_ok(&self, name: &str) -> bool {
        self.fault_sites.iter().any(|s| s == name)
    }
}

/// Expands one level of `{a,b,c}` alternation. Items without braces pass
/// through unchanged.
fn brace_expand(item: &str) -> Vec<String> {
    match (item.find('{'), item.find('}')) {
        (Some(open), Some(close)) if open < close => {
            let prefix = &item[..open];
            let suffix = &item[close + 1..];
            item[open + 1..close]
                .split(',')
                .map(|alt| format!("{prefix}{}{suffix}", alt.trim()))
                .collect()
        }
        _ => vec![item.to_string()],
    }
}

/// Extracts every backtick-quoted item from `line`.
fn backticked(line: &str) -> Vec<&str> {
    let mut out = Vec::new();
    let mut rest = line;
    while let Some(open) = rest.find('`') {
        let after = &rest[open + 1..];
        match after.find('`') {
            Some(close) => {
                out.push(&after[..close]);
                rest = &after[close + 1..];
            }
            None => break,
        }
    }
    out
}

/// Parses the taxonomy bullet list out of a DESIGN.md text.
///
/// The block starts at the line containing `Span & counter taxonomy` and
/// ends at the `**Overhead contract` paragraph. Bullets must be one of
/// `* spans:`, `* events:`, `* counters:`, `* kernel timers:`; wrapped
/// continuation lines attach to the preceding bullet. An unknown bullet is
/// an error — it means the doc changed shape and the parser (or the doc)
/// needs attention, which is exactly the drift this module exists to catch.
pub fn parse_taxonomy(md: &str) -> Result<Taxonomy, String> {
    let mut tax = Taxonomy::default();
    let mut in_block = false;
    let mut current: Option<usize> = None; // 0 spans, 1 events, 2 counters, 3 kernels
    for (lineno, line) in md.lines().enumerate() {
        let lineno = lineno as u32 + 1;
        if !in_block {
            if line.contains("Span & counter taxonomy") {
                in_block = true;
            }
            continue;
        }
        if line.contains("**Overhead contract") {
            break;
        }
        let trimmed = line.trim_start();
        if let Some(rest) = trimmed.strip_prefix('*') {
            let rest = rest.trim_start();
            current = if rest.starts_with("spans:") {
                Some(0)
            } else if rest.starts_with("events:") {
                Some(1)
            } else if rest.starts_with("counters:") {
                Some(2)
            } else if rest.starts_with("kernel timers:") {
                Some(3)
            } else {
                return Err(format!(
                    "DESIGN.md §8 taxonomy: unknown bullet {trimmed:?} \
                     (expected spans/events/counters/kernel timers)"
                ));
            };
        }
        let Some(cat) = current else { continue };
        for item in backticked(trimmed) {
            for name in brace_expand(item) {
                if !name.contains('/') {
                    continue;
                }
                let pat = Pattern::parse_at(&name, lineno);
                let list = match cat {
                    0 => &mut tax.spans,
                    1 => &mut tax.events,
                    2 => &mut tax.counters,
                    _ => &mut tax.kernels,
                };
                if !list.contains(&pat) {
                    list.push(pat);
                }
            }
        }
    }
    if !in_block {
        return Err("DESIGN.md has no 'Span & counter taxonomy' block (§8)".to_string());
    }
    if tax.spans.is_empty() || tax.counters.is_empty() || tax.kernels.is_empty() {
        return Err("DESIGN.md §8 taxonomy parsed empty — doc structure changed?".to_string());
    }
    Ok(tax)
}

/// Parses the DESIGN.md §11 fault-site catalog: every backticked
/// `fault/...` item after the `**Fault-site catalog.**` marker. The
/// catalog is a closed list of exact names (no placeholders), mirrored in
/// `supervise::fault::FAULT_SITES` and enforced at every `fault_at` call
/// site by the `fault_site` lint rule.
pub fn parse_fault_sites(md: &str) -> Result<Vec<String>, String> {
    let mut sites = Vec::new();
    let mut in_block = false;
    for line in md.lines() {
        if !in_block {
            if line.contains("Fault-site catalog") {
                in_block = true;
            }
            continue;
        }
        for item in backticked(line) {
            if item.starts_with("fault/") && !sites.iter().any(|s| s == item) {
                sites.push(item.to_string());
            }
        }
    }
    if !in_block {
        return Err("DESIGN.md has no 'Fault-site catalog' block (§11)".to_string());
    }
    if sites.is_empty() {
        return Err(
            "DESIGN.md §11 fault-site catalog parsed empty — doc structure changed?".into(),
        );
    }
    Ok(sites)
}

/// The taxonomy of the DESIGN.md this binary was built against (§8 names
/// plus the §11 fault-site catalog).
pub fn builtin() -> Result<Taxonomy, String> {
    let mut tax = parse_taxonomy(DESIGN_MD)?;
    tax.fault_sites = parse_fault_sites(DESIGN_MD)?;
    Ok(tax)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builtin_design_doc_parses_and_matches_known_names() {
        let tax = builtin().expect("DESIGN.md §8 must parse");
        // Fixed names.
        assert!(tax.span_ok("job/run"));
        assert!(tax.span_ok("train/fit"));
        // Wildcard names.
        assert!(tax.span_ok("attack/peega_parallel"));
        assert!(tax.span_ok("defense/gnat/fit"));
        assert!(tax.event_ok("peega/perturb"));
        assert!(tax.event_ok("train/epoch"));
        // Brace-expanded kernel list includes the sequential backward SpMM.
        assert!(tax.kernel_ok("kernel/spmm_t"));
        assert!(tax.kernel_ok("pool/worker_busy"));
        assert!(tax.counter_ok("attack/edge_flips"));
        // Negative cases.
        assert!(!tax.counter_ok("attack/bogus_counter"));
        assert!(!tax.span_ok("made/up/name"));
        assert!(!tax.span_ok("attack/"));
    }

    #[test]
    fn builtin_taxonomy_covers_the_incremental_engine_names() {
        // §13's engine instruments through §8: the doc must admit exactly
        // the names `bbgnn_linalg::incr` emits, or the obs_name lint and
        // trace_report would reject an `--incremental` run.
        let tax = builtin().expect("DESIGN.md §8 must parse");
        assert!(tax.kernel_ok("incr/update"));
        assert!(tax.kernel_ok("incr/resync"));
        assert!(tax.counter_ok("incr/rows_touched"));
        assert!(!tax.kernel_ok("incr/bogus"));
        assert!(
            !tax.counter_ok("incr/update"),
            "update is a timer, not a counter"
        );
    }

    #[test]
    fn builtin_fault_site_catalog_matches_the_supervise_crate() {
        let tax = builtin().expect("DESIGN.md §11 must parse");
        for site in [
            "fault/dataset_io",
            "fault/kernel_nan",
            "fault/pool_panic",
            "fault/store_corrupt",
            "fault/store_short_write",
        ] {
            assert!(tax.fault_site_ok(site), "{site} missing from §11 catalog");
        }
        assert!(!tax.fault_site_ok("fault/bogus"));
        assert!(!tax.fault_site_ok("dataset_io"), "sites are exact names");
    }

    #[test]
    fn missing_fault_site_block_is_an_error() {
        assert!(parse_fault_sites("no marker here").is_err());
        assert!(parse_fault_sites("**Fault-site catalog.** prose only").is_err());
        let sites =
            parse_fault_sites("**Fault-site catalog.**\n\n* fault sites: `fault/a`, `fault/b`.")
                .unwrap();
        assert_eq!(sites, ["fault/a", "fault/b"]);
    }

    #[test]
    fn brace_alternation_and_placeholders() {
        let md = "\
**Span & counter taxonomy.** Names are `layer/detail` paths:

* spans: `a/{x,y}`, `b/<name>/fit`;
* events: `e/one`;
* counters: `c/one`;
* kernel timers: `k/one`.

**Overhead contract.**";
        let tax = parse_taxonomy(md).unwrap();
        assert!(tax.span_ok("a/x") && tax.span_ok("a/y") && !tax.span_ok("a/z"));
        assert!(tax.span_ok("b/anything/fit") && !tax.span_ok("b/fit"));
        // `layer/detail` sits on the header line, outside the bullets.
        assert!(!tax.span_ok("layer/detail"));
    }

    #[test]
    fn unknown_bullet_is_an_error() {
        let md = "\
**Span & counter taxonomy.**

* spans: `a/b`;
* gauges: `g/one`;

**Overhead contract.**";
        let err = parse_taxonomy(md).unwrap_err();
        assert!(err.contains("unknown bullet"), "{err}");
    }

    #[test]
    fn wrapped_bullet_lines_attach_to_the_open_category() {
        let md = "\
**Span & counter taxonomy.**

* spans: `a/b`,
  `c/d`;
* counters: `c/one`;
* kernel timers: `k/one`.

**Overhead contract.**";
        let tax = parse_taxonomy(md).unwrap();
        assert!(tax.span_ok("c/d"));
    }
}
