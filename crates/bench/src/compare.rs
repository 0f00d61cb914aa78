//! Perf-regression comparison between two `BENCH_kernels.json` documents.
//!
//! The CI `perf` job re-runs `kernel_bench` on the pull request and compares
//! it against the committed baseline with `kernel_bench --compare
//! BENCH_kernels.json`. The gated metric is the **median speedup over the
//! naive reference kernel**, not absolute seconds: the naive kernel runs on
//! the same machine in the same interleaved timing group, so the ratio
//! cancels out CI-runner speed differences and only an actual kernel
//! regression moves it.
//!
//! A run fails when any blocked kernel's ratio drops below
//! [`DEFAULT_MIN_RATIO`] × baseline (i.e. a >35 % slowdown), or when a row
//! the baseline machine is guaranteed to share with the current machine
//! (thread counts 1/2/4 are always benchmarked) has gone missing. Rows for
//! machine-specific thread counts (e.g. `matmul@16t` from a bigger box) are
//! skipped, not failed.

use bbgnn_scenario::json::Json;
use std::collections::BTreeMap;

/// Minimum allowed `current / baseline` ratio of the median speedup before
/// the comparison fails: 0.65 ⇔ a >35 % slowdown is a regression. Chosen
/// loose enough that shared-runner noise (which the naive-relative metric
/// already mostly cancels) does not flake the gate.
pub const DEFAULT_MIN_RATIO: f64 = 0.65;

/// Thread counts `kernel_bench` benchmarks on every machine, regardless of
/// core count — rows at these counts must exist in both documents.
const ALWAYS_PRESENT_THREADS: [usize; 3] = [1, 2, 4];

/// One kernel row that regressed past the threshold.
#[derive(Debug, Clone, PartialEq)]
pub struct Regression {
    /// Row key, `"<kernel>@<threads>t"`.
    pub key: String,
    /// Baseline median speedup over the naive reference.
    pub baseline: f64,
    /// Current median speedup over the naive reference.
    pub current: f64,
}

impl Regression {
    /// `current / baseline` — below the threshold by construction.
    pub fn ratio(&self) -> f64 {
        self.current / self.baseline
    }
}

/// Outcome of comparing a current benchmark document against a baseline.
#[derive(Debug, Clone, PartialEq)]
pub struct CompareReport {
    /// Rows present in both documents and gated.
    pub checked: usize,
    /// Row keys present in only one document at a machine-specific thread
    /// count — informational, not a failure.
    pub skipped: Vec<String>,
    /// Guaranteed row keys (threads 1/2/4) missing from the current run.
    pub missing: Vec<String>,
    /// Rows that slowed down past the threshold.
    pub regressions: Vec<Regression>,
}

impl CompareReport {
    /// Whether the gate passes: at least one row compared, nothing missing,
    /// nothing regressed.
    pub fn passed(&self) -> bool {
        self.checked > 0 && self.missing.is_empty() && self.regressions.is_empty()
    }

    /// Human-readable multi-line summary for the CI log.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "perf gate: {} row(s) compared, {} skipped\n",
            self.checked,
            self.skipped.len()
        ));
        for key in &self.skipped {
            out.push_str(&format!(
                "  skipped {key} (machine-specific thread count)\n"
            ));
        }
        for key in &self.missing {
            out.push_str(&format!(
                "  MISSING {key}: baseline row absent from current run\n"
            ));
        }
        for r in &self.regressions {
            out.push_str(&format!(
                "  REGRESSION {}: median speedup {:.2}x -> {:.2}x ({:.0}% of baseline)\n",
                r.key,
                r.baseline,
                r.current,
                r.ratio() * 100.0
            ));
        }
        if self.passed() {
            out.push_str("perf gate: PASS\n");
        } else {
            out.push_str("perf gate: FAIL\n");
        }
        out
    }
}

/// Timing rounds the document's run took (`config.rounds`), or 0 for a
/// document that predates the field. A comparison times at least this
/// many, so its medians are no noisier than the baseline's.
pub fn rounds(doc: &Json) -> usize {
    doc.as_object()
        .and_then(|o| o.get("config"))
        .and_then(Json::as_object)
        .and_then(|c| c.get("rounds"))
        .and_then(Json::as_usize)
        .unwrap_or(0)
}

/// `"<kernel>@<threads>t"` → (threads, median speedup) for every gated row
/// of one document. Naive reference rows (`*_naive`, speedup ≡ 1) define
/// the metric and are never gated themselves.
fn gated_rows(doc: &Json) -> Result<BTreeMap<String, (usize, f64)>, String> {
    let results = doc
        .as_object()
        .and_then(|o| o.get("results"))
        .and_then(Json::as_array)
        .ok_or("document has no `results` array")?;
    let mut out = BTreeMap::new();
    for row in results {
        let fields = row.as_object().ok_or("result row is not an object")?;
        let kernel = fields
            .get("kernel")
            .and_then(Json::as_str)
            .ok_or("result row has no kernel name")?;
        if kernel.ends_with("_naive") {
            continue;
        }
        let threads = fields
            .get("threads")
            .and_then(Json::as_usize)
            .ok_or_else(|| format!("row {kernel}: no thread count"))?;
        // Older baselines predate the median fields; fall back to best-of.
        let speedup = fields
            .get("median_speedup_vs_naive")
            .or_else(|| fields.get("speedup_vs_naive"))
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("row {kernel}@{threads}t: no speedup metric"))?;
        if !(speedup.is_finite() && speedup > 0.0) {
            return Err(format!(
                "row {kernel}@{threads}t: speedup {speedup} not usable"
            ));
        }
        out.insert(format!("{kernel}@{threads}t"), (threads, speedup));
    }
    Ok(out)
}

/// Compares `current` against `baseline`, failing rows whose median speedup
/// ratio drops below `min_ratio`. Errors only on malformed documents —
/// regressions are reported, not errored, so the caller controls the exit
/// code.
pub fn compare_docs(
    baseline: &Json,
    current: &Json,
    min_ratio: f64,
) -> Result<CompareReport, String> {
    let base = gated_rows(baseline)?;
    let cur = gated_rows(current)?;
    let mut report = CompareReport {
        checked: 0,
        skipped: Vec::new(),
        missing: Vec::new(),
        regressions: Vec::new(),
    };
    for (key, &(threads, base_speedup)) in &base {
        match cur.get(key) {
            Some(&(_, cur_speedup)) => {
                report.checked += 1;
                if cur_speedup < base_speedup * min_ratio {
                    report.regressions.push(Regression {
                        key: key.clone(),
                        baseline: base_speedup,
                        current: cur_speedup,
                    });
                }
            }
            None if ALWAYS_PRESENT_THREADS.contains(&threads) => {
                report.missing.push(key.clone());
            }
            None => report.skipped.push(key.clone()),
        }
    }
    for key in cur.keys() {
        if !base.contains_key(key) {
            report.skipped.push(key.clone());
        }
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc(rows: &[(&str, usize, f64)]) -> Json {
        Json::object([(
            "results".to_string(),
            Json::Array(
                rows.iter()
                    .map(|&(kernel, threads, speedup)| {
                        Json::object([
                            ("kernel".to_string(), Json::string(kernel)),
                            ("threads".to_string(), Json::number_usize(threads)),
                            (
                                "median_speedup_vs_naive".to_string(),
                                Json::number_f64(speedup),
                            ),
                        ])
                    })
                    .collect(),
            ),
        )])
    }

    #[test]
    fn identical_documents_pass() {
        let d = doc(&[
            ("matmul_naive", 1, 1.0),
            ("matmul", 1, 2.0),
            ("matmul", 4, 6.0),
            ("spmm", 4, 3.0),
        ]);
        let r = compare_docs(&d, &d, DEFAULT_MIN_RATIO).unwrap();
        assert!(r.passed(), "{}", r.render());
        assert_eq!(r.checked, 3, "naive rows must not be gated");
    }

    #[test]
    fn slowdown_past_threshold_fails_but_mild_noise_passes() {
        let base = doc(&[("spmm", 4, 4.0), ("matmul", 4, 6.0)]);
        // 20% slower: inside the noise budget.
        let mild = doc(&[("spmm", 4, 3.2), ("matmul", 4, 6.0)]);
        assert!(compare_docs(&base, &mild, DEFAULT_MIN_RATIO)
            .unwrap()
            .passed());
        // 40% slower: regression.
        let bad = doc(&[("spmm", 4, 2.4), ("matmul", 4, 6.0)]);
        let r = compare_docs(&base, &bad, DEFAULT_MIN_RATIO).unwrap();
        assert!(!r.passed());
        assert_eq!(r.regressions.len(), 1);
        assert_eq!(r.regressions[0].key, "spmm@4t");
        assert!(r.render().contains("REGRESSION spmm@4t"));
    }

    #[test]
    fn guaranteed_rows_must_exist_but_big_box_rows_are_skipped() {
        let base = doc(&[("matmul", 2, 3.0), ("matmul", 16, 10.0)]);
        let cur = doc(&[("matmul", 2, 3.0)]);
        let r = compare_docs(&base, &cur, DEFAULT_MIN_RATIO).unwrap();
        assert!(r.passed(), "a 16-thread row only exists on big machines");
        assert_eq!(r.skipped, vec!["matmul@16t".to_string()]);

        let gone = doc(&[("matmul", 16, 10.0)]);
        let r = compare_docs(&base, &gone, DEFAULT_MIN_RATIO).unwrap();
        assert!(!r.passed(), "threads=2 is benchmarked everywhere");
        assert_eq!(r.missing, vec!["matmul@2t".to_string()]);
    }

    #[test]
    fn empty_comparison_does_not_pass_vacuously() {
        let empty = doc(&[]);
        let r = compare_docs(&empty, &empty, DEFAULT_MIN_RATIO).unwrap();
        assert!(!r.passed());
    }

    #[test]
    fn legacy_baseline_without_median_field_still_compares() {
        let legacy = Json::parse(
            r#"{"results": [{"kernel": "spmm", "threads": 4, "speedup_vs_naive": 3.0}]}"#,
        )
        .unwrap();
        let cur = doc(&[("spmm", 4, 2.9)]);
        let r = compare_docs(&legacy, &cur, DEFAULT_MIN_RATIO).unwrap();
        assert!(r.passed(), "{}", r.render());
        assert_eq!(r.checked, 1);
    }

    #[test]
    fn rounds_come_from_the_config_block() {
        let doc = Json::parse(r#"{"config": {"rounds": 15}, "results": []}"#).unwrap();
        assert_eq!(rounds(&doc), 15);
        assert_eq!(rounds(&Json::parse(r#"{"results": []}"#).unwrap()), 0);
    }

    #[test]
    fn malformed_documents_error_instead_of_passing() {
        let good = doc(&[("spmm", 4, 3.0)]);
        assert!(compare_docs(&Json::parse("{}").unwrap(), &good, 0.65).is_err());
        let no_metric = Json::parse(r#"{"results": [{"kernel": "spmm", "threads": 4}]}"#).unwrap();
        assert!(compare_docs(&good, &no_metric, 0.65).is_err());
    }
}
