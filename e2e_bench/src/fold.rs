//! Per-layer attribution from a `bbgnn_obs` trace.
//!
//! The benchmark wraps each call into a layer in a root span of its own
//! (`e2e/load`, `e2e/attack`, `e2e/fit`, `e2e/eval`) and runs one call at
//! a time. Everything the program records during that call lies between
//! the span's `open` and `close` lines: pool workers drain their timers
//! when their scoped threads exit inside the region, and the calling
//! thread drains its aggregates just before the root span's `close`. So
//! each root span's lines form a balanced trace of their own, which
//! [`bbgnn_bench::trace::parse_trace`] aggregates.

use bbgnn::scenario::json::Json;
use bbgnn_bench::trace::{parse_trace, TraceSummary};
use std::collections::BTreeMap;

/// One of the benchmark's root spans and what was recorded inside it.
#[derive(Clone, Debug)]
pub struct Segment {
    /// Span name, e.g. `e2e/fit`.
    pub name: String,
    /// The `cell` field: which attacker or defender the call ran.
    pub cell: String,
    /// The `scale` field: the dataset scale of the call's graph.
    pub scale: String,
    /// Wall seconds between the span's `open` and `close`.
    pub secs: f64,
    /// The program's spans, counters and kernel timers inside the span.
    pub summary: TraceSummary,
}

fn field(obj: &BTreeMap<String, Json>, key: &str) -> String {
    obj.get("f")
        .and_then(Json::as_object)
        .and_then(|f| f.get(key))
        .and_then(Json::as_str)
        .unwrap_or_default()
        .to_string()
}

/// Splits `text` into the root spans whose name starts with `prefix`, in
/// trace order. Lines outside such spans are ignored; an unbalanced or
/// malformed segment is an error naming it.
pub fn segments(text: &str, prefix: &str) -> Result<Vec<Segment>, String> {
    let lines: Vec<&str> = text.lines().collect();
    let mut out = Vec::new();
    let mut open: Option<(u64, usize, BTreeMap<String, Json>)> = None;
    for (i, line) in lines.iter().enumerate() {
        if !(line.contains("\"t\":\"open\"") || line.contains("\"t\":\"close\"")) {
            continue;
        }
        let doc = Json::parse(line).map_err(|e| format!("trace line {}: {e}", i + 1))?;
        let obj = doc.as_object().cloned().unwrap_or_default();
        let id = obj.get("id").and_then(Json::as_u64).unwrap_or(0);
        match (obj.get("t").and_then(Json::as_str), &open) {
            (Some("open"), None) => {
                let root = obj.get("par").and_then(Json::as_u64) == Some(0);
                let name = obj.get("name").and_then(Json::as_str).unwrap_or("");
                if root && name.starts_with(prefix) {
                    open = Some((id, i, obj));
                }
            }
            (Some("close"), Some((open_id, _, _))) if *open_id == id => {
                let (_, start, head) = open.take().unwrap_or_default();
                let name = head.get("name").and_then(Json::as_str).unwrap_or("");
                let summary = parse_trace(&lines[start..=i].join("\n"))
                    .map_err(|e| format!("segment {name} at trace line {}: {e}", start + 1))?;
                let secs = summary
                    .spans
                    .iter()
                    .find(|s| s.name == name)
                    .map_or(0.0, |s| s.total_us as f64 / 1e6);
                out.push(Segment {
                    name: name.to_string(),
                    cell: field(&head, "cell"),
                    scale: field(&head, "scale"),
                    secs,
                    summary,
                });
            }
            _ => {}
        }
    }
    match open {
        Some((_, start, _)) => Err(format!("span at trace line {} never closed", start + 1)),
        None => Ok(out),
    }
}

/// Kernel-timer totals over `segs`: name → (calls, nanoseconds).
pub fn kernel_totals<'a>(
    segs: impl IntoIterator<Item = &'a Segment>,
) -> BTreeMap<String, (u64, u64)> {
    let mut out = BTreeMap::new();
    for seg in segs {
        for k in &seg.summary.kernels {
            let e = out.entry(k.name.clone()).or_insert((0, 0));
            e.0 += k.calls;
            e.1 += k.ns;
        }
    }
    out
}

/// Counter total of `name` over `segs`.
pub fn counter_total<'a>(segs: impl IntoIterator<Item = &'a Segment>, name: &str) -> u64 {
    segs.into_iter()
        .flat_map(|s| &s.summary.counters)
        .filter(|c| c.name == name)
        .map(|c| c.total)
        .sum()
}

/// Share of pool-worker capacity left idle inside parallel regions:
/// `1 − pool/worker_busy ÷ (threads × pool/region)`. NaN without regions.
pub fn pool_idle_share(kernels: &BTreeMap<String, (u64, u64)>, threads: usize) -> f64 {
    let ns = |name: &str| kernels.get(name).map_or(0, |k| k.1) as f64;
    let region = ns("pool/region") * threads as f64;
    if region == 0.0 {
        return f64::NAN;
    }
    1.0 - ns("pool/worker_busy") / region
}

/// Share of fit time spent outside the linear-algebra kernels — the
/// autodiff tape, the optimizer and glue: `1 − Σ kernel/* ÷ Σ fit`, over
/// fit segments.
pub fn overhead_share<'a>(fits: impl IntoIterator<Item = &'a Segment> + Clone) -> f64 {
    let fit_ns: f64 = fits.clone().into_iter().map(|s| s.secs * 1e9).sum();
    let kernel_ns: u64 = kernel_totals(fits)
        .iter()
        .filter(|(name, _)| name.starts_with("kernel/"))
        .map(|(_, k)| k.1)
        .sum();
    if fit_ns == 0.0 {
        return f64::NAN;
    }
    1.0 - kernel_ns as f64 / fit_ns
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two root benchmark spans around one untracked program span. Worker
    /// timers (tids 2, 3) drain inside the region; the calling thread's
    /// aggregates drain just before its root span closes.
    const TRACE: &str = r#"{"t":"open","id":1,"par":0,"tid":1,"us":0,"name":"e2e/fit","f":{"cell":"gcn","scale":"0.12"}}
{"t":"open","id":2,"par":1,"tid":1,"us":10,"name":"train/fit"}
{"t":"ctr","name":"pool/worker_busy","tid":2,"calls":1,"ns":300000}
{"t":"ctr","name":"pool/worker_busy","tid":3,"calls":1,"ns":100000}
{"t":"close","id":2,"tid":1,"us":990}
{"t":"ctr","name":"train/epochs","tid":1,"add":7}
{"t":"ctr","name":"kernel/matmul","tid":1,"calls":4,"ns":300000}
{"t":"ctr","name":"kernel/spmm","tid":1,"calls":2,"ns":100000}
{"t":"ctr","name":"pool/region","tid":1,"calls":1,"ns":250000}
{"t":"close","id":1,"tid":1,"us":1000}
{"t":"open","id":3,"par":0,"tid":1,"us":2000,"name":"job/run"}
{"t":"close","id":3,"tid":1,"us":2100}
{"t":"open","id":4,"par":0,"tid":1,"us":3000,"name":"e2e/attack","f":{"cell":"peega","scale":"0.06"}}
{"t":"ctr","name":"incr/update","tid":1,"calls":3,"ns":600}
{"t":"ctr","name":"incr/rows_touched","tid":1,"add":42}
{"t":"close","id":4,"tid":1,"us":5000}
"#;

    #[test]
    fn splits_root_spans_and_keeps_their_fields() {
        let segs = segments(TRACE, "e2e/").unwrap();
        assert_eq!(segs.len(), 2, "job/run is not a benchmark span");
        assert_eq!(
            (segs[0].name.as_str(), segs[0].cell.as_str()),
            ("e2e/fit", "gcn")
        );
        assert_eq!(segs[0].scale, "0.12");
        assert!((segs[0].secs - 0.001).abs() < 1e-12);
        assert_eq!(
            (segs[1].cell.as_str(), segs[1].scale.as_str()),
            ("peega", "0.06")
        );
        assert!((segs[1].secs - 0.002).abs() < 1e-12);
        assert_eq!(counter_total(&segs, "train/epochs"), 7);
        assert_eq!(counter_total(&segs, "incr/rows_touched"), 42);
        assert_eq!(kernel_totals(&segs)["incr/update"], (3, 600));
    }

    #[test]
    fn pool_idle_and_overhead_shares_from_a_hand_written_trace() {
        let segs = segments(TRACE, "e2e/").unwrap();
        let fits: Vec<&Segment> = segs.iter().filter(|s| s.name == "e2e/fit").collect();
        let kernels = kernel_totals(fits.iter().copied());
        assert_eq!(kernels["kernel/matmul"], (4, 300_000));
        // Two workers were busy 0.4 ms of a 2 × 0.25 ms region.
        let idle = pool_idle_share(&kernels, 2);
        assert!((idle - 0.2).abs() < 1e-12, "{idle}");
        // Kernels took 0.4 ms of the 1 ms fit.
        let share = overhead_share(fits.iter().copied());
        assert!((share - 0.6).abs() < 1e-12, "{share}");
        assert!(pool_idle_share(&BTreeMap::new(), 2).is_nan());
    }

    #[test]
    fn unclosed_segments_are_errors() {
        let text = r#"{"t":"open","id":9,"par":0,"tid":1,"us":0,"name":"e2e/fit"}"#;
        assert!(segments(text, "e2e/").unwrap_err().contains("never closed"));
    }
}
