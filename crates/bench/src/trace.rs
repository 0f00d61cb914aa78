//! Trace aggregation: turns a `BBGNN_TRACE` JSONL file into tables.
//!
//! The obs layer (`bbgnn_obs`, DESIGN.md §8) writes one JSON object per
//! line: span `open`/`close` pairs, point-in-time `ev` records, and `ctr`
//! aggregates. This module parses and **validates** a trace (every line
//! must parse; every span must balance) and reduces it to:
//!
//! * per-span-name **total/self wall time** (self = total minus the time
//!   spent in child spans on the same thread lineage);
//! * **counter totals** summed across threads, and per-kernel call/time
//!   aggregates;
//! * the **per-epoch training timeline** (`train/epoch` events) as CSV.
//!
//! The `trace_report` binary is a thin CLI over [`read_trace`] +
//! [`TraceSummary`]'s renderers.

use bbgnn_scenario::json::Json;
use std::collections::BTreeMap;
use std::collections::HashMap;
use std::fmt::Write as _;

/// Wall-time aggregate for one span name.
#[derive(Clone, Debug, PartialEq)]
pub struct SpanStat {
    /// Span name (e.g. `train/fit`, `job/run`).
    pub name: String,
    /// How many spans of this name closed.
    pub count: usize,
    /// Sum of close−open microseconds over all spans of this name.
    pub total_us: u64,
    /// Total minus time attributed to child spans.
    pub self_us: u64,
}

/// Summed total for one monotone counter.
#[derive(Clone, Debug, PartialEq)]
pub struct CounterStat {
    /// Counter name (e.g. `attack/edge_flips`).
    pub name: String,
    /// Sum of `add` across all threads and drains.
    pub total: u64,
}

/// Aggregate for one kernel timer.
#[derive(Clone, Debug, PartialEq)]
pub struct KernelStat {
    /// Kernel name (e.g. `kernel/matmul`).
    pub name: String,
    /// Total invocation count.
    pub calls: u64,
    /// Total wall nanoseconds across all invocations.
    pub ns: u64,
}

/// One `train/epoch` event, in trace order.
#[derive(Clone, Debug, PartialEq)]
pub struct EpochRow {
    /// Epoch index.
    pub epoch: u64,
    /// Training loss (NaN when the record held `null`).
    pub loss: f64,
    /// Global gradient L2 norm.
    pub grad_norm: f64,
    /// Training-split accuracy.
    pub train_acc: f64,
    /// Validation-split accuracy.
    pub val_acc: f64,
}

/// A parsed, validated, aggregated trace.
#[derive(Clone, Debug, Default)]
pub struct TraceSummary {
    /// Total records (lines) in the trace.
    pub records: usize,
    /// Event record count.
    pub events: usize,
    /// Per-span-name wall-time aggregates, largest total first.
    pub spans: Vec<SpanStat>,
    /// Counter totals, sorted by name.
    pub counters: Vec<CounterStat>,
    /// Kernel timer aggregates, sorted by name.
    pub kernels: Vec<KernelStat>,
    /// The per-epoch training timeline, in trace order.
    pub epochs: Vec<EpochRow>,
}

/// A still-open span while scanning the trace.
struct OpenSpan {
    name: String,
    parent: u64,
    open_us: u64,
    child_us: u64,
}

fn get_u64(obj: &BTreeMap<String, Json>, key: &str) -> Option<u64> {
    match obj.get(key)? {
        Json::Number(n) => n.parse().ok(),
        _ => None,
    }
}

fn get_f64(obj: &BTreeMap<String, Json>, key: &str) -> f64 {
    match obj.get(key) {
        Some(Json::Number(n)) => n.parse().unwrap_or(f64::NAN),
        // NaN/inf fields serialize as null (JSON has no non-finite numbers).
        _ => f64::NAN,
    }
}

/// Parses and validates a JSONL trace, aggregating it into a
/// [`TraceSummary`]. Errors name the first offending line (1-based):
/// unparseable JSON, a non-object record, a record without a known `t`
/// tag, a `close` without a matching `open`, a counter or kernel-timer
/// name outside the DESIGN.md §8 taxonomy, or spans left open at EOF.
pub fn parse_trace(text: &str) -> Result<TraceSummary, String> {
    // The same taxonomy bbgnn-lint enforces statically, applied here to
    // names that only materialize at runtime (dynamic counter names are
    // invisible to the lexical pass).
    let tax = bbgnn_analysis::taxonomy::builtin()?;
    let mut open: HashMap<u64, OpenSpan> = HashMap::new();
    let mut span_stats: BTreeMap<String, SpanStat> = BTreeMap::new();
    let mut counters: BTreeMap<String, u64> = BTreeMap::new();
    let mut kernels: BTreeMap<String, (u64, u64)> = BTreeMap::new();
    let mut summary = TraceSummary::default();

    for (idx, line) in text.lines().enumerate() {
        let lineno = idx + 1;
        if line.trim().is_empty() {
            continue;
        }
        let value = Json::parse(line).map_err(|e| format!("line {lineno}: invalid JSON: {e}"))?;
        let obj = value
            .as_object()
            .ok_or_else(|| format!("line {lineno}: record is not a JSON object"))?;
        summary.records += 1;
        let tag = obj
            .get("t")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("line {lineno}: record has no \"t\" tag"))?;
        match tag {
            "open" => {
                let id = get_u64(obj, "id")
                    .ok_or_else(|| format!("line {lineno}: open record has no id"))?;
                let name = obj
                    .get("name")
                    .and_then(Json::as_str)
                    .ok_or_else(|| format!("line {lineno}: open record has no name"))?;
                if open.contains_key(&id) {
                    return Err(format!("line {lineno}: span id {id} opened twice"));
                }
                open.insert(
                    id,
                    OpenSpan {
                        name: name.to_string(),
                        parent: get_u64(obj, "par").unwrap_or(0),
                        open_us: get_u64(obj, "us").unwrap_or(0),
                        child_us: 0,
                    },
                );
            }
            "close" => {
                let id = get_u64(obj, "id")
                    .ok_or_else(|| format!("line {lineno}: close record has no id"))?;
                let span = open
                    .remove(&id)
                    .ok_or_else(|| format!("line {lineno}: close of span {id} that is not open"))?;
                let close_us = get_u64(obj, "us").unwrap_or(span.open_us);
                let total = close_us.saturating_sub(span.open_us);
                if let Some(parent) = open.get_mut(&span.parent) {
                    parent.child_us += total;
                }
                let stat = span_stats.entry(span.name.clone()).or_insert(SpanStat {
                    name: span.name,
                    count: 0,
                    total_us: 0,
                    self_us: 0,
                });
                stat.count += 1;
                stat.total_us += total;
                stat.self_us += total.saturating_sub(span.child_us);
            }
            "ev" => {
                summary.events += 1;
                let name = obj.get("name").and_then(Json::as_str).unwrap_or("");
                if name == "train/epoch" {
                    if let Some(Json::Object(f)) = obj.get("f") {
                        summary.epochs.push(EpochRow {
                            epoch: get_u64(f, "epoch").unwrap_or(0),
                            loss: get_f64(f, "loss"),
                            grad_norm: get_f64(f, "grad_norm"),
                            train_acc: get_f64(f, "train_acc"),
                            val_acc: get_f64(f, "val_acc"),
                        });
                    }
                }
            }
            "ctr" => {
                let name = obj
                    .get("name")
                    .and_then(Json::as_str)
                    .ok_or_else(|| format!("line {lineno}: ctr record has no name"))?
                    .to_string();
                if let Some(add) = get_u64(obj, "add") {
                    if !tax.counter_ok(&name) {
                        return Err(format!(
                            "line {lineno}: counter {name:?} is not in the DESIGN.md §8 \
                             taxonomy — add it to the doc's bullet list or fix the name"
                        ));
                    }
                    *counters.entry(name).or_insert(0) += add;
                } else {
                    if !tax.kernel_ok(&name) {
                        return Err(format!(
                            "line {lineno}: kernel timer {name:?} is not in the DESIGN.md §8 \
                             taxonomy — add it to the doc's bullet list or fix the name"
                        ));
                    }
                    let e = kernels.entry(name).or_insert((0, 0));
                    e.0 += get_u64(obj, "calls").unwrap_or(0);
                    e.1 += get_u64(obj, "ns").unwrap_or(0);
                }
            }
            other => return Err(format!("line {lineno}: unknown record tag {other:?}")),
        }
    }

    if !open.is_empty() {
        let mut names: Vec<&str> = open.values().map(|s| s.name.as_str()).collect();
        names.sort_unstable();
        return Err(format!(
            "{} span(s) never closed: {}",
            open.len(),
            names.join(", ")
        ));
    }

    summary.spans = span_stats.into_values().collect();
    summary
        .spans
        .sort_by(|a, b| b.total_us.cmp(&a.total_us).then(a.name.cmp(&b.name)));
    summary.counters = counters
        .into_iter()
        .map(|(name, total)| CounterStat { name, total })
        .collect();
    summary.kernels = kernels
        .into_iter()
        .map(|(name, (calls, ns))| KernelStat { name, calls, ns })
        .collect();
    Ok(summary)
}

/// Reads and aggregates the trace file at `path` (see [`parse_trace`]).
pub fn read_trace(path: &str) -> Result<TraceSummary, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    parse_trace(&text)
}

fn ms(us: u64) -> String {
    format!("{:.3}", us as f64 / 1000.0)
}

impl TraceSummary {
    /// Fixed-width per-span-name table: count, total ms, self ms —
    /// largest total first.
    pub fn span_table(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<28} {:>8} {:>12} {:>12}",
            "span", "count", "total_ms", "self_ms"
        );
        for s in &self.spans {
            let _ = writeln!(
                out,
                "{:<28} {:>8} {:>12} {:>12}",
                s.name,
                s.count,
                ms(s.total_us),
                ms(s.self_us)
            );
        }
        out
    }

    /// Counter totals and kernel aggregates as a fixed-width table.
    pub fn counter_table(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "{:<28} {:>14}", "counter", "total");
        for c in &self.counters {
            let _ = writeln!(out, "{:<28} {:>14}", c.name, c.total);
        }
        let _ = writeln!(out, "{:<28} {:>14} {:>12}", "kernel", "calls", "ms");
        for k in &self.kernels {
            let _ = writeln!(
                out,
                "{:<28} {:>14} {:>12}",
                k.name,
                k.calls,
                ms(k.ns / 1000)
            );
        }
        out
    }

    /// The training timeline as CSV
    /// (`epoch,loss,grad_norm,train_acc,val_acc`; NaN prints as `nan`).
    pub fn epoch_csv(&self) -> String {
        let mut out = String::from("epoch,loss,grad_norm,train_acc,val_acc\n");
        for e in &self.epochs {
            let _ = writeln!(
                out,
                "{},{},{},{},{}",
                e.epoch, e.loss, e.grad_norm, e.train_acc, e.val_acc
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const GOOD: &str = r#"{"t":"open","id":1,"par":0,"tid":1,"us":0,"name":"job/run","f":{"key":"cora"}}
{"t":"open","id":2,"par":1,"tid":1,"us":100,"name":"train/fit"}
{"t":"ev","name":"train/epoch","span":2,"tid":1,"us":150,"f":{"epoch":0,"loss":1.9,"grad_norm":0.4,"train_acc":0.3,"val_acc":0.25}}
{"t":"ev","name":"train/epoch","span":2,"tid":1,"us":220,"f":{"epoch":1,"loss":1.2,"grad_norm":null,"train_acc":0.6,"val_acc":0.5}}
{"t":"close","id":2,"tid":1,"us":400}
{"t":"ctr","name":"train/epochs","tid":1,"add":2}
{"t":"ctr","name":"kernel/matmul","tid":1,"calls":10,"ns":5000000}
{"t":"close","id":1,"tid":1,"us":1000}
"#;

    #[test]
    fn aggregates_spans_counters_and_epochs() {
        let s = parse_trace(GOOD).unwrap();
        assert_eq!(s.records, 8);
        assert_eq!(s.events, 2);
        // job/run: total 1000, self 1000-300=700; train/fit: 300/300.
        assert_eq!(s.spans[0].name, "job/run");
        assert_eq!(s.spans[0].total_us, 1000);
        assert_eq!(s.spans[0].self_us, 700);
        let fit = s.spans.iter().find(|x| x.name == "train/fit").unwrap();
        assert_eq!((fit.count, fit.total_us, fit.self_us), (1, 300, 300));
        assert_eq!(
            s.counters,
            vec![CounterStat {
                name: "train/epochs".into(),
                total: 2
            }]
        );
        assert_eq!(s.kernels[0].calls, 10);
        assert_eq!(s.epochs.len(), 2);
        assert_eq!(s.epochs[1].epoch, 1);
        assert!(s.epochs[1].grad_norm.is_nan(), "null field must read NaN");
    }

    #[test]
    fn renders_tables_and_csv() {
        let s = parse_trace(GOOD).unwrap();
        let spans = s.span_table();
        assert!(spans.contains("job/run"));
        assert!(spans.contains("0.700"), "self ms missing: {spans}");
        assert!(s.counter_table().contains("kernel/matmul"));
        let csv = s.epoch_csv();
        assert!(csv.starts_with("epoch,loss,grad_norm,train_acc,val_acc\n"));
        assert!(csv.contains("1,1.2,NaN,0.6,0.5"));
    }

    #[test]
    fn invalid_json_names_the_line() {
        let text =
            "{\"t\":\"open\",\"id\":1,\"par\":0,\"tid\":1,\"us\":0,\"name\":\"a\"}\nnot json\n";
        let err = parse_trace(text).unwrap_err();
        assert!(err.starts_with("line 2:"), "{err}");
    }

    #[test]
    fn unbalanced_spans_are_rejected() {
        // Open without close.
        let err = parse_trace(
            "{\"t\":\"open\",\"id\":1,\"par\":0,\"tid\":1,\"us\":0,\"name\":\"leak\"}\n",
        )
        .unwrap_err();
        assert!(
            err.contains("never closed") && err.contains("leak"),
            "{err}"
        );
        // Close without open.
        let err = parse_trace("{\"t\":\"close\",\"id\":9,\"tid\":1,\"us\":5}\n").unwrap_err();
        assert!(err.contains("not open"), "{err}");
        // Duplicate open of the same id.
        let text = "{\"t\":\"open\",\"id\":1,\"par\":0,\"tid\":1,\"us\":0,\"name\":\"a\"}\n\
                    {\"t\":\"open\",\"id\":1,\"par\":0,\"tid\":1,\"us\":1,\"name\":\"b\"}\n";
        assert!(parse_trace(text).unwrap_err().contains("opened twice"));
    }

    #[test]
    fn counter_names_outside_the_taxonomy_are_rejected() {
        let err = parse_trace("{\"t\":\"ctr\",\"name\":\"train/epochz\",\"tid\":1,\"add\":2}\n")
            .unwrap_err();
        assert!(
            err.starts_with("line 1:") && err.contains("train/epochz") && err.contains("taxonomy"),
            "{err}"
        );
        let err = parse_trace(
            "{\"t\":\"ctr\",\"name\":\"kernel/gemm\",\"tid\":1,\"calls\":1,\"ns\":10}\n",
        )
        .unwrap_err();
        assert!(
            err.contains("kernel timer") && err.contains("kernel/gemm"),
            "{err}"
        );
    }

    #[test]
    fn unknown_tag_is_rejected_and_blank_lines_are_skipped() {
        assert!(parse_trace("\n\n").unwrap().records == 0);
        let err = parse_trace("{\"t\":\"mystery\"}\n").unwrap_err();
        assert!(err.contains("unknown record tag"), "{err}");
    }

    #[test]
    fn real_obs_output_parses_and_balances() {
        // End-to-end against the actual obs writer, not a hand-typed
        // facsimile of the schema.
        use std::io::Write;
        use std::sync::{Arc, Mutex};

        #[derive(Clone, Default)]
        struct Buf(Arc<Mutex<Vec<u8>>>);
        impl Write for Buf {
            fn write(&mut self, b: &[u8]) -> std::io::Result<usize> {
                self.0.lock().unwrap().extend_from_slice(b);
                Ok(b.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }

        let buf = Buf::default();
        bbgnn_obs::init_to_writer(Box::new(buf.clone()));
        {
            let _outer = bbgnn_obs::span!("trace/e2e_outer", key = "t/x", attempt = 0usize);
            let _inner = bbgnn_obs::span!("train/fit");
            bbgnn_obs::event!("train/epoch", epoch = 0usize, loss = 0.7);
            bbgnn_obs::counter("train/epochs", 1);
        }
        bbgnn_obs::shutdown();
        let text = String::from_utf8(buf.0.lock().unwrap().clone()).unwrap();
        // The obs sink is process-global: concurrently running tests (e.g.
        // the fault-runner ones) may interleave their own records while
        // tracing is on. Keep only this thread's lines — tids are unique
        // per thread, and obs writes each line atomically.
        let marker = text
            .lines()
            .find(|l| l.contains("trace/e2e_outer"))
            .expect("our span must be in the capture");
        let tid_field = marker
            .split("\"tid\":")
            .nth(1)
            .and_then(|rest| rest.split(',').next())
            .expect("open record carries a tid");
        let tid = format!("\"tid\":{tid_field},");
        let ours: String =
            text.lines()
                .filter(|l| l.contains(&tid))
                .fold(String::new(), |mut acc, l| {
                    acc.push_str(l);
                    acc.push('\n');
                    acc
                });
        let s = parse_trace(&ours).unwrap();
        assert_eq!(s.spans.iter().map(|x| x.count).sum::<usize>(), 2);
        assert_eq!(s.epochs.len(), 1);
        assert_eq!(s.counters[0].total, 1);
    }
}
