//! Crash-safe checkpointing for experiment sweeps.
//!
//! Every table/figure binary records each completed cell into
//! `results/<experiment>.checkpoint.json` as soon as the cell finishes. If
//! the process is killed mid-sweep (OOM, SIGKILL, power loss), re-invoking
//! the same binary with the same configuration replays the completed cells
//! from the checkpoint verbatim — the final report is byte-identical to an
//! uninterrupted run, because cells are stored as their already-formatted
//! strings and all retry seeds are derived deterministically.
//!
//! The checkpoint is keyed by a configuration *fingerprint*
//! ([`ExpConfig::fingerprint`](crate::config::ExpConfig::fingerprint)): a
//! stale checkpoint from a different scale/seed/rate is discarded rather
//! than resumed. Writes go through a temp file + rename so a crash during
//! the write itself cannot corrupt the previous checkpoint.

use bbgnn_errors::{BbgnnError, BbgnnResult};
use bbgnn_scenario::json::Json;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// One completed experiment cell.
#[derive(Clone, Debug, PartialEq)]
pub struct CellRecord {
    /// The formatted cell value, stored verbatim for byte-identical resume.
    pub value: String,
    /// Outcome tag: `"ok"`, `"retried"`, `"degraded"`, or `"failed"`.
    pub outcome: String,
    /// Attempts consumed (1 = first try succeeded).
    pub attempts: usize,
    /// Terminal error text for failed cells.
    pub detail: Option<String>,
    /// Artifact-store filenames this cell read or wrote (empty when no
    /// store was active). `bbgnn-store gc` treats any artifact named in a
    /// checkpoint as live, so a resumed run can still warm-start.
    pub artifacts: Vec<String>,
}

/// A load-on-open, save-on-record cell store for one experiment binary.
#[derive(Debug)]
pub struct Checkpoint {
    path: PathBuf,
    fingerprint: String,
    cells: BTreeMap<String, CellRecord>,
    resumed: usize,
}

impl Checkpoint {
    /// Opens (or starts) the checkpoint for `experiment` under `out_dir`.
    ///
    /// An existing file is resumed only if its fingerprint matches;
    /// mismatched or unparseable checkpoints are dropped with a note on
    /// stderr (they are superseded, not errors).
    pub fn open(out_dir: &str, experiment: &str, fingerprint: &str) -> Checkpoint {
        let path = Path::new(out_dir).join(format!("{experiment}.checkpoint.json"));
        let mut ckpt = Checkpoint {
            path,
            fingerprint: fingerprint.to_string(),
            cells: BTreeMap::new(),
            resumed: 0,
        };
        match std::fs::read_to_string(&ckpt.path) {
            Err(_) => {} // no checkpoint: fresh run
            // A zero-length file is what a crash between `open` and the
            // first flushed write leaves behind (also some filesystems
            // after power loss). It is corrupt, not an error: restart.
            Ok(text) if text.trim().is_empty() => {
                eprintln!(
                    "note: ignoring empty checkpoint {}; starting fresh",
                    ckpt.path.display()
                );
            }
            Ok(text) => match parse_cells(&text, fingerprint) {
                Ok(cells) => {
                    ckpt.resumed = cells.len();
                    ckpt.cells = cells;
                }
                Err(why) => {
                    eprintln!(
                        "note: ignoring checkpoint {} ({why}); starting fresh",
                        ckpt.path.display()
                    );
                }
            },
        }
        ckpt
    }

    /// The checkpoint file path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Number of cells carried over from a previous (interrupted) run.
    pub fn resumed_cells(&self) -> usize {
        self.resumed
    }

    /// The record for `key`, if that cell already completed.
    pub fn get(&self, key: &str) -> Option<&CellRecord> {
        self.cells.get(key)
    }

    /// Whether `key` already completed.
    pub fn contains(&self, key: &str) -> bool {
        self.cells.contains_key(key)
    }

    /// Records a completed cell and persists the checkpoint atomically.
    pub fn record(&mut self, key: &str, record: CellRecord) -> BbgnnResult<()> {
        self.cells.insert(key.to_string(), record);
        self.save()
    }

    fn save(&self) -> BbgnnResult<()> {
        let io = |e: std::io::Error| BbgnnError::DatasetIo {
            path: self.path.display().to_string(),
            message: format!("writing checkpoint: {e}"),
        };
        if let Some(dir) = self.path.parent() {
            std::fs::create_dir_all(dir).map_err(io)?;
        }
        let doc = Json::object([
            (
                "fingerprint".to_string(),
                Json::string(self.fingerprint.clone()),
            ),
            (
                "cells".to_string(),
                Json::Object(
                    self.cells
                        .iter()
                        .map(|(k, rec)| {
                            let mut fields = vec![
                                ("value".to_string(), Json::string(rec.value.clone())),
                                ("outcome".to_string(), Json::string(rec.outcome.clone())),
                                ("attempts".to_string(), Json::number_usize(rec.attempts)),
                            ];
                            if let Some(d) = &rec.detail {
                                fields.push(("detail".to_string(), Json::string(d.clone())));
                            }
                            if !rec.artifacts.is_empty() {
                                fields.push((
                                    "artifacts".to_string(),
                                    Json::Array(
                                        rec.artifacts.iter().cloned().map(Json::string).collect(),
                                    ),
                                ));
                            }
                            (k.clone(), Json::object(fields))
                        })
                        .collect(),
                ),
            ),
        ]);
        // Atomic publish: a crash mid-write leaves the previous checkpoint
        // intact because the rename is the only visible step.
        let tmp = self.path.with_extension("json.tmp");
        std::fs::write(&tmp, doc.to_pretty()).map_err(io)?;
        std::fs::rename(&tmp, &self.path).map_err(io)
    }
}

fn parse_cells(text: &str, fingerprint: &str) -> Result<BTreeMap<String, CellRecord>, String> {
    let doc = Json::parse(text)?;
    let root = doc.as_object().ok_or("top level is not an object")?;
    let found = root
        .get("fingerprint")
        .and_then(Json::as_str)
        .ok_or("missing fingerprint")?;
    if found != fingerprint {
        return Err(format!(
            "configuration changed: was {found:?}, now {fingerprint:?}"
        ));
    }
    let cells = root
        .get("cells")
        .and_then(Json::as_object)
        .ok_or("missing cells object")?;
    let mut out = BTreeMap::new();
    for (key, cell) in cells {
        let fields = cell
            .as_object()
            .ok_or_else(|| format!("cell {key:?} is not an object"))?;
        let record = CellRecord {
            value: fields
                .get("value")
                .and_then(Json::as_str)
                .ok_or_else(|| format!("cell {key:?} has no value"))?
                .to_string(),
            outcome: fields
                .get("outcome")
                .and_then(Json::as_str)
                .unwrap_or("ok")
                .to_string(),
            attempts: fields.get("attempts").and_then(Json::as_usize).unwrap_or(1),
            detail: fields
                .get("detail")
                .and_then(Json::as_str)
                .map(str::to_string),
            artifacts: fields
                .get("artifacts")
                .and_then(Json::as_array)
                .map(|items| {
                    items
                        .iter()
                        .filter_map(Json::as_str)
                        .map(str::to_string)
                        .collect()
                })
                .unwrap_or_default(),
        };
        out.insert(key.clone(), record);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_out_dir(tag: &str) -> String {
        let dir = std::env::temp_dir().join(format!("bbgnn_ckpt_{tag}"));
        let _ = std::fs::remove_dir_all(&dir);
        dir.display().to_string()
    }

    fn rec(value: &str) -> CellRecord {
        CellRecord {
            value: value.to_string(),
            outcome: "ok".to_string(),
            attempts: 1,
            detail: None,
            artifacts: vec![],
        }
    }

    #[test]
    fn records_survive_reopen() {
        let out = temp_out_dir("reopen");
        let mut a = Checkpoint::open(&out, "table4", "fp1");
        assert_eq!(a.resumed_cells(), 0);
        a.record("cora/Clean/GCN", rec("81.2±0.4")).unwrap();
        a.record("cora/PEEGA/GCN", rec("62.1±1.2")).unwrap();

        let b = Checkpoint::open(&out, "table4", "fp1");
        assert_eq!(b.resumed_cells(), 2);
        assert_eq!(b.get("cora/PEEGA/GCN").unwrap().value, "62.1±1.2");
        let _ = std::fs::remove_dir_all(&out);
    }

    #[test]
    fn fingerprint_mismatch_starts_fresh() {
        let out = temp_out_dir("stale");
        let mut a = Checkpoint::open(&out, "table4", "scale=0.1");
        a.record("k", rec("v")).unwrap();
        let b = Checkpoint::open(&out, "table4", "scale=0.5");
        assert_eq!(
            b.resumed_cells(),
            0,
            "a stale checkpoint must not be resumed"
        );
        let _ = std::fs::remove_dir_all(&out);
    }

    #[test]
    fn corrupt_checkpoint_is_ignored_not_fatal() {
        let out = temp_out_dir("corrupt");
        std::fs::create_dir_all(&out).unwrap();
        std::fs::write(Path::new(&out).join("fig6.checkpoint.json"), "{ not json").unwrap();
        let c = Checkpoint::open(&out, "fig6", "fp");
        assert_eq!(c.resumed_cells(), 0);
        let _ = std::fs::remove_dir_all(&out);
    }

    #[test]
    fn zero_length_checkpoint_restarts_fresh() {
        let out = temp_out_dir("empty");
        std::fs::create_dir_all(&out).unwrap();
        std::fs::write(Path::new(&out).join("t.checkpoint.json"), "").unwrap();
        let mut c = Checkpoint::open(&out, "t", "fp");
        assert_eq!(c.resumed_cells(), 0, "empty file must be treated as fresh");
        // And the run must be able to proceed normally afterwards.
        c.record("k", rec("v")).unwrap();
        let d = Checkpoint::open(&out, "t", "fp");
        assert_eq!(d.resumed_cells(), 1);
        let _ = std::fs::remove_dir_all(&out);
    }

    #[test]
    fn truncated_checkpoint_restarts_fresh() {
        let out = temp_out_dir("truncated");
        let mut a = Checkpoint::open(&out, "t", "fp");
        a.record("k1", rec("v1")).unwrap();
        a.record("k2", rec("v2")).unwrap();
        // Simulate a crash that cut the file mid-JSON.
        let path = Path::new(&out).join("t.checkpoint.json");
        let full = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, &full[..full.len() / 2]).unwrap();
        let b = Checkpoint::open(&out, "t", "fp");
        assert_eq!(
            b.resumed_cells(),
            0,
            "a truncated checkpoint must restart, not abort"
        );
        let _ = std::fs::remove_dir_all(&out);
    }

    #[test]
    fn artifacts_roundtrip_through_checkpoint() {
        let out = temp_out_dir("artifacts");
        let mut a = Checkpoint::open(&out, "t", "fp");
        a.record(
            "cell",
            CellRecord {
                artifacts: vec![
                    "model-gcn-00ff.bba".to_string(),
                    "prep-1234.bba".to_string(),
                ],
                ..rec("v")
            },
        )
        .unwrap();
        let b = Checkpoint::open(&out, "t", "fp");
        assert_eq!(
            b.get("cell").unwrap().artifacts,
            vec!["model-gcn-00ff.bba", "prep-1234.bba"]
        );
        // Cells without artifacts stay artifact-free after a reopen.
        let mut c = Checkpoint::open(&out, "t", "fp");
        c.record("plain", rec("w")).unwrap();
        let d = Checkpoint::open(&out, "t", "fp");
        assert!(d.get("plain").unwrap().artifacts.is_empty());
        let _ = std::fs::remove_dir_all(&out);
    }

    #[test]
    fn failed_cells_keep_their_detail() {
        let out = temp_out_dir("detail");
        let mut a = Checkpoint::open(&out, "t", "fp");
        a.record(
            "bad",
            CellRecord {
                value: "n/a".to_string(),
                outcome: "failed".to_string(),
                attempts: 3,
                detail: Some("training loss became NaN".to_string()),
                artifacts: vec![],
            },
        )
        .unwrap();
        let b = Checkpoint::open(&out, "t", "fp");
        let r = b.get("bad").unwrap();
        assert_eq!(r.outcome, "failed");
        assert_eq!(r.attempts, 3);
        assert_eq!(r.detail.as_deref(), Some("training loss became NaN"));
        let _ = std::fs::remove_dir_all(&out);
    }
}
