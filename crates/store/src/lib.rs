//! Content-addressed on-disk artifact cache (DESIGN.md §10).
//!
//! Every expensive intermediate of the experiment pipeline — trained
//! surrogates, normalized-adjacency propagations, SVD/eigen factor
//! bundles — is a pure function of its inputs, because the whole
//! workspace is bitwise-deterministic (DESIGN.md §7). That makes the
//! results cacheable by *content*: the cache key fingerprints the exact
//! bits of the input graph plus every config knob and the seed, so a
//! perturbed graph can never alias a clean one, and a cache hit is
//! bitwise-indistinguishable from recomputation.
//!
//! The store is strictly an accelerator: it is off unless initialized
//! (`--store <dir>` / `BBGNN_STORE=<dir>`), a lookup failure of any kind
//! degrades to a miss, and a write failure degrades to a warning. No
//! experiment result may ever depend on whether the store is present.
//!
//! The boundary, written once: a value crosses the store as its own type,
//! which implements [`Artifact`] (the linalg codecs live in [`artifact`];
//! gnn's trained model and serve's job result implement it in their own
//! crates), and an unconditional memo is one [`cached`] call. Only a
//! value with a publish rule — the trainer never stores an interrupted
//! run, GF-Attack has no eigenpairs to store after a supervision stop —
//! calls [`lookup`] and [`publish`] itself.
//!
//! Layering: this crate sits at the bottom of the workspace graph
//! (depends only on `linalg` + `obs`), so every layer above — gnn,
//! attack, defense, bench — can persist artifacts without cycles.

#![deny(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod artifact;
pub mod format;

pub use format::{Artifact, FORMAT_VERSION};

use bbgnn_linalg::content_hash::{fnv1a64, Fnv1a};
use bbgnn_obs as obs;
use std::cell::RefCell;
use std::fmt::Write as _;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

/// File extension of every artifact ("bbgnn artifact").
pub const ARTIFACT_EXT: &str = "bba";

// ---------------------------------------------------------------------------
// Keys
// ---------------------------------------------------------------------------

/// A deterministic cache key: a kind plus a pipe-joined field list.
///
/// The full text (e.g. `model/gcn|hidden=16|graph=0x3f…|lr=0.01|seed=0`)
/// is embedded in the artifact header and compared on every read, so the
/// 64-bit filename hash only routes — it can never serve a wrong value.
/// Field order is fixed by the call site, mirroring the bench-config
/// fingerprint idiom (`ExpConfig::fingerprint`).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Key {
    kind: &'static str,
    text: String,
}

impl Key {
    /// Starts a key of the given kind (e.g. `"model/gcn"`). The current
    /// [`FORMAT_VERSION`] is folded in so a format bump invalidates every
    /// existing artifact by key, not just by header check.
    pub fn new(kind: &'static str) -> Self {
        let mut text = String::with_capacity(64);
        text.push_str(kind);
        let _ = write!(text, "|v{FORMAT_VERSION}");
        Key { kind, text }
    }

    /// Appends a `name=value` field.
    pub fn field(mut self, name: &str, value: impl std::fmt::Display) -> Self {
        let _ = write!(self.text, "|{name}={value}");
        self
    }

    /// Appends a content-hash field in fixed-width hex (for graph /
    /// matrix fingerprints from [`bbgnn_linalg::content_hash`]).
    pub fn hash_field(mut self, name: &str, hash: u64) -> Self {
        let _ = write!(self.text, "|{name}={hash:#018x}");
        self
    }

    /// The key's kind.
    pub fn kind(&self) -> &'static str {
        self.kind
    }

    /// The full key text (embedded verbatim in the artifact header).
    pub fn text(&self) -> &str {
        &self.text
    }

    /// The artifact filename this key routes to:
    /// `<kind with '/'→'-'>-<16-hex fnv1a of text>.bba`.
    pub fn filename(&self) -> String {
        let kind: String = self
            .kind
            .chars()
            .map(|c| if c.is_ascii_alphanumeric() { c } else { '-' })
            .collect();
        format!(
            "{kind}-{:016x}.{ARTIFACT_EXT}",
            fnv1a64(self.text.as_bytes())
        )
    }

    /// Convenience: folds an arbitrary string through FNV-1a into a
    /// [`Key::hash_field`] (for config blobs too long to inline).
    pub fn hashed_str_field(self, name: &str, value: &str) -> Self {
        let mut h = Fnv1a::new();
        h.bytes(value.as_bytes());
        self.hash_field(name, h.finish())
    }
}

// ---------------------------------------------------------------------------
// Store
// ---------------------------------------------------------------------------

/// Unique-per-process temp-file counter (concurrent writers each get
/// their own tempfile; the final `rename` is atomic).
static TMP_COUNTER: AtomicU64 = AtomicU64::new(0);

/// An on-disk artifact store rooted at one directory (flat layout: one
/// `.bba` file per artifact).
#[derive(Debug)]
pub struct Store {
    root: PathBuf,
}

impl Store {
    /// Opens (creating if needed) a store rooted at `root`.
    pub fn open(root: impl Into<PathBuf>) -> Result<Self, String> {
        let root = root.into();
        fs::create_dir_all(&root)
            .map_err(|e| format!("cannot create store root {}: {e}", root.display()))?;
        Ok(Store { root })
    }

    /// The store's root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// Absolute path an artifact with this key lives at.
    pub fn path_for(&self, key: &Key) -> PathBuf {
        self.root.join(key.filename())
    }

    /// Looks up an artifact. Any failure — absent file, stale format
    /// version, checksum mismatch, key collision, decode error — returns
    /// `None`; corruption additionally warns on stderr. Emits
    /// `store/hit` / `store/miss` counters and times the read + decode
    /// under the `store/load` kernel timer.
    pub fn get<A: Artifact>(&self, key: &Key) -> Option<A> {
        let _t = obs::kernel_timer("store/load");
        let path = self.path_for(key);
        let bytes = match fs::read(&path) {
            Ok(b) => b,
            Err(_) => {
                obs::counter("store/miss", 1);
                return None;
            }
        };
        match decode_framed::<A>(&bytes, key) {
            Ok(Some(a)) => {
                obs::counter("store/hit", 1);
                note_artifact(&key.filename());
                Some(a)
            }
            Ok(None) => {
                // Stale version or key-text collision: expected, silent.
                obs::counter("store/miss", 1);
                None
            }
            Err(e) => {
                eprintln!(
                    "bbgnn-store: ignoring corrupt artifact {}: {e}",
                    path.display()
                );
                obs::counter("store/miss", 1);
                None
            }
        }
    }

    /// Writes an artifact: encode, frame, write to a process-unique
    /// tempfile, atomically rename into place. Emits `store/write`.
    pub fn put<A: Artifact>(&self, key: &Key, value: &A) -> Result<(), String> {
        let mut w = format::Writer::new();
        value.encode(&mut w);
        let payload = w.into_bytes();
        let mut img = format::frame(A::TAG, key.text(), &payload);
        // Deterministic fault sites (DESIGN.md §11): a corrupted image must
        // degrade to a miss on `get`, a short write models a crash/full
        // disk mid-put. Both still go through the atomic-rename path.
        if let Some(shot) = bbgnn_supervise::fault_at("fault/store_corrupt") {
            let idx = shot.pick(img.len());
            img[idx] ^= 0xFF;
        }
        if let Some(shot) = bbgnn_supervise::fault_at("fault/store_short_write") {
            img.truncate(shot.pick(img.len().max(1)));
        }
        let tmp = self.root.join(format!(
            ".tmp-{}-{}",
            std::process::id(),
            TMP_COUNTER.fetch_add(1, Ordering::Relaxed)
        ));
        let dst = self.path_for(key);
        fs::write(&tmp, &img).map_err(|e| format!("write {}: {e}", tmp.display()))?;
        fs::rename(&tmp, &dst).map_err(|e| {
            let _ = fs::remove_file(&tmp);
            format!("rename into {}: {e}", dst.display())
        })?;
        obs::counter("store/write", 1);
        note_artifact(&key.filename());
        Ok(())
    }
}

/// Deframes + decodes one artifact image against an expected key.
/// `Ok(None)` = well-formed but not ours (stale version or key-text
/// mismatch after a filename-hash collision); `Err` = corrupt.
fn decode_framed<A: Artifact>(bytes: &[u8], key: &Key) -> Result<Option<A>, String> {
    let framed = match format::deframe(bytes) {
        Ok(f) => f,
        // deframe reports version mismatch with this fixed prefix; it is
        // the one well-formed "not ours" envelope failure.
        Err(e) if e.starts_with("format version") => return Ok(None),
        Err(e) => return Err(e),
    };
    if framed.key_text != key.text() {
        return Ok(None);
    }
    if framed.tag != A::TAG {
        return Err(format!(
            "kind tag {} does not match expected {} for {}",
            framed.tag,
            A::TAG,
            A::KIND
        ));
    }
    let mut r = format::Reader::new(framed.payload);
    let value = A::decode(&mut r)?;
    r.finish()?;
    Ok(Some(value))
}

// ---------------------------------------------------------------------------
// Global store (mirrors the obs global-sink pattern)
// ---------------------------------------------------------------------------

static ENABLED: AtomicBool = AtomicBool::new(false);
static GLOBAL: RwLock<Option<Arc<Store>>> = RwLock::new(None);

/// Whether a global store is installed (one relaxed load — the fast
/// gate every cache-aware call site checks first).
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Installs a process-global store rooted at `path`.
pub fn init_to_path(path: &str) -> Result<(), String> {
    let store = Store::open(path)?;
    if let Ok(mut g) = GLOBAL.write() {
        *g = Some(Arc::new(store));
        ENABLED.store(true, Ordering::Relaxed);
    }
    Ok(())
}

/// The installed global store, if any.
pub fn global() -> Option<Arc<Store>> {
    if !enabled() {
        return None;
    }
    GLOBAL.read().ok().and_then(|g| g.clone())
}

/// Uninstalls the global store (tests; idempotent).
pub fn shutdown() {
    ENABLED.store(false, Ordering::Relaxed);
    if let Ok(mut g) = GLOBAL.write() {
        *g = None;
    }
}

/// Looks up `key` in the global store; `None` when no store is active.
pub fn lookup<A: Artifact>(key: &Key) -> Option<A> {
    global()?.get(key)
}

/// Writes to the global store if active; failures warn and are dropped
/// (the cache is an accelerator, never a correctness dependency).
pub fn publish<A: Artifact>(key: &Key, value: &A) {
    if let Some(store) = global() {
        if let Err(e) = store.put(key, value) {
            eprintln!("bbgnn-store: dropping artifact {}: {e}", key.text());
        }
    }
}

/// The read-through memo: `compute()` served from the global store.
///
/// With no store installed this is `compute()`, and `key` is never
/// called (a key usually content-hashes its inputs). Otherwise a hit is
/// returned, and a miss is computed, published and returned, with the
/// counters, recording and dropped-write warning of [`lookup`] and
/// [`publish`]. For a value that must sometimes not be stored, call
/// those two directly and name the rule at the call site.
pub fn cached<A: Artifact>(key: impl FnOnce() -> Key, compute: impl FnOnce() -> A) -> A {
    if !enabled() {
        return compute();
    }
    let key = key();
    if let Some(hit) = lookup(&key) {
        return hit;
    }
    let value = compute();
    publish(&key, &value);
    value
}

// ---------------------------------------------------------------------------
// Artifact recording (checkpoint liveness for `gc`)
// ---------------------------------------------------------------------------

thread_local! {
    static RECORDING: RefCell<Option<Vec<String>>> = const { RefCell::new(None) };
}

/// Starts recording artifact filenames touched (hit or written) by this
/// thread, until [`take_recording`]. `FaultRunner::cell` wraps each cell
/// body with this so checkpoints can pin their artifacts against `gc`.
pub fn start_recording() {
    RECORDING.with(|r| *r.borrow_mut() = Some(Vec::new()));
}

/// Stops recording and returns the deduplicated filenames, in
/// first-touch order.
pub fn take_recording() -> Vec<String> {
    RECORDING.with(|r| r.borrow_mut().take().unwrap_or_default())
}

fn note_artifact(filename: &str) {
    RECORDING.with(|r| {
        if let Some(v) = r.borrow_mut().as_mut() {
            if !v.iter().any(|f| f == filename) {
                v.push(filename.to_string());
            }
        }
    });
}

// ---------------------------------------------------------------------------
// Maintenance (the `bbgnn-store` CLI is a thin shell over these)
// ---------------------------------------------------------------------------

/// One artifact as listed by [`ls`].
#[derive(Debug)]
pub struct LsEntry {
    /// Artifact filename (relative to the store root).
    pub file: String,
    /// File size in bytes.
    pub bytes: u64,
    /// Key text from the header, or the envelope error for bad files.
    pub status: Result<String, String>,
}

/// Sorted `.bba` files under `root` (deterministic listing order).
fn artifact_files(root: &Path) -> Result<Vec<PathBuf>, String> {
    let rd = fs::read_dir(root).map_err(|e| format!("read_dir {}: {e}", root.display()))?;
    let mut files: Vec<PathBuf> = Vec::new();
    for entry in rd {
        let entry = entry.map_err(|e| format!("read_dir {}: {e}", root.display()))?;
        let path = entry.path();
        if path.extension().and_then(|e| e.to_str()) == Some(ARTIFACT_EXT) {
            files.push(path);
        }
    }
    files.sort();
    Ok(files)
}

/// Lists every artifact under `root` with its recorded key text.
pub fn ls(root: &Path) -> Result<Vec<LsEntry>, String> {
    let mut out = Vec::new();
    for path in artifact_files(root)? {
        let file = path
            .file_name()
            .and_then(|f| f.to_str())
            .unwrap_or_default()
            .to_string();
        let bytes = fs::metadata(&path).map(|m| m.len()).unwrap_or(0);
        let status = match fs::read(&path) {
            Ok(img) => format::deframe(&img).map(|f| f.key_text),
            Err(e) => Err(format!("read: {e}")),
        };
        out.push(LsEntry {
            file,
            bytes,
            status,
        });
    }
    Ok(out)
}

/// Outcome of a [`verify`] pass.
#[derive(Debug, Default)]
pub struct VerifyReport {
    /// Artifacts whose envelope (magic, version, checksum, lengths) is valid.
    pub ok: usize,
    /// Stale artifacts (older/newer format version; read back as misses).
    pub stale: Vec<String>,
    /// Corrupt artifacts with the failure reason.
    pub corrupt: Vec<(String, String)>,
}

/// Verifies the envelope of every artifact under `root`.
pub fn verify(root: &Path) -> Result<VerifyReport, String> {
    let mut report = VerifyReport::default();
    for entry in ls(root)? {
        match entry.status {
            Ok(_) => report.ok += 1,
            Err(e) if e.starts_with("format version") => report.stale.push(entry.file),
            Err(e) => report.corrupt.push((entry.file, e)),
        }
    }
    Ok(report)
}

/// Outcome of a [`gc`] pass.
#[derive(Debug, Default)]
pub struct GcReport {
    /// Artifacts kept because a live checkpoint references them.
    pub live: Vec<String>,
    /// Artifacts deleted (or, under `dry_run`, that would be).
    pub removed: Vec<String>,
}

/// Recursively collects the contents of every `.json` file under `dir`
/// (checkpoints and result JSON) into `sink` for liveness matching.
fn collect_json_text(dir: &Path, sink: &mut String) -> Result<(), String> {
    let rd = fs::read_dir(dir).map_err(|e| format!("read_dir {}: {e}", dir.display()))?;
    for entry in rd {
        let entry = entry.map_err(|e| format!("read_dir {}: {e}", dir.display()))?;
        let path = entry.path();
        if path.is_dir() {
            collect_json_text(&path, sink)?;
        } else if path.extension().and_then(|e| e.to_str()) == Some("json") {
            if let Ok(text) = fs::read_to_string(&path) {
                sink.push_str(&text);
                sink.push('\n');
            }
        }
    }
    Ok(())
}

/// Deletes artifacts not referenced by any checkpoint/result JSON under
/// the `live_from` directories. Liveness is a conservative substring
/// match on the artifact filename — over-approximating keeps `gc` safe
/// without a dependency on the checkpoint schema. Stray tempfiles from
/// crashed writers are always swept. Requires at least one `live_from`
/// root so `gc` can never run blind.
pub fn gc(root: &Path, live_from: &[PathBuf], dry_run: bool) -> Result<GcReport, String> {
    if live_from.is_empty() {
        return Err("gc requires at least one --live-from directory".to_string());
    }
    let mut live_text = String::new();
    for dir in live_from {
        collect_json_text(dir, &mut live_text)?;
    }
    let mut report = GcReport::default();
    for path in artifact_files(root)? {
        let file = path
            .file_name()
            .and_then(|f| f.to_str())
            .unwrap_or_default()
            .to_string();
        if live_text.contains(&file) {
            report.live.push(file);
        } else {
            if !dry_run {
                fs::remove_file(&path).map_err(|e| format!("remove {}: {e}", path.display()))?;
            }
            report.removed.push(file);
        }
    }
    if !dry_run {
        if let Ok(rd) = fs::read_dir(root) {
            for entry in rd.flatten() {
                let name = entry.file_name();
                if name.to_string_lossy().starts_with(".tmp-") {
                    let _ = fs::remove_file(entry.path());
                }
            }
        }
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bbgnn_linalg::DenseMatrix;

    fn tmp_root(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("bbgnn-store-test-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn key_text_and_filename_are_deterministic() {
        let k = Key::new("model/gcn")
            .field("hidden", 16)
            .hash_field("graph", 0xdead_beef)
            .field("seed", 0);
        assert_eq!(
            k.text(),
            format!("model/gcn|v{FORMAT_VERSION}|hidden=16|graph=0x00000000deadbeef|seed=0")
        );
        let k2 = Key::new("model/gcn")
            .field("hidden", 16)
            .hash_field("graph", 0xdead_beef)
            .field("seed", 0);
        assert_eq!(k.filename(), k2.filename());
        assert!(k.filename().starts_with("model-gcn-"));
        assert!(k.filename().ends_with(".bba"));
        let other = Key::new("model/gcn")
            .field("hidden", 16)
            .hash_field("graph", 0xdead_beef)
            .field("seed", 1);
        assert_ne!(k.filename(), other.filename(), "seed must change the key");
    }

    #[test]
    fn put_get_roundtrip_and_miss_paths() {
        let root = tmp_root("roundtrip");
        let store = Store::open(&root).expect("open");
        let key = Key::new("dense/test").field("case", "roundtrip");
        assert!(
            store.get::<DenseMatrix>(&key).is_none(),
            "cold store misses"
        );

        let m = DenseMatrix::from_vec(2, 2, vec![1.0, -0.0, 3.5, f64::MIN_POSITIVE]);
        store.put(&key, &m).expect("put");
        let back: DenseMatrix = store.get(&key).expect("hit");
        assert_eq!(back.content_hash(), m.content_hash(), "bitwise roundtrip");

        let other = Key::new("dense/test").field("case", "other");
        assert!(store.get::<DenseMatrix>(&other).is_none());
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn corrupt_artifact_is_a_miss_and_verify_reports_it() {
        let root = tmp_root("corrupt");
        let store = Store::open(&root).expect("open");
        let key = Key::new("dense/test").field("case", "corrupt");
        store
            .put(&key, &DenseMatrix::from_vec(1, 2, vec![1.0, 2.0]))
            .expect("put");

        let path = store.path_for(&key);
        let mut img = fs::read(&path).expect("read");
        let mid = img.len() / 2;
        img[mid] ^= 0x01;
        fs::write(&path, &img).expect("rewrite");

        assert!(
            store.get::<DenseMatrix>(&key).is_none(),
            "checksum mismatch must read as a miss"
        );
        let report = verify(&root).expect("verify");
        assert_eq!(report.ok, 0);
        assert_eq!(report.corrupt.len(), 1);
        assert!(report.corrupt[0].1.contains("checksum"));
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn format_version_bump_invalidates() {
        let root = tmp_root("version");
        let store = Store::open(&root).expect("open");
        let key = Key::new("dense/test").field("case", "version");
        store
            .put(&key, &DenseMatrix::from_vec(1, 1, vec![9.0]))
            .expect("put");

        // Simulate an artifact written by a future format: bump the
        // version field and re-checksum so only the version differs.
        let path = store.path_for(&key);
        let mut img = fs::read(&path).expect("read");
        img[4] = img[4].wrapping_add(1);
        let body = img.len() - 8;
        let sum = format::fletcher64(&img[..body]).to_le_bytes();
        img[body..].copy_from_slice(&sum);
        fs::write(&path, &img).expect("rewrite");

        assert!(
            store.get::<DenseMatrix>(&key).is_none(),
            "future-version artifact must read as a (silent) miss"
        );
        let report = verify(&root).expect("verify");
        assert_eq!(report.stale.len(), 1);
        assert!(report.corrupt.is_empty());
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn key_collision_text_mismatch_is_a_miss() {
        let root = tmp_root("collision");
        let store = Store::open(&root).expect("open");
        let key = Key::new("dense/test").field("case", "collision");
        store
            .put(&key, &DenseMatrix::from_vec(1, 1, vec![1.0]))
            .expect("put");

        // Force a filename collision with a *different* key by copying
        // the artifact over the other key's slot.
        let imposter = Key::new("dense/test").field("case", "imposter");
        fs::copy(store.path_for(&key), store.path_for(&imposter)).expect("copy");
        assert!(
            store.get::<DenseMatrix>(&imposter).is_none(),
            "embedded key text must reject the aliased artifact"
        );
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn concurrent_writers_leave_a_valid_artifact() {
        let root = tmp_root("concurrent");
        let store = Arc::new(Store::open(&root).expect("open"));
        let key = Key::new("dense/test").field("case", "concurrent");
        let m = DenseMatrix::from_vec(8, 8, (0..64).map(|i| i as f64 * 0.5).collect());

        let handles: Vec<_> = (0..8)
            .map(|_| {
                let store = Arc::clone(&store);
                let key = key.clone();
                let m = m.clone();
                std::thread::spawn(move || store.put(&key, &m).expect("put"))
            })
            .collect();
        for h in handles {
            h.join().expect("join");
        }

        let back: DenseMatrix = store.get(&key).expect("hit after racing writers");
        assert_eq!(back.content_hash(), m.content_hash());
        // No tempfile litter.
        let strays = fs::read_dir(&root)
            .expect("read_dir")
            .flatten()
            .filter(|e| e.file_name().to_string_lossy().starts_with(".tmp-"))
            .count();
        assert_eq!(strays, 0, "every tempfile must be renamed away");
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn gc_protects_checkpoint_referenced_artifacts() {
        let root = tmp_root("gc");
        let store = Store::open(&root).expect("open");
        let live_key = Key::new("model/gcn").field("case", "live");
        let dead_key = Key::new("model/gcn").field("case", "dead");
        let m = DenseMatrix::from_vec(1, 1, vec![1.0]);
        store.put(&live_key, &m).expect("put");
        store.put(&dead_key, &m).expect("put");

        // A checkpoint that references the live artifact by filename.
        let ckpt_dir = root.join("results");
        fs::create_dir_all(&ckpt_dir).expect("mkdir");
        fs::write(
            ckpt_dir.join("tables_main.checkpoint.json"),
            format!(
                "{{\"cells\":{{\"cora/pgd/gcn\":{{\"artifacts\":[\"{}\"]}}}}}}",
                live_key.filename()
            ),
        )
        .expect("write checkpoint");

        assert!(
            gc(&root, &[], false).is_err(),
            "gc without live roots must refuse to run"
        );

        let dry = gc(&root, std::slice::from_ref(&ckpt_dir), true).expect("dry run");
        assert_eq!(dry.live, vec![live_key.filename()]);
        assert_eq!(dry.removed, vec![dead_key.filename()]);
        assert!(
            store.path_for(&dead_key).exists(),
            "dry run must not delete"
        );

        let wet = gc(&root, &[ckpt_dir], false).expect("gc");
        assert_eq!(wet.removed, vec![dead_key.filename()]);
        assert!(store.path_for(&live_key).exists(), "live artifact survives");
        assert!(!store.path_for(&dead_key).exists(), "dead artifact removed");
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn recording_captures_hits_and_writes_once() {
        let root = tmp_root("recording");
        let store = Store::open(&root).expect("open");
        let key = Key::new("dense/test").field("case", "recording");
        let m = DenseMatrix::from_vec(1, 1, vec![2.0]);

        start_recording();
        store.put(&key, &m).expect("put");
        let _: Option<DenseMatrix> = store.get(&key);
        let _: Option<DenseMatrix> = store.get(&key);
        let recorded = take_recording();
        assert_eq!(recorded, vec![key.filename()], "deduplicated");
        assert!(take_recording().is_empty(), "take must stop the recording");
        let _ = fs::remove_dir_all(&root);
    }

    /// The only test in this binary that installs the global store.
    #[test]
    fn cached_computes_once_and_builds_no_key_without_a_store() {
        let keys = std::cell::Cell::new(0);
        let computes = std::cell::Cell::new(0);
        let key = || {
            keys.set(keys.get() + 1);
            Key::new("dense/test").field("case", "cached")
        };
        let compute = || {
            computes.set(computes.get() + 1);
            DenseMatrix::from_vec(1, 2, vec![-0.0, 7.5])
        };

        shutdown();
        let bare = cached(key, compute);
        assert_eq!(keys.get(), 0, "no store: the key closure must not run");
        assert_eq!(computes.get(), 1);

        let root = tmp_root("cached");
        init_to_path(&root.display().to_string()).expect("init");
        let cold = cached(key, compute);
        let warm = cached(key, compute);
        shutdown();
        assert_eq!(keys.get(), 2);
        assert_eq!(computes.get(), 2, "the second call is a hit");
        assert_eq!(warm.content_hash(), cold.content_hash());
        assert_eq!(warm.content_hash(), bare.content_hash());
        assert!(
            root.join(key().filename()).exists(),
            "the miss was published"
        );
        let _ = fs::remove_dir_all(&root);
    }
}
