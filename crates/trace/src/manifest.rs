//! The advisory index shared by the content-addressed stores: one
//! `manifest.tsv` per store directory, with batched writes and the LRU
//! garbage-collection pass that reads it.
//!
//! A store directory holds self-checking body files named
//! `<digest>.<ext>` plus this index: a versioned tab-separated table with
//! one [`Row`] per body (labels, size, `last_used` stamp in Unix seconds).
//! The index is *advisory*: it labels `stats` listings and ranks bodies
//! for eviction, but a lost or stale manifest only costs labels and
//! eviction order, never correctness.
//!
//! # Batched writes
//!
//! Stamps have one-second resolution, so a handle writes the manifest at
//! most once per second. Loads and saves record their row in the handle
//! ([`Manifest::loaded`], [`Manifest::saved`]); the first store operation
//! in a second in which the handle has not written yet merges every
//! pending row (its own included) into the manifest in one locked
//! read-modify-write, and runs one GC pass if any pending row came from a
//! save. [`Manifest::rows`], [`Manifest::gc`] and `Drop` flush first.
//! Merging keeps LRU meaning:
//!
//! * a save's row replaces the manifest row (its stamp never goes back);
//! * a load's stamp sets `last_used = max(existing, stamp)`;
//! * a load of a digest the manifest lacks indexes that orphan with the
//!   row the store built for it.
//!
//! Consequences: other handles see this handle's stamps only after its
//! next operation in a later second, or after it is dropped; a body not
//! yet indexed ranks by its file mtime, which is its save time; and the
//! byte cap is enforced once per flush, so a store can exceed it by at
//! most one second of one handle's saves.
//!
//! # Locking
//!
//! Merges are serialized within a handle by its pending-row mutex and
//! across handles and processes by an exclusively created `manifest.lock`
//! file. The lock only ever delays: a lock older than two seconds is
//! presumed left by a crashed writer and broken, and after a bounded wait
//! the merge proceeds unlocked — metadata must never block a sweep.

use std::collections::{HashMap, HashSet};
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::{Duration, SystemTime, UNIX_EPOCH};

/// File name of the index inside a store directory.
pub const MANIFEST_FILE: &str = "manifest.tsv";
const LOCK_FILE: &str = "manifest.lock";

/// A lock file older than this is presumed left by a crashed writer and
/// broken.
const LOCK_STALE_AGE: Duration = Duration::from_secs(2);

/// One manifest line: a store's metadata for one body.
pub trait Row: Clone {
    /// First field of the header line (`<TAG>\t<VERSION>`); a file with
    /// any other header reads as an empty manifest.
    const TAG: &'static str;
    /// Second field of the header line.
    const VERSION: u32;
    /// The body's content digest (its file stem).
    fn digest(&self) -> &str;
    /// Unix seconds of the last load or save.
    fn last_used(&self) -> u64;
    /// Replaces the `last_used` stamp.
    fn set_last_used(&mut self, stamp: u64);
    /// The row as one tab-separated line, without the newline. Free-form
    /// fields go last, so embedded tabs cannot shift the fixed columns.
    fn to_line(&self) -> String;
    /// Inverse of [`Row::to_line`]; `None` skips an unreadable line.
    fn parse(line: &str) -> Option<Self>;
}

/// What one GC pass evicted.
#[derive(Debug, Clone, Default)]
pub struct GcReport {
    /// `(digest, bytes)` of evicted bodies, least recently used first.
    pub evicted: Vec<(String, u64)>,
    /// Body bytes remaining on disk after the pass.
    pub live_bytes: u64,
}

/// Integrity-check result for one body on disk.
#[derive(Debug, Clone)]
pub struct VerifyEntry {
    /// Content digest (the file stem).
    pub digest: String,
    /// File size in bytes.
    pub bytes: u64,
    /// `None` when the file passed every check, else the failure reason.
    pub error: Option<String>,
}

impl VerifyEntry {
    /// Whether the body passed every check.
    pub fn is_ok(&self) -> bool {
        self.error.is_none()
    }
}

/// Unix seconds now (0 if the clock reads before the epoch).
pub fn unix_now() -> u64 {
    SystemTime::now().duration_since(UNIX_EPOCH).map(|d| d.as_secs()).unwrap_or(0)
}

/// Renders a manifest: the header line, then one line per row.
pub fn format<R: Row>(rows: &[R]) -> String {
    let mut out = format!("{}\t{}\n", R::TAG, R::VERSION);
    for r in rows {
        out.push_str(&r.to_line());
        out.push('\n');
    }
    out
}

/// Inverse of [`format()`]. Unreadable lines are skipped rather than
/// failing the whole file: partial recovery beats none.
pub fn parse<R: Row>(text: &str) -> Vec<R> {
    let mut lines = text.lines();
    let header_ok = lines
        .next()
        .and_then(|h| h.strip_prefix(R::TAG))
        .is_some_and(|rest| rest.starts_with('\t'));
    if !header_ok {
        return Vec::new();
    }
    lines.filter_map(R::parse).collect()
}

/// One pending change to a manifest row.
#[derive(Debug)]
struct Change<R> {
    row: R,
    /// Whether a save produced it (its labels replace the manifest's).
    saved: bool,
}

#[derive(Debug)]
struct Pending<R> {
    rows: HashMap<String, Change<R>>,
    /// Unix second of this handle's last manifest write (0 = never).
    written_at: u64,
}

/// One handle's view of a store directory's manifest: body paths, the
/// pending rows, the flush and the LRU GC pass. See the module docs.
#[derive(Debug)]
pub struct Manifest<R: Row> {
    root: PathBuf,
    ext: &'static str,
    max_bytes: u64,
    pending: Mutex<Pending<R>>,
}

impl<R: Row> Manifest<R> {
    /// A handle on `root`, whose bodies are `<digest>.<ext>` files and
    /// whose GC pass keeps them under `max_bytes` (floored at one byte).
    pub fn new(root: PathBuf, ext: &'static str, max_bytes: u64) -> Manifest<R> {
        Manifest {
            root,
            ext,
            max_bytes: max_bytes.max(1),
            pending: Mutex::new(Pending { rows: HashMap::new(), written_at: 0 }),
        }
    }

    /// The store's root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// The GC byte cap.
    pub fn max_bytes(&self) -> u64 {
        self.max_bytes
    }

    /// Replaces the GC byte cap (floored at one byte).
    pub fn set_max_bytes(&mut self, max_bytes: u64) {
        self.max_bytes = max_bytes.max(1);
    }

    /// Path of the body file for `digest`.
    pub fn body_path(&self, digest: &str) -> PathBuf {
        self.root.join(format!("{digest}.{}", self.ext))
    }

    /// A staging path unique to this call (not just to `digest`): two
    /// handles writing one name concurrently must each stage into their
    /// own file, or interleaved writes could rename a torn file into place.
    pub fn tmp_path(&self, digest: &str) -> PathBuf {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let seq = SEQ.fetch_add(1, Ordering::Relaxed);
        self.root.join(format!(".{digest}.{}.{seq}.tmp", std::process::id()))
    }

    /// Body files on disk: `(digest, bytes)` pairs sorted by digest.
    pub fn scan(&self) -> Vec<(String, u64)> {
        let Ok(dir) = fs::read_dir(&self.root) else { return Vec::new() };
        let mut out: Vec<(String, u64)> = dir
            .flatten()
            .filter_map(|entry| {
                let path = entry.path();
                if path.extension().is_some_and(|e| e == self.ext) {
                    let stem = path.file_stem()?.to_str()?.to_string();
                    let bytes = entry.metadata().ok()?.len();
                    Some((stem, bytes))
                } else {
                    None
                }
            })
            .collect();
        out.sort();
        out
    }

    /// Unix seconds of the body file's mtime (0 when unreadable).
    pub fn mtime(&self, digest: &str) -> u64 {
        fs::metadata(self.body_path(digest))
            .and_then(|m| m.modified())
            .ok()
            .and_then(|t| t.duration_since(UNIX_EPOCH).ok())
            .map_or(0, |d| d.as_secs())
    }

    /// Records a save: `row` (stamped now) replaces the digest's manifest
    /// row at the next flush, which also runs a GC pass.
    pub fn saved(&self, mut row: R) {
        let now = unix_now();
        let mut p = self.pending();
        row.set_last_used(now);
        p.rows.insert(row.digest().to_string(), Change { row, saved: true });
        self.flush_if_stale(&mut p, now);
    }

    /// Records a load of `digest`: its stamp rises to now at the next
    /// flush. `orphan` builds the row to index if the manifest lacks the
    /// digest; it runs only when nothing is pending for the digest yet.
    pub fn loaded(&self, digest: &str, orphan: impl FnOnce() -> R) {
        let now = unix_now();
        let mut p = self.pending();
        match p.rows.get_mut(digest) {
            Some(c) => {
                if c.row.last_used() < now {
                    c.row.set_last_used(now);
                }
            }
            None => {
                let mut row = orphan();
                row.set_last_used(now);
                p.rows.insert(digest.to_string(), Change { row, saved: false });
            }
        }
        self.flush_if_stale(&mut p, now);
    }

    /// Flushes, then returns every manifest row.
    pub fn rows(&self) -> Vec<R> {
        let mut p = self.pending();
        self.flush(&mut p, false);
        self.read()
    }

    /// Flushes, then evicts least-recently-used bodies until the store
    /// fits its byte cap. Recency is the manifest stamp, falling back to
    /// file mtime for unindexed bodies; ties break by digest, so the pass
    /// is deterministic.
    pub fn gc(&self) -> GcReport {
        let mut p = self.pending();
        self.flush(&mut p, true)
    }

    /// Test hook: flushes, then sets an indexed row's stamp (a digest the
    /// manifest lacks is left alone).
    #[doc(hidden)]
    pub fn force_last_used(&self, digest: &str, stamp: u64) {
        let mut p = self.pending();
        self.flush(&mut p, false);
        let _lock = DirLock::acquire(&self.root);
        let mut rows = self.read();
        if let Some(r) = rows.iter_mut().find(|r| r.digest() == digest) {
            r.set_last_used(stamp);
            self.write(&rows);
        }
    }

    fn pending(&self) -> MutexGuard<'_, Pending<R>> {
        self.pending.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Flushes on the first operation in a second other than the one of
    /// this handle's last write (a clock stepped back counts too).
    fn flush_if_stale(&self, p: &mut Pending<R>, now: u64) {
        if now != p.written_at {
            self.flush(p, false);
        }
    }

    /// Merges the pending rows in one locked read-modify-write, then runs a
    /// GC pass if any of them came from a save (or `force_gc`).
    fn flush(&self, p: &mut Pending<R>, force_gc: bool) -> GcReport {
        let changes = std::mem::take(&mut p.rows);
        let run_gc = force_gc || changes.values().any(|c| c.saved);
        if changes.is_empty() {
            if !run_gc {
                return GcReport::default();
            }
            // Nothing to merge: take the lock only if there is evicting to do.
            let live_bytes = self.scan().iter().map(|(_, b)| b).sum();
            if live_bytes <= self.max_bytes {
                return GcReport { evicted: Vec::new(), live_bytes };
            }
        }
        p.written_at = unix_now();
        let _lock = DirLock::acquire(&self.root);
        let mut rows = self.read();
        let at: HashMap<String, usize> =
            rows.iter().enumerate().map(|(i, r)| (r.digest().to_string(), i)).collect();
        let merged = !changes.is_empty();
        for (digest, c) in changes {
            match at.get(&digest) {
                Some(&i) => {
                    let stamp = rows[i].last_used().max(c.row.last_used());
                    if c.saved {
                        rows[i] = c.row;
                    }
                    rows[i].set_last_used(stamp);
                }
                // A body another handle evicted since gets no row.
                None if self.body_path(&digest).exists() => rows.push(c.row),
                None => {}
            }
        }
        let report = if run_gc { self.evict(&mut rows) } else { GcReport::default() };
        if merged || !report.evicted.is_empty() {
            self.write(&rows);
        }
        report
    }

    /// Removes least-recently-used bodies (and their rows) until the store
    /// fits its byte cap.
    fn evict(&self, rows: &mut Vec<R>) -> GcReport {
        let files = self.scan();
        let mut total: u64 = files.iter().map(|(_, b)| b).sum();
        if total <= self.max_bytes {
            return GcReport { evicted: Vec::new(), live_bytes: total };
        }
        let stamps: HashMap<&str, u64> = rows.iter().map(|r| (r.digest(), r.last_used())).collect();
        let mut ranked: Vec<(u64, String, u64)> = files
            .into_iter()
            .map(|(digest, bytes)| {
                let stamp =
                    stamps.get(digest.as_str()).copied().unwrap_or_else(|| self.mtime(&digest));
                (stamp, digest, bytes)
            })
            .collect();
        ranked.sort();
        let mut evicted = Vec::new();
        for (_, digest, bytes) in ranked {
            if total <= self.max_bytes {
                break;
            }
            if fs::remove_file(self.body_path(&digest)).is_ok() {
                total = total.saturating_sub(bytes);
                evicted.push((digest, bytes));
            }
        }
        let gone: HashSet<&str> = evicted.iter().map(|(d, _)| d.as_str()).collect();
        rows.retain(|r| !gone.contains(r.digest()));
        GcReport { evicted, live_bytes: total }
    }

    fn read(&self) -> Vec<R> {
        fs::read_to_string(self.root.join(MANIFEST_FILE)).map(|s| parse(&s)).unwrap_or_default()
    }

    /// Best-effort write (per-call tmp name + rename): the manifest is
    /// advisory, so failures — a deleted directory included — are absorbed.
    fn write(&self, rows: &[R]) {
        let tmp = self.tmp_path("manifest");
        let written = fs::write(&tmp, format(rows))
            .and_then(|()| fs::rename(&tmp, self.root.join(MANIFEST_FILE)));
        if written.is_err() {
            let _ = fs::remove_file(&tmp);
        }
    }
}

impl<R: Row> Drop for Manifest<R> {
    fn drop(&mut self) {
        let mut p = self.pending();
        self.flush(&mut p, false);
    }
}

/// The advisory cross-process lock: an exclusively created `manifest.lock`
/// file, removed on drop when it was actually acquired.
#[derive(Debug)]
struct DirLock {
    path: PathBuf,
    held: bool,
}

impl DirLock {
    /// Bounded wait (50 tries, 10 ms apart); a stale lock is broken, and an
    /// unwritable directory or a timeout proceeds unlocked.
    fn acquire(root: &Path) -> DirLock {
        let path = root.join(LOCK_FILE);
        for _ in 0..50 {
            match fs::OpenOptions::new().write(true).create_new(true).open(&path) {
                Ok(_) => return DirLock { path, held: true },
                Err(e) if e.kind() == io::ErrorKind::AlreadyExists => {
                    let stale = fs::metadata(&path)
                        .and_then(|m| m.modified())
                        .ok()
                        .and_then(|t| SystemTime::now().duration_since(t).ok())
                        .is_some_and(|age| age > LOCK_STALE_AGE);
                    if stale {
                        let _ = fs::remove_file(&path);
                    } else {
                        std::thread::sleep(Duration::from_millis(10));
                    }
                }
                Err(_) => break,
            }
        }
        DirLock { path, held: false }
    }
}

impl Drop for DirLock {
    fn drop(&mut self) {
        if self.held {
            let _ = fs::remove_file(&self.path);
        }
    }
}
