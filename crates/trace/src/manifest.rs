//! The one content-addressed store behind both on-disk caches: a
//! directory of self-checking body files named `<digest>.<ext>`, an
//! advisory `manifest.tsv` index with batched writes, and the LRU
//! garbage-collection pass that reads it.
//!
//! A [`Store`] is generic over a [`Codec`], which owns one body format:
//! its decode and verify, its manifest [`Row`], and the labels it gives a
//! body the manifest lacks (each store's typed `save` encodes).
//! [`crate::TraceStore`] (POMTRC2) and [`crate::ReportStore`] (POMREP1)
//! are this store over their codecs.
//! Everything else exists once, here: the staged write, the load path with
//! its transient-I/O retry, the counters, the manifest, `entries`,
//! `verify` and `gc`.
//!
//! # Writes
//!
//! Every file a store writes goes through [`write_staged`]: the contents
//! go to a staging file named for this call (`.<stem>.<pid>.<seq>.tmp`),
//! which is synced and then renamed into place, so a reader sees the old
//! file or the new one, never a torn one. A failed write removes its
//! staging file. One that a killed writer leaves behind counts toward the
//! byte cap, and the GC pass removes it once it is older than
//! [`STAGING_MAX_AGE`].
//!
//! # The index
//!
//! The index is a versioned tab-separated table with one [`Row`] per body
//! (labels, size, `last_used` stamp in Unix seconds). It is *advisory*: it
//! labels `stats` listings and ranks bodies for eviction, but a lost or
//! stale manifest only costs labels and eviction order, never
//! correctness.
//!
//! Stamps have one-second resolution, so a handle writes the manifest at
//! most once per second. Loads and saves record their row in the handle;
//! the first store operation in a second in which the handle has not
//! written yet merges every pending row (its own included) into the
//! manifest in one locked read-modify-write, and runs one GC pass if any
//! pending row came from a save. [`Store::entries`], [`Store::gc`] and
//! `Drop` flush first. Merging keeps LRU meaning:
//!
//! * a save's row replaces the manifest row (its stamp never goes back);
//! * a load's stamp sets `last_used = max(existing, stamp)`;
//! * a load of a digest the manifest lacks indexes that orphan with the
//!   row the codec builds for it.
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
use std::fmt;
use std::fs::{self, File};
use std::io::{self, BufWriter, Write};
use std::marker::PhantomData;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::{Duration, SystemTime, UNIX_EPOCH};

use crate::digest::digest_hex;

/// File name of the index inside a store directory.
pub const MANIFEST_FILE: &str = "manifest.tsv";
const LOCK_FILE: &str = "manifest.lock";

/// A lock file older than this is presumed left by a crashed writer and
/// broken.
const LOCK_STALE_AGE: Duration = Duration::from_secs(2);

/// A staging file older than this was left by a writer that died: no save
/// takes ten minutes, so the GC pass removes it. A younger one may belong
/// to a save in progress, so the pass only counts it toward the byte cap.
pub const STAGING_MAX_AGE: Duration = Duration::from_secs(600);

/// Upper bound on the per-retry backoff delay of a load.
const RETRY_DELAY_CAP: Duration = Duration::from_millis(200);

/// One manifest line: a store's metadata for one body.
pub trait Row: Clone + fmt::Debug {
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
    /// Replaces the body size (listings take it from the file system).
    fn set_bytes(&mut self, bytes: u64);
    /// The row as one tab-separated line, without the newline. Free-form
    /// fields go last, so embedded tabs cannot shift the fixed columns.
    fn to_line(&self) -> String;
    /// Inverse of [`Row::to_line`]; `None` skips an unreadable line.
    fn parse(line: &str) -> Option<Self>;
}

/// One body format of a [`Store`]: how a body is read and checked, and
/// the manifest row it keeps. Writing is the typed `save` of each store.
pub trait Codec {
    /// The manifest row.
    type Row: Row;
    /// What a lookup names.
    type Key;
    /// What a hit returns.
    type Value;
    /// Body file extension.
    const EXT: &'static str;
    /// The store's name in warnings.
    const NAME: &'static str;
    /// What the caller does instead, in the warning for a defective body.
    const FALLBACK: &'static str;
    /// GC byte cap of a freshly opened store.
    const DEFAULT_MAX_BYTES: u64;

    /// The content digest that names `key`'s body.
    fn digest(key: &Self::Key) -> [u8; 32];
    /// Reads and fully checks the body at `path` for `key`: the value and
    /// the file's size. A missing file is `ErrorKind::NotFound`.
    fn decode(path: &Path, key: &Self::Key) -> io::Result<(Self::Value, u64)>;
    /// Bytes a hit adds to [`StoreCounters::bytes_read`].
    fn value_bytes(value: &Self::Value) -> u64;
    /// Fully checks the body at `path`, including that the digest it
    /// stores is `name`, its file stem.
    fn verify(path: &Path, name: &str) -> io::Result<()>;
    /// How a body the manifest lacks is listed: `?` labels, plus what the
    /// body itself records.
    fn unindexed(path: &Path, digest: String, bytes: u64, last_used: u64) -> Self::Row;
    /// The row a load indexes for a body the manifest lacks; by default
    /// the unindexed listing.
    fn loaded_row(_value: &Self::Value, path: &Path, digest: &str, file_bytes: u64) -> Self::Row {
        Self::unindexed(path, digest.to_string(), file_bytes, 0)
    }
}

/// `verify`'s name check: the digest a body stores must be its file stem.
pub(crate) fn check_name(stored: &[u8; 32], name: &str) -> io::Result<()> {
    if digest_hex(stored) == name {
        Ok(())
    } else {
        Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "stored digest does not match the file name",
        ))
    }
}

/// What one GC pass evicted.
#[derive(Debug, Clone, Default)]
pub struct GcReport {
    /// `(digest, bytes)` of evicted bodies, least recently used first.
    pub evicted: Vec<(String, u64)>,
    /// Bytes remaining on disk after the pass: bodies plus the staging
    /// files too young to remove.
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

/// Counter snapshot of one store handle's activity.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreCounters {
    /// Bodies served from disk.
    pub hits: u64,
    /// Lookups that found no usable body (absent or defective).
    pub misses: u64,
    /// Bodies this handle saved.
    pub stores: u64,
    /// Bytes of the values served for hits (a recording's buffers, a
    /// report's payload).
    pub bytes_read: u64,
    /// Misses caused by a defective file rather than an absent one.
    pub load_failures: u64,
    /// Read attempts re-issued after a transient I/O error.
    pub transient_retries: u64,
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

/// Writes `path` through a staging file unique to this call (not just to
/// `path`: two writers of one name must each stage into their own file,
/// or interleaved writes could rename a torn file into place). `fill`
/// writes the contents; the file is synced and renamed over `path`. On any
/// error the staging file is removed. The directory is not synced: after a
/// power loss a rename may be lost, which leaves the old file or none (a
/// clean miss), never a torn one.
pub fn write_staged<T>(
    path: &Path,
    fill: impl FnOnce(&mut BufWriter<File>) -> io::Result<T>,
) -> io::Result<T> {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let seq = SEQ.fetch_add(1, Ordering::Relaxed);
    let stem = path.file_stem().map(|s| s.to_string_lossy()).unwrap_or_default();
    let tmp = path.with_file_name(format!(".{stem}.{}.{seq}.tmp", std::process::id()));
    let written = (|| {
        let mut w = BufWriter::new(File::create(&tmp)?);
        let out = fill(&mut w)?;
        w.into_inner().map_err(io::IntoInnerError::into_error)?.sync_all()?;
        fs::rename(&tmp, path)?;
        Ok(out)
    })();
    if written.is_err() {
        let _ = fs::remove_file(&tmp);
    }
    written
}

/// Whether `path` names a staging file of [`write_staged`].
fn is_staging(path: &Path) -> bool {
    path.file_name()
        .and_then(|n| n.to_str())
        .is_some_and(|n| n.starts_with('.') && n.ends_with(".tmp"))
}

/// Transient errors are environmental hiccups worth retrying; everything
/// else (corruption, truncation, version skew) is a *defect* that a
/// re-read cannot fix.
fn is_transient(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::Interrupted | io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
    )
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

/// A persistent, content-addressed store of `C` bodies under one
/// directory. See the module docs for the on-disk contract.
///
/// Handles are cheap and independent: two processes (or two handles in
/// one process) pointed at the same directory interoperate through the
/// staged-write protocol and the manifest lock.
#[derive(Debug)]
pub struct Store<C: Codec> {
    root: PathBuf,
    max_bytes: u64,
    pending: Mutex<Pending<C::Row>>,
    counters: Mutex<StoreCounters>,
    /// Armed test faults: each pending unit makes one load attempt fail
    /// with a synthetic transient I/O error.
    injected_load_faults: AtomicU64,
    retry_attempts: u32,
    retry_base_delay: Duration,
    codec: PhantomData<fn() -> C>,
}

impl<C: Codec> Store<C> {
    /// Opens (creating if needed) a store rooted at `dir`, with the
    /// codec's default garbage-collection cap and a load retry policy of
    /// three attempts from a 10 ms backoff.
    pub fn open(dir: impl Into<PathBuf>) -> io::Result<Store<C>> {
        let root = dir.into();
        fs::create_dir_all(&root)?;
        Ok(Store {
            root,
            max_bytes: C::DEFAULT_MAX_BYTES,
            pending: Mutex::new(Pending { rows: HashMap::new(), written_at: 0 }),
            counters: Mutex::default(),
            injected_load_faults: AtomicU64::new(0),
            retry_attempts: 3,
            retry_base_delay: Duration::from_millis(10),
            codec: PhantomData,
        })
    }

    /// Replaces the garbage-collection size cap (floored at one byte).
    pub fn with_max_bytes(mut self, max_bytes: u64) -> Store<C> {
        self.max_bytes = max_bytes.max(1);
        self
    }

    /// Replaces the transient-error retry policy: total read `attempts`
    /// per load (floored at one) and the first-retry backoff delay (each
    /// further retry doubles it, capped at 200 ms). Tests use a zero delay
    /// to exercise the retry path without sleeping.
    pub fn with_retry_policy(mut self, attempts: u32, base_delay: Duration) -> Store<C> {
        self.retry_attempts = attempts.max(1);
        self.retry_base_delay = base_delay;
        self
    }

    /// Arms `n` synthetic transient I/O faults: each of the next `n` load
    /// attempts fails with `ErrorKind::Interrupted` before touching the
    /// file. Test hook for the retry/backoff machinery; harmless (and
    /// pointless) outside tests.
    #[doc(hidden)]
    pub fn inject_transient_load_faults(&self, n: u64) {
        self.injected_load_faults.fetch_add(n, Ordering::Relaxed);
    }

    /// Consumes one armed synthetic fault, if any.
    fn take_injected_fault(&self) -> bool {
        self.injected_load_faults
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |n| n.checked_sub(1))
            .is_ok()
    }

    /// The store's root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// The garbage-collection size cap in bytes.
    pub fn max_bytes(&self) -> u64 {
        self.max_bytes
    }

    /// Snapshot of this handle's counters.
    pub fn counters(&self) -> StoreCounters {
        *self.counters.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn count(&self, bump: impl FnOnce(&mut StoreCounters)) {
        bump(&mut self.counters.lock().unwrap_or_else(PoisonError::into_inner));
    }

    /// Path of the body file for `digest` (lowercase hex).
    pub fn body_path(&self, digest: &str) -> PathBuf {
        self.root.join(format!("{digest}.{}", C::EXT))
    }

    /// Loads the body for `key`, or `None` on a miss.
    ///
    /// *Transient* I/O errors (interrupted / would-block / timed-out reads
    /// — the kind a flaky network filesystem produces) are retried up to
    /// the handle's attempt budget with capped exponential backoff before
    /// the body is given up on. A miss is an absent file *or any defect
    /// whatsoever* — wrong magic, version or digest mismatch, truncation,
    /// checksum failure, or exhausted retries. Defects warn on stderr and
    /// count as [`StoreCounters::load_failures`]; the caller falls back to
    /// computing the value, so a damaged store can cost time but never
    /// correctness. A file that is absent when opened — never saved, or
    /// evicted by another handle a moment ago — is a clean miss.
    pub fn load(&self, key: &C::Key) -> Option<C::Value> {
        let hex = digest_hex(&C::digest(key));
        let path = self.body_path(&hex);
        let attempts = self.retry_attempts;
        let mut attempt = 0u32;
        let outcome = loop {
            attempt += 1;
            let read = if self.take_injected_fault() {
                Err(io::Error::new(io::ErrorKind::Interrupted, "injected transient I/O fault"))
            } else {
                C::decode(&path, key)
            };
            match read {
                Err(e) if is_transient(&e) && attempt < attempts => {
                    self.count(|c| c.transient_retries += 1);
                    eprintln!(
                        "{}: transient error reading {} ({e}); retry {attempt}/{}",
                        C::NAME,
                        path.display(),
                        attempts - 1
                    );
                    let delay = self
                        .retry_base_delay
                        .saturating_mul(1u32 << (attempt - 1).min(4))
                        .min(RETRY_DELAY_CAP);
                    if !delay.is_zero() {
                        std::thread::sleep(delay);
                    }
                }
                read => break read,
            }
        };
        match outcome {
            Ok((value, file_bytes)) => {
                self.count(|c| {
                    c.hits += 1;
                    c.bytes_read += C::value_bytes(&value);
                });
                self.loaded(&hex, || C::loaded_row(&value, &path, &hex, file_bytes));
                Some(value)
            }
            Err(e) => {
                let defect = e.kind() != io::ErrorKind::NotFound;
                self.count(|c| {
                    c.misses += 1;
                    c.load_failures += u64::from(defect);
                });
                if defect {
                    eprintln!("{}: {} unusable ({e}); {}", C::NAME, path.display(), C::FALLBACK);
                }
                None
            }
        }
    }

    /// Persists one body: `write` fills the staged body file for `digest`
    /// and returns its size, then `row` (given that size) is recorded; the
    /// flush that merges it runs a GC pass to enforce the size cap.
    pub(crate) fn save_body(
        &self,
        digest: &str,
        write: impl FnOnce(&mut BufWriter<File>) -> io::Result<u64>,
        row: impl FnOnce(u64) -> C::Row,
    ) -> io::Result<u64> {
        let bytes = write_staged(&self.body_path(digest), write)?;
        self.count(|c| c.stores += 1);
        self.saved(row(bytes));
        Ok(bytes)
    }

    /// Every body currently on disk, most recently used first: its
    /// manifest row with the size from the file system, or the codec's
    /// unindexed listing.
    pub fn entries(&self) -> Vec<C::Row> {
        self.flush(&mut self.pending(), false);
        let mut indexed = HashMap::new();
        for row in self.read() {
            indexed.entry(row.digest().to_string()).or_insert(row);
        }
        let mut out: Vec<C::Row> = self
            .scan()
            .into_iter()
            .map(|(digest, bytes)| match indexed.remove(&digest) {
                Some(mut row) => {
                    row.set_bytes(bytes);
                    row
                }
                None => {
                    let last_used = self.mtime(&digest);
                    C::unindexed(&self.body_path(&digest), digest, bytes, last_used)
                }
            })
            .collect();
        out.sort_by(|a, b| {
            b.last_used().cmp(&a.last_used()).then_with(|| a.digest().cmp(b.digest()))
        });
        out
    }

    /// Total bytes of bodies on disk (manifest and staging files
    /// excluded).
    pub fn total_bytes(&self) -> u64 {
        self.scan().iter().map(|(_, b)| b).sum()
    }

    /// Integrity-checks every body on disk with the codec's full check,
    /// its stored digest against its file name included. Defective bodies
    /// are reported with the reason but left in place (the next save of
    /// that key overwrites them; `gc` evicts them like any other).
    pub fn verify(&self) -> Vec<VerifyEntry> {
        self.scan()
            .into_iter()
            .map(|(digest, bytes)| {
                let error =
                    C::verify(&self.body_path(&digest), &digest).err().map(|e| e.to_string());
                VerifyEntry { digest, bytes, error }
            })
            .collect()
    }

    /// Flushes, then removes staging files older than [`STAGING_MAX_AGE`]
    /// and evicts least-recently-used bodies until the bodies plus the
    /// remaining staging files fit the byte cap. Recency is the manifest
    /// stamp, falling back to file mtime for unindexed bodies; ties break
    /// by digest, so the pass is deterministic.
    pub fn gc(&self) -> GcReport {
        self.flush(&mut self.pending(), true)
    }

    /// Test hook: flushes, then sets an indexed row's stamp (a digest the
    /// manifest lacks is left alone).
    #[doc(hidden)]
    pub fn force_last_used(&self, digest: &str, stamp: u64) {
        self.flush(&mut self.pending(), false);
        let _lock = DirLock::acquire(&self.root);
        let mut rows = self.read();
        if let Some(r) = rows.iter_mut().find(|r| r.digest() == digest) {
            r.set_last_used(stamp);
            self.write(&rows);
        }
    }

    /// Records a save: `row` (stamped now) replaces the digest's manifest
    /// row at the next flush, which also runs a GC pass.
    fn saved(&self, mut row: C::Row) {
        let now = unix_now();
        let mut p = self.pending();
        row.set_last_used(now);
        p.rows.insert(row.digest().to_string(), Change { row, saved: true });
        self.flush_if_stale(&mut p, now);
    }

    /// Records a load of `digest`: its stamp rises to now at the next
    /// flush. `orphan` builds the row to index if the manifest lacks the
    /// digest; it runs only when nothing is pending for the digest yet.
    fn loaded(&self, digest: &str, orphan: impl FnOnce() -> C::Row) {
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

    fn pending(&self) -> MutexGuard<'_, Pending<C::Row>> {
        self.pending.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Flushes on the first operation in a second other than the one of
    /// this handle's last write (a clock stepped back counts too).
    fn flush_if_stale(&self, p: &mut Pending<C::Row>, now: u64) {
        if now != p.written_at {
            self.flush(p, false);
        }
    }

    /// Merges the pending rows in one locked read-modify-write, then runs a
    /// GC pass if any of them came from a save (or `force_gc`).
    fn flush(&self, p: &mut Pending<C::Row>, force_gc: bool) -> GcReport {
        let changes = std::mem::take(&mut p.rows);
        let run_gc = force_gc || changes.values().any(|c| c.saved);
        if changes.is_empty() {
            if !run_gc {
                return GcReport::default();
            }
            // Nothing to merge: take the lock only if there is evicting to do.
            let (bodies, staging) = self.list(true);
            let live_bytes = bodies.iter().map(|(_, b)| b).sum::<u64>() + staging;
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

    /// Removes aged staging files, then least-recently-used bodies (and
    /// their rows) until the store fits its byte cap.
    fn evict(&self, rows: &mut Vec<C::Row>) -> GcReport {
        let (files, staging) = self.list(true);
        let mut total: u64 = files.iter().map(|(_, b)| b).sum::<u64>() + staging;
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

    /// Body files on disk: `(digest, bytes)` pairs sorted by digest.
    fn scan(&self) -> Vec<(String, u64)> {
        self.list(false).0
    }

    /// Body files on disk (as [`Store::scan`]) and the bytes of staging
    /// files; with `sweep`, staging files older than [`STAGING_MAX_AGE`]
    /// are removed and not counted.
    fn list(&self, sweep: bool) -> (Vec<(String, u64)>, u64) {
        let (mut bodies, mut staging) = (Vec::new(), 0);
        let Ok(dir) = fs::read_dir(&self.root) else { return (bodies, staging) };
        for entry in dir.flatten() {
            let path = entry.path();
            if path.extension().is_some_and(|e| e == C::EXT) {
                let stem = path.file_stem().and_then(|s| s.to_str());
                if let (Some(stem), Ok(meta)) = (stem, entry.metadata()) {
                    bodies.push((stem.to_string(), meta.len()));
                }
            } else if is_staging(&path) {
                let Ok(meta) = entry.metadata() else { continue };
                let aged = meta
                    .modified()
                    .ok()
                    .and_then(|t| t.elapsed().ok())
                    .is_some_and(|age| age > STAGING_MAX_AGE);
                if !(sweep && aged && fs::remove_file(&path).is_ok()) {
                    staging += meta.len();
                }
            }
        }
        bodies.sort();
        (bodies, staging)
    }

    /// Unix seconds of the body file's mtime (0 when unreadable).
    fn mtime(&self, digest: &str) -> u64 {
        fs::metadata(self.body_path(digest))
            .and_then(|m| m.modified())
            .ok()
            .and_then(|t| t.duration_since(UNIX_EPOCH).ok())
            .map_or(0, |d| d.as_secs())
    }

    fn read(&self) -> Vec<C::Row> {
        fs::read_to_string(self.root.join(MANIFEST_FILE)).map(|s| parse(&s)).unwrap_or_default()
    }

    /// Best-effort staged write: the manifest is advisory, so failures — a
    /// deleted directory included — are absorbed.
    fn write(&self, rows: &[C::Row]) {
        let text = format(rows);
        let _ = write_staged(&self.root.join(MANIFEST_FILE), |w| w.write_all(text.as_bytes()));
    }
}

impl<C: Codec> Drop for Store<C> {
    fn drop(&mut self) {
        self.flush(&mut self.pending(), false);
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
