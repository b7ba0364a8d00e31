//! Persisted serve-tier counters, for operators without a live socket.
//!
//! `pomtlb report-store stats` runs in a *separate process* from the
//! daemon, so it can see the on-disk store but not the daemon's in-memory
//! tiers (hot cache, single-flight table, admission gate). The daemon
//! therefore drops a tiny snapshot file, [`SERVE_COUNTERS_FILE`], into
//! the report directory whenever it serves a `stats` request, shuts down,
//! or closes the socket loop — and the CLI folds it into `report-store
//! stats` output so tier hit ratios are visible without parsing perf
//! JSON.
//!
//! The format is the store's own dependency-free dialect: a versioned
//! header line, then `key<TAB>value` rows, written through the store's
//! one staged write ([`pomtlb_trace::write_staged`]: a staging file per
//! call, synced, then renamed) like every other artifact in the store
//! directory. Readers ignore unknown keys and treat missing ones as zero,
//! so the snapshot can grow fields without a version bump; a malformed
//! file reads as `None` (the snapshot is an observability aid, never
//! load-bearing state).

use std::fs;
use std::io::{self, Write};
use std::path::Path;

use pomtlb_trace::write_staged;

/// File name of the snapshot inside the report directory.
pub const SERVE_COUNTERS_FILE: &str = "serve_counters.tsv";

/// Header line identifying the snapshot format.
const SNAPSHOT_HEADER: &str = "pomtlb-serve-counters\t1";

/// A point-in-time copy of the daemon's tier counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TierSnapshot {
    /// Requests answered by running simulations.
    pub computed: u64,
    /// Requests answered from the on-disk report store.
    pub memoized: u64,
    /// Requests answered from the in-memory hot cache.
    pub hot: u64,
    /// Requests answered by splicing another request's in-flight result.
    pub coalesced: u64,
    /// Requests turned away with a typed busy response.
    pub busy: u64,
    /// Requests answered with an error line.
    pub errors: u64,
    /// Requests answered with a typed `deadline_exceeded` line.
    pub deadlines: u64,
    /// Hot-cache probe hits.
    pub hot_hits: u64,
    /// Hot-cache probe misses.
    pub hot_misses: u64,
    /// Hot-cache evictions.
    pub hot_evictions: u64,
    /// Bytes resident in the hot cache at snapshot time.
    pub hot_bytes: u64,
    /// Hot-cache byte budget (0 = tier disabled).
    pub hot_max_bytes: u64,
    /// Callers that became single-flight leaders.
    pub flights_led: u64,
    /// Callers that coalesced onto another caller's flight.
    pub flights_coalesced: u64,
    /// Compute permits granted by admission control.
    pub admitted: u64,
    /// Compute requests rejected by admission control.
    pub rejected: u64,
}

impl TierSnapshot {
    fn fields(&self) -> [(&'static str, u64); 16] {
        [
            ("computed", self.computed),
            ("memoized", self.memoized),
            ("hot", self.hot),
            ("coalesced", self.coalesced),
            ("busy", self.busy),
            ("errors", self.errors),
            ("deadlines", self.deadlines),
            ("hot_hits", self.hot_hits),
            ("hot_misses", self.hot_misses),
            ("hot_evictions", self.hot_evictions),
            ("hot_bytes", self.hot_bytes),
            ("hot_max_bytes", self.hot_max_bytes),
            ("flights_led", self.flights_led),
            ("flights_coalesced", self.flights_coalesced),
            ("admitted", self.admitted),
            ("rejected", self.rejected),
        ]
    }

    fn set(&mut self, key: &str, value: u64) {
        match key {
            "computed" => self.computed = value,
            "memoized" => self.memoized = value,
            "hot" => self.hot = value,
            "coalesced" => self.coalesced = value,
            "busy" => self.busy = value,
            "errors" => self.errors = value,
            "deadlines" => self.deadlines = value,
            "hot_hits" => self.hot_hits = value,
            "hot_misses" => self.hot_misses = value,
            "hot_evictions" => self.hot_evictions = value,
            "hot_bytes" => self.hot_bytes = value,
            "hot_max_bytes" => self.hot_max_bytes = value,
            "flights_led" => self.flights_led = value,
            "flights_coalesced" => self.flights_coalesced = value,
            "admitted" => self.admitted = value,
            "rejected" => self.rejected = value,
            _ => {} // Unknown keys are future fields; ignore.
        }
    }

    /// Writes the snapshot into `dir` through a staging file of its own, so
    /// concurrent saves never share one and readers never see a torn file.
    pub fn save(&self, dir: &Path) -> io::Result<()> {
        let mut text = String::with_capacity(512);
        text.push_str(SNAPSHOT_HEADER);
        text.push('\n');
        for (key, value) in self.fields() {
            text.push_str(key);
            text.push('\t');
            text.push_str(&value.to_string());
            text.push('\n');
        }
        write_staged(&dir.join(SERVE_COUNTERS_FILE), |w| w.write_all(text.as_bytes()))
    }

    /// Reads the snapshot from `dir`; `None` if absent or malformed.
    pub fn load(dir: &Path) -> Option<TierSnapshot> {
        let text = fs::read_to_string(dir.join(SERVE_COUNTERS_FILE)).ok()?;
        let mut lines = text.lines();
        if lines.next()? != SNAPSHOT_HEADER {
            return None;
        }
        let mut snapshot = TierSnapshot::default();
        for line in lines {
            let (key, value) = line.split_once('\t')?;
            snapshot.set(key, value.parse().ok()?);
        }
        Some(snapshot)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct TempDir(std::path::PathBuf);

    impl TempDir {
        fn new(tag: &str) -> TempDir {
            let path =
                std::env::temp_dir().join(format!("pomtlb-tiers-{tag}-{}", std::process::id()));
            let _ = fs::remove_dir_all(&path);
            fs::create_dir_all(&path).expect("create temp dir");
            TempDir(path)
        }
    }

    impl Drop for TempDir {
        fn drop(&mut self) {
            let _ = fs::remove_dir_all(&self.0);
        }
    }

    #[test]
    fn snapshot_round_trips_every_field() {
        let dir = TempDir::new("roundtrip");
        let mut snapshot = TierSnapshot::default();
        for (i, (key, _)) in snapshot.clone().fields().iter().enumerate() {
            snapshot.set(key, (i as u64 + 1) * 10);
        }
        snapshot.save(&dir.0).expect("save");
        assert_eq!(TierSnapshot::load(&dir.0), Some(snapshot));
    }

    #[test]
    fn missing_and_malformed_files_read_as_none() {
        let dir = TempDir::new("malformed");
        assert_eq!(TierSnapshot::load(&dir.0), None);
        fs::write(dir.0.join(SERVE_COUNTERS_FILE), "not the header\nhot\t3\n")
            .expect("write");
        assert_eq!(TierSnapshot::load(&dir.0), None);
    }

    #[test]
    fn unknown_keys_are_ignored_missing_keys_are_zero() {
        let dir = TempDir::new("forward");
        fs::write(
            dir.0.join(SERVE_COUNTERS_FILE),
            format!("{SNAPSHOT_HEADER}\nhot\t7\nsome_future_field\t9\n"),
        )
        .expect("write");
        let snapshot = TierSnapshot::load(&dir.0).expect("loads");
        assert_eq!(snapshot.hot, 7);
        assert_eq!(snapshot.computed, 0);
    }

    #[test]
    fn concurrent_saves_never_fail_or_tear() {
        let dir = TempDir::new("concurrent");
        // Every field holds the same value, so a torn mix shows.
        let snapshot = |value: u64| {
            let mut s = TierSnapshot::default();
            for (key, _) in TierSnapshot::default().fields() {
                s.set(key, value);
            }
            s
        };
        snapshot(0).save(&dir.0).expect("first save");
        let start = std::sync::Barrier::new(4);
        std::thread::scope(|scope| {
            for t in 0..4u64 {
                let (dir, start) = (&dir.0, &start);
                scope.spawn(move || {
                    start.wait();
                    for i in 0..500 {
                        snapshot(t * 1000 + i).save(dir).expect("every save succeeds");
                        let got = TierSnapshot::load(dir).expect("every load reads a snapshot");
                        assert_eq!(got, snapshot(got.computed), "a load read a torn snapshot");
                    }
                });
            }
        });
        let left = fs::read_dir(&dir.0).expect("list").count();
        assert_eq!(left, 1, "only the snapshot remains, no staging file");
    }
}
