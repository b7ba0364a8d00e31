//! A shared, replayable recording of one simulation's merged input stream.
//!
//! A compare or sweep batch runs the *same* (workload, seed, core-count)
//! trace through several schemes; without sharing, every scheme re-runs the
//! generator stack — per-core [`crate::TraceGenerator`]s, OS-event streams
//! and the heap-merge [`Interleaver`] — producing bit-identical input each
//! time. [`SharedTrace`] records that merged stream once into a compact
//! in-memory buffer and replays it to every consumer.
//!
//! Storage reuses the POMTRC1 record encoding from [`crate::file`]
//! (22 bytes per memory reference), plus one `u16` core id per item and a
//! sparse side-list of OS events, so a shared 4.2 M-reference compare input
//! is ~100 MB instead of four generator re-runs.
//!
//! # Determinism contract
//!
//! Replay yields exactly the `CoreItem<TraceItem>` sequence the live
//! generator construction in `pom_tlb::Simulation::run` produces — same
//! per-core seeds (`base_seed + core`), same address spaces (pid 0 for
//! shared-memory workloads, pid = core otherwise), same event-first tie
//! break, same heap merge order — and stops at the same point: the item
//! that completes the run's reference budget. Anything downstream of the
//! stream (reports included) is therefore byte-identical between live and
//! replayed runs; `generation_matches_replay`-style tests in the core crate
//! enforce this.

use std::sync::Arc;

use pomtlb_types::{AddressSpace, CoreId, ProcessId, VmId};

use crate::disk::{self, Mapping, CORE_BYTES};
use crate::event::{OsEvent, TraceItem, WorkloadStream};
use crate::file::{decode_record, encode_record, RECORD_BYTES};
use crate::interleave::{CoreItem, Interleaver};
use crate::spec::WorkloadSpec;

/// Backing storage of one recording section: a buffer the generator owns,
/// or a byte range inside a store [`Mapping`] (replayed recordings decode
/// in place; the `Arc` keeps the mapping alive for every sharing iterator).
#[derive(Debug, Clone)]
pub(crate) enum Section {
    /// Recorded live into an owned buffer.
    Owned(Vec<u8>),
    /// A byte range of a persistent recording.
    Stored {
        /// The mapped (or read) file.
        map: Arc<Mapping>,
        /// Section start within the file.
        offset: usize,
        /// Section length in bytes.
        len: usize,
    },
}

impl Section {
    fn as_bytes(&self) -> &[u8] {
        match self {
            Section::Owned(v) => v,
            Section::Stored { map, offset, len } => &map.bytes()[*offset..*offset + *len],
        }
    }

    fn len(&self) -> usize {
        match self {
            Section::Owned(v) => v.len(),
            Section::Stored { len, .. } => *len,
        }
    }
}

/// The parameters a recorded stream is valid for. Two simulations can share
/// a trace exactly when these compare equal.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceKey {
    /// The generating workload spec.
    pub spec: WorkloadSpec,
    /// Base seed; core `c` streams with `seed + c`.
    pub seed: u64,
    /// Number of cores (= per-core streams merged).
    pub n_cores: usize,
    /// Whether all cores share one address space.
    pub shared_memory: bool,
    /// Memory references recorded (warmup + measured, summed over cores).
    pub total_refs: u64,
}

impl TraceKey {
    /// A stable 256-bit content digest of this key.
    ///
    /// Computed over a versioned, field-by-field canonical byte encoding —
    /// not `#[derive(Hash)]` — so it depends only on the key's *values*:
    /// the same key digests to the same 32 bytes on every run, build and
    /// platform, which is what lets a [`crate::TraceStore`] address
    /// recordings by content across processes. Bumping the encoding bumps
    /// its version constant, which is baked into both the digest input and
    /// the POMTRC2 header, so stale digests can never alias new ones.
    pub fn digest(&self) -> [u8; 32] {
        disk::key_digest(self)
    }

    /// [`TraceKey::digest`] as lowercase hex — the store's file stem.
    pub fn digest_hex(&self) -> String {
        disk::digest_hex(&self.digest())
    }
}

/// One workload's merged reference + OS-event stream, recorded once and
/// replayable by any number of scheme runs.
#[derive(Debug, Clone)]
pub struct SharedTrace {
    key: TraceKey,
    /// Issuing core of every item (reference or event) as little-endian
    /// `u16`s, in merge order.
    cores: Section,
    /// POMTRC1-encoded records of the reference items, in merge order.
    refs: Section,
    /// OS events as (item position, event), sparse and position-sorted.
    events: Vec<(u64, OsEvent)>,
}

impl SharedTrace {
    /// Records the merged stream for `spec` until `total_refs` memory
    /// references have been issued (OS events ride along but do not count),
    /// using exactly the stream construction `Simulation::run` uses.
    ///
    /// # Panics
    ///
    /// Panics if the spec does not validate or `n_cores` is zero.
    pub fn generate(
        spec: &WorkloadSpec,
        seed: u64,
        n_cores: usize,
        shared_memory: bool,
        total_refs: u64,
    ) -> SharedTrace {
        assert!(n_cores > 0, "a trace needs at least one core");
        let streams: Vec<WorkloadStream> = (0..n_cores)
            .map(|c| {
                let pid = if shared_memory { 0 } else { c as u16 };
                let space = AddressSpace::new(VmId(0), ProcessId(pid));
                WorkloadStream::new(spec, seed + c as u64, space, n_cores as u16)
            })
            .collect();
        let mut merged = Interleaver::new(streams);

        let mut cores = Vec::new();
        let mut refs = Vec::with_capacity((total_refs as usize).saturating_mul(RECORD_BYTES));
        let mut events = Vec::new();
        let mut buf = [0u8; RECORD_BYTES];
        let mut refs_done = 0u64;
        while refs_done < total_refs {
            let ci = merged.next().expect("streams are infinite");
            let pos = (cores.len() / CORE_BYTES) as u64;
            cores.extend_from_slice(&ci.core.0.to_le_bytes());
            match ci.item {
                TraceItem::Ref(r) => {
                    encode_record(&r, &mut buf);
                    refs.extend_from_slice(&buf);
                    refs_done += 1;
                }
                TraceItem::Event(e) => events.push((pos, e)),
            }
        }
        SharedTrace {
            key: TraceKey {
                spec: spec.clone(),
                seed,
                n_cores,
                shared_memory,
                total_refs,
            },
            cores: Section::Owned(cores),
            refs: Section::Owned(refs),
            events,
        }
    }

    /// Assembles a recording from pre-validated sections — the
    /// [`crate::TraceStore`] load path. The caller vouches that `cores` and
    /// `refs` hold exactly the encodings [`SharedTrace::generate`] produces
    /// for `key` (the store checks digest + checksums before calling this).
    pub(crate) fn from_sections(
        key: TraceKey,
        cores: Section,
        refs: Section,
        events: Vec<(u64, OsEvent)>,
    ) -> SharedTrace {
        SharedTrace { key, cores, refs, events }
    }

    /// The parameters this recording is valid for.
    pub fn key(&self) -> &TraceKey {
        &self.key
    }

    /// Whether a simulation with these parameters can replay this trace.
    pub fn matches(
        &self,
        spec: &WorkloadSpec,
        seed: u64,
        n_cores: usize,
        shared_memory: bool,
        total_refs: u64,
    ) -> bool {
        self.key
            == TraceKey { spec: spec.clone(), seed, n_cores, shared_memory, total_refs }
    }

    /// Total items recorded (references + events).
    pub fn items(&self) -> u64 {
        (self.cores.len() / CORE_BYTES) as u64
    }

    /// Memory references recorded.
    pub fn refs(&self) -> u64 {
        (self.refs.len() / RECORD_BYTES) as u64
    }

    /// OS events recorded.
    pub fn events(&self) -> u64 {
        self.events.len() as u64
    }

    /// Approximate heap (or mapped-file) footprint of the recording, in
    /// bytes.
    pub fn buffer_bytes(&self) -> usize {
        self.refs.len()
            + self.cores.len()
            + self.events.len() * std::mem::size_of::<(u64, OsEvent)>()
    }

    /// Whether the recording replays out of a persistent store mapping
    /// rather than a live-generated buffer.
    pub fn is_stored(&self) -> bool {
        matches!(self.refs, Section::Stored { .. })
    }

    /// The cores section bytes (one little-endian `u16` per item).
    pub(crate) fn cores_bytes(&self) -> &[u8] {
        self.cores.as_bytes()
    }

    /// The refs section bytes (POMTRC1 records).
    pub(crate) fn refs_bytes(&self) -> &[u8] {
        self.refs.as_bytes()
    }

    /// The sparse event list.
    pub(crate) fn events_list(&self) -> &[(u64, OsEvent)] {
        &self.events
    }

    /// Issuing core of item `i`, if recorded.
    fn core_at(&self, i: usize) -> Option<u16> {
        let bytes = self.cores.as_bytes();
        let off = i.checked_mul(CORE_BYTES)?;
        let pair = bytes.get(off..off + CORE_BYTES)?;
        Some(u16::from_le_bytes([pair[0], pair[1]]))
    }

    /// An owning replay iterator (the `Arc` keeps the buffer alive, so the
    /// iterator can outlive the caller's borrow — the runner hands clones
    /// of one recording to several scheme runs).
    pub fn replay(self: &Arc<Self>) -> SharedTraceIter {
        SharedTraceIter { trace: Arc::clone(self), item: 0, ref_off: 0, event_idx: 0 }
    }
}

/// Replays a [`SharedTrace`] as the `CoreItem<TraceItem>` stream the live
/// interleaver would produce.
///
/// Cloning is cheap (an `Arc` bump plus three indices) and yields an
/// independent iterator at the same position.
#[derive(Debug, Clone)]
pub struct SharedTraceIter {
    trace: Arc<SharedTrace>,
    item: usize,
    ref_off: usize,
    event_idx: usize,
}

impl Iterator for SharedTraceIter {
    type Item = CoreItem<TraceItem>;

    fn next(&mut self) -> Option<CoreItem<TraceItem>> {
        let core = CoreId(self.trace.core_at(self.item)?);
        let item = match self.trace.events.get(self.event_idx) {
            Some((pos, e)) if *pos == self.item as u64 => {
                self.event_idx += 1;
                TraceItem::Event(*e)
            }
            _ => {
                let buf: &[u8; RECORD_BYTES] = self.trace.refs.as_bytes()
                    [self.ref_off..self.ref_off + RECORD_BYTES]
                    .try_into()
                    .expect("record slice has RECORD_BYTES bytes");
                self.ref_off += RECORD_BYTES;
                TraceItem::Ref(decode_record(buf).expect("checksummed records are well-formed"))
            }
        };
        self.item += 1;
        Some(CoreItem { core, item })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::OsEventRates;
    use crate::spec::LocalityModel;

    fn spec(rates: OsEventRates) -> WorkloadSpec {
        WorkloadSpec::builder("shared-test")
            .footprint_bytes(16 << 20)
            .large_page_frac(0.25)
            .locality(LocalityModel::Zipf { alpha: 0.9 })
            .os_events(rates)
            .build()
    }

    /// The live stream as `Simulation::run` builds it, truncated the same
    /// way generation truncates: after the final counted reference.
    fn live(spec: &WorkloadSpec, seed: u64, n_cores: usize, total_refs: u64) -> Vec<CoreItem<TraceItem>> {
        let streams: Vec<WorkloadStream> = (0..n_cores)
            .map(|c| {
                let space = AddressSpace::new(VmId(0), ProcessId(c as u16));
                WorkloadStream::new(spec, seed + c as u64, space, n_cores as u16)
            })
            .collect();
        let mut merged = Interleaver::new(streams);
        let mut out = Vec::new();
        let mut refs = 0;
        while refs < total_refs {
            let ci = merged.next().unwrap();
            if matches!(ci.item, TraceItem::Ref(_)) {
                refs += 1;
            }
            out.push(ci);
        }
        out
    }

    #[test]
    fn replay_equals_live_generation() {
        let s = spec(OsEventRates::default());
        let trace = Arc::new(SharedTrace::generate(&s, 42, 4, false, 2000));
        let replayed: Vec<_> = trace.replay().collect();
        assert_eq!(replayed, live(&s, 42, 4, 2000));
        assert_eq!(trace.refs(), 2000);
        assert_eq!(trace.events(), 0);
    }

    #[test]
    fn replay_preserves_interleaved_events() {
        let s = spec(OsEventRates {
            unmaps: 8.0,
            remaps: 2.0,
            promotes: 1.0,
            migrations: 1.0,
            vm_destroys: 0.2,
        });
        let trace = Arc::new(SharedTrace::generate(&s, 7, 2, false, 3000));
        let replayed: Vec<_> = trace.replay().collect();
        let reference = live(&s, 7, 2, 3000);
        assert_eq!(replayed.len(), reference.len());
        assert_eq!(replayed, reference);
        assert!(trace.events() > 0, "event-heavy spec must record events");
        assert_eq!(trace.items(), trace.refs() + trace.events());
    }

    #[test]
    fn replay_is_repeatable() {
        let s = spec(OsEventRates::unmap_heavy(5.0));
        let trace = Arc::new(SharedTrace::generate(&s, 3, 2, true, 1000));
        let a: Vec<_> = trace.replay().collect();
        let b: Vec<_> = trace.replay().collect();
        assert_eq!(a, b, "two replays of one recording are identical");
    }

    #[test]
    fn shared_memory_uses_pid_zero_everywhere() {
        let s = spec(OsEventRates::default());
        let trace = Arc::new(SharedTrace::generate(&s, 1, 2, true, 500));
        for ci in trace.replay() {
            if let TraceItem::Ref(r) = ci.item {
                assert_eq!(r.space.process.0, 0);
            }
        }
    }

    #[test]
    fn key_matching_is_exact() {
        let s = spec(OsEventRates::default());
        let trace = SharedTrace::generate(&s, 1, 2, false, 100);
        assert!(trace.matches(&s, 1, 2, false, 100));
        assert!(!trace.matches(&s, 2, 2, false, 100), "seed differs");
        assert!(!trace.matches(&s, 1, 4, false, 100), "core count differs");
        assert!(!trace.matches(&s, 1, 2, true, 100), "sharing mode differs");
        assert!(!trace.matches(&s, 1, 2, false, 99), "budget differs");
        let other = spec(OsEventRates::unmap_heavy(1.0));
        assert!(!trace.matches(&other, 1, 2, false, 100), "spec differs");
    }

    #[test]
    fn buffer_is_compact() {
        let s = spec(OsEventRates::default());
        let trace = SharedTrace::generate(&s, 1, 1, false, 1000);
        // 22 bytes per record + 2 per core id, nothing else for a quiet spec.
        assert_eq!(trace.buffer_bytes(), 1000 * (RECORD_BYTES + 2));
    }
}
