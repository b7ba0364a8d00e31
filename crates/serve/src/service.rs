//! The long-lived sweep service: shared warm core, per-connection state,
//! request dispatch, transports.
//!
//! A [`Service`] is a lightweight per-connection handle onto one shared
//! warm core ([`ServiceShared`]): the resolved configuration, one warm
//! [`TraceStore`] handle (input streams), one [`ReportStore`] handle
//! (memoized response bodies), the in-memory hot tier, the single-flight
//! table, and the admission gate in front of the worker pool.
//! [`Service::handle_line`] maps one request line to one response line;
//! [`serve_stdin`] drives one conversation, and the socket transports in
//! [`crate::transport`] (`serve_unix`, `serve_tcp`) multiplex many — one
//! handler thread per accepted connection (bounded by `max_connections`),
//! all sharing the same warm core through [`Service::connection`].
//!
//! # Response lines
//!
//! One JSON object per request, in request order:
//!
//! ```text
//! {"id":"c1","ok":true,"provenance":"computed","wall_ms":412,"body":{...}}
//! {"id":"c2","ok":true,"provenance":"memoized","wall_ms":1,"body":{...}}
//! {"id":"c3","ok":true,"provenance":"hot","wall_ms":0,"body":{...}}
//! {"id":"c4","ok":true,"provenance":"coalesced","wall_ms":410,"body":{...}}
//! {"id":"c5","ok":false,"busy":true,"in_flight":2,"queued":8,"error":"..."}
//! {"id":"c6","ok":false,"error":"unknown workload `nope`; known: ..."}
//! {"id":"c7","ok":false,"deadline_exceeded":true,"error":"..."}
//! ```
//!
//! `provenance` says which tier answered: `"computed"` (ran simulations),
//! `"memoized"` (on-disk report store), `"hot"` (in-memory hot cache), or
//! `"coalesced"` (spliced from an identical request already in flight).
//! Every non-computed body is spliced into the response line *verbatim*
//! from the tier's stored string — not re-serialized — so all four tiers
//! produce byte-identical bodies for the same request, by construction.
//!
//! # The tier walk
//!
//! For a memoizable request the handler tries, in order: hot cache (map
//! probe), single-flight join (follower parks on the leader), on-disk
//! store (read + checksum), and finally compute — gated by
//! [`AdmissionControl`] so N connections cannot oversubscribe the one
//! worker pool; past the bounded queue the request gets a typed
//! `busy` line instead of stalling the conversation.
//!
//! # What is never memoized
//!
//! Error responses (they describe the request, not a result) and
//! `fault-sweep` bodies (the fault plan's interaction with retries makes
//! the run itself the product — see [`crate::ServeRequest`]'s `no_memoize`
//! and [`ResolvedRequest::memoize`](crate::ResolvedRequest)). Those
//! requests also skip the hot cache and the single-flight table, but they
//! still pay admission: the gate prices compute, not caching.

use std::io::{self, BufRead, Write};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use pom_tlb::{
    default_jobs, run_jobs_with, share_traces_with_store, AdmissionControl, JobOutcome, RunPolicy,
    SimReport,
};
use pomtlb_trace::digest::digest_hex;
use pomtlb_trace::{ReportStore, TraceStore, DEFAULT_REPORT_MAX_BYTES};
use serde::Serialize;

use crate::flight::{FlightFailure, Joined, SingleFlight};
use crate::hot_cache::{HotCache, DEFAULT_HOT_MAX_BYTES};
use crate::request::{request_digest, ResolvedRequest, ServeRequest};
use crate::tiers::TierSnapshot;

/// Default bound on concurrently served socket connections.
pub const DEFAULT_MAX_CONNECTIONS: usize = 16;

/// Default bound on compute requests parked behind the admission gate.
pub const DEFAULT_MAX_QUEUE: usize = 32;

/// Default bound on one request line's byte length (1 MiB). An oversized
/// line gets a typed error response and a clean close — never an
/// unbounded buffer.
pub const DEFAULT_MAX_LINE_BYTES: usize = 1 << 20;

/// Default graceful-drain budget on shutdown: how long the transport
/// waits for in-flight connections to finish before persisting counters
/// and returning.
pub const DEFAULT_DRAIN_TIMEOUT_SECS: u64 = 30;

/// How many recent latency samples feed the p50/p99 stats.
const LATENCY_WINDOW: usize = 4096;

/// How to stand up a [`Service`].
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Trace-store directory for warm input streams (`None` = generate
    /// live, share within each batch only).
    pub trace_dir: Option<PathBuf>,
    /// Report-store directory for memoized bodies (`None` = memoization
    /// off; every request computes).
    pub report_dir: Option<PathBuf>,
    /// Report-store garbage-collection cap in bytes.
    pub report_max_bytes: u64,
    /// Worker threads per batch (0 = one per available core).
    pub jobs: usize,
    /// Retry/timeout policy for simulation jobs.
    pub policy: RunPolicy,
    /// Concurrent socket connections served (further ones get a typed
    /// busy line and are closed).
    pub max_connections: usize,
    /// Concurrent requests allowed into the compute path (0 = auto:
    /// scaled to the machine's cores).
    pub max_inflight: usize,
    /// Compute requests parked waiting for a slot before the gate
    /// answers busy.
    pub max_queue: usize,
    /// In-memory hot report cache budget in bytes (0 disables the tier).
    pub hot_max_bytes: u64,
    /// Close a connection that has gone this long without completing a
    /// request (`None` = never). Measured from the last served request,
    /// not the last byte, so a slow-loris dribble cannot hold a slot open.
    pub idle_timeout: Option<Duration>,
    /// Graceful-drain budget: after `shutdown`, how long the transport
    /// waits for in-flight connections before persisting and returning.
    pub drain_timeout: Duration,
    /// Bound on one request line's byte length; oversized lines get a
    /// typed error and a clean close.
    pub max_line_bytes: usize,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            trace_dir: None,
            report_dir: None,
            report_max_bytes: DEFAULT_REPORT_MAX_BYTES,
            jobs: 0,
            policy: RunPolicy::default(),
            max_connections: DEFAULT_MAX_CONNECTIONS,
            max_inflight: 0,
            max_queue: DEFAULT_MAX_QUEUE,
            hot_max_bytes: DEFAULT_HOT_MAX_BYTES,
            idle_timeout: None,
            drain_timeout: Duration::from_secs(DEFAULT_DRAIN_TIMEOUT_SECS),
            max_line_bytes: DEFAULT_MAX_LINE_BYTES,
        }
    }
}

/// Per-service request counters, by response provenance.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct ServiceCounters {
    /// Requests answered by running simulations.
    pub computed: u64,
    /// Requests answered from the on-disk report store.
    pub memoized: u64,
    /// Requests answered from the in-memory hot cache.
    pub hot: u64,
    /// Requests answered by splicing an identical in-flight result.
    pub coalesced: u64,
    /// Requests turned away with a typed busy line.
    pub busy: u64,
    /// Requests answered with an error line.
    pub errors: u64,
    /// Requests answered with a typed `deadline_exceeded` line.
    pub deadlines: u64,
}

impl ServiceCounters {
    /// Requests answered from any cache tier (everything but computed,
    /// busy and errors).
    pub fn served_from_cache(&self) -> u64 {
        self.memoized + self.hot + self.coalesced
    }
}

#[derive(Debug, Default)]
struct SharedCounters {
    computed: AtomicU64,
    memoized: AtomicU64,
    hot: AtomicU64,
    coalesced: AtomicU64,
    busy: AtomicU64,
    errors: AtomicU64,
    deadlines: AtomicU64,
}

impl SharedCounters {
    fn snapshot(&self) -> ServiceCounters {
        ServiceCounters {
            computed: self.computed.load(Ordering::Relaxed),
            memoized: self.memoized.load(Ordering::Relaxed),
            hot: self.hot.load(Ordering::Relaxed),
            coalesced: self.coalesced.load(Ordering::Relaxed),
            busy: self.busy.load(Ordering::Relaxed),
            errors: self.errors.load(Ordering::Relaxed),
            deadlines: self.deadlines.load(Ordering::Relaxed),
        }
    }
}

/// A bounded ring of recent samples; percentile reads sort a copy, which
/// is fine at stats-request frequency.
#[derive(Debug, Default)]
struct SampleWindow {
    samples: Vec<u64>,
    next: usize,
}

impl SampleWindow {
    fn push(&mut self, value: u64) {
        if self.samples.len() < LATENCY_WINDOW {
            self.samples.push(value);
        } else {
            self.samples[self.next] = value;
            self.next = (self.next + 1) % LATENCY_WINDOW;
        }
    }

    fn percentile(&self, p: f64) -> u64 {
        if self.samples.is_empty() {
            return 0;
        }
        let mut sorted = self.samples.clone();
        sorted.sort_unstable();
        let idx = ((sorted.len() - 1) as f64 * p).round() as usize;
        sorted[idx.min(sorted.len() - 1)]
    }

    fn len(&self) -> usize {
        self.samples.len()
    }
}

#[derive(Debug, Default)]
struct LatencyWindows {
    queue_wait_us: SampleWindow,
    service_wall_us: SampleWindow,
}

fn lock_latency<'a>(m: &'a Mutex<LatencyWindows>) -> MutexGuard<'a, LatencyWindows> {
    m.lock().unwrap_or_else(|poison| poison.into_inner())
}

fn lock_hot<'a>(m: &'a Mutex<HotCache>) -> MutexGuard<'a, HotCache> {
    m.lock().unwrap_or_else(|poison| poison.into_inner())
}

/// The immutable shared core every connection handle points at: resolved
/// configuration, warm store handles, cache tiers, admission gate, and
/// the service-wide counters they update.
#[derive(Debug)]
pub struct ServiceShared {
    trace_store: Option<TraceStore>,
    report_store: Option<ReportStore>,
    hot: Option<Mutex<HotCache>>,
    flights: SingleFlight,
    admission: AdmissionControl,
    jobs: usize,
    policy: RunPolicy,
    max_connections: usize,
    idle_timeout: Option<Duration>,
    drain_timeout: Duration,
    max_line_bytes: usize,
    started: Instant,
    active_connections: AtomicUsize,
    persists: AtomicU64,
    counters: SharedCounters,
    latency: Mutex<LatencyWindows>,
    shutdown: AtomicBool,
}

impl ServiceShared {
    /// Service-wide request counters, aggregated across every connection.
    pub fn counters(&self) -> ServiceCounters {
        self.counters.snapshot()
    }

    /// The admission gate in front of the compute path.
    pub fn admission(&self) -> &AdmissionControl {
        &self.admission
    }

    /// The single-flight table.
    pub fn flights(&self) -> &SingleFlight {
        &self.flights
    }

    /// The bound on concurrently served socket connections.
    pub fn max_connections(&self) -> usize {
        self.max_connections
    }

    /// Connection slots currently held by handler threads.
    pub fn active_connections(&self) -> usize {
        self.active_connections.load(Ordering::SeqCst)
    }

    /// The per-connection idle budget (`None` = connections never idle
    /// out), measured from the last completed request.
    pub fn idle_timeout(&self) -> Option<Duration> {
        self.idle_timeout
    }

    /// How long shutdown waits for in-flight connections to drain.
    pub fn drain_timeout(&self) -> Duration {
        self.drain_timeout
    }

    /// The bound on one request line's byte length.
    pub fn max_line_bytes(&self) -> usize {
        self.max_line_bytes
    }

    /// Wall-clock time since the service was built (the `ping` uptime).
    pub fn uptime(&self) -> Duration {
        self.started.elapsed()
    }

    /// How many times tier counters were persisted to disk. The drain
    /// test pins this to "exactly once" across a shutdown.
    pub fn persist_count(&self) -> u64 {
        self.persists.load(Ordering::SeqCst)
    }

    pub(crate) fn connection_opened(&self) {
        self.active_connections.fetch_add(1, Ordering::SeqCst);
    }

    pub(crate) fn connection_closed(&self) {
        self.active_connections.fetch_sub(1, Ordering::SeqCst);
    }

    pub(crate) fn note_refused_connection(&self) {
        self.counters.busy.fetch_add(1, Ordering::Relaxed);
    }

    /// Whether a `shutdown` request has been served on any connection.
    pub fn shutdown_requested(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    fn tier_snapshot(&self) -> TierSnapshot {
        let requests = self.counters.snapshot();
        let (hot_counters, hot_bytes, hot_max_bytes) = match &self.hot {
            Some(hot) => {
                let hot = lock_hot(hot);
                (hot.counters(), hot.total_bytes(), hot.max_bytes())
            }
            None => (Default::default(), 0, 0),
        };
        let admission = self.admission.counters();
        TierSnapshot {
            computed: requests.computed,
            memoized: requests.memoized,
            hot: requests.hot,
            coalesced: requests.coalesced,
            busy: requests.busy,
            errors: requests.errors,
            deadlines: requests.deadlines,
            hot_hits: hot_counters.hits,
            hot_misses: hot_counters.misses,
            hot_evictions: hot_counters.evictions,
            hot_bytes,
            hot_max_bytes,
            flights_led: self.flights.led(),
            flights_coalesced: self.flights.coalesced(),
            admitted: admission.admitted,
            rejected: admission.rejected,
        }
    }

    /// Best-effort write of the tier counters into the report directory
    /// (see [`crate::TierSnapshot`]); a failure costs observability only.
    pub fn persist_counters(&self) {
        if let Some(store) = &self.report_store {
            self.persists.fetch_add(1, Ordering::SeqCst);
            if let Err(e) = self.tier_snapshot().save(store.root()) {
                eprintln!("pomtlb-serve: counter snapshot failed ({e}); continuing");
            }
        }
    }
}

#[derive(Serialize)]
struct RowBody {
    scheme: String,
    consistency: Option<bool>,
    report: SimReport,
}

#[derive(Serialize)]
struct RunBody {
    kind: String,
    workload: String,
    digest: String,
    rows: Vec<RowBody>,
}

#[derive(Serialize)]
struct ReportStoreStats {
    enabled: bool,
    root: String,
    entries: u64,
    total_bytes: u64,
    hits: u64,
    misses: u64,
    stores: u64,
    bytes_read: u64,
    load_failures: u64,
}

#[derive(Serialize)]
struct TraceStoreStats {
    enabled: bool,
    root: String,
    hits: u64,
    misses: u64,
    bytes_mapped: u64,
    load_failures: u64,
}

#[derive(Serialize)]
struct HotCacheStats {
    enabled: bool,
    entries: u64,
    total_bytes: u64,
    max_bytes: u64,
    hits: u64,
    misses: u64,
    insertions: u64,
    evictions: u64,
}

#[derive(Serialize)]
struct SingleFlightStats {
    led: u64,
    coalesced: u64,
    in_flight: u64,
}

#[derive(Serialize)]
struct AdmissionStats {
    max_in_flight: u64,
    max_queue: u64,
    in_flight: u64,
    queued: u64,
    admitted: u64,
    rejected: u64,
}

#[derive(Serialize)]
struct LatencyStats {
    samples: u64,
    queue_wait_p50_us: u64,
    queue_wait_p99_us: u64,
    service_wall_p50_us: u64,
    service_wall_p99_us: u64,
}

#[derive(Serialize)]
struct StatsBody {
    kind: String,
    requests: ServiceCounters,
    max_connections: u64,
    active_connections: u64,
    uptime_ms: u64,
    report_store: ReportStoreStats,
    trace_store: TraceStoreStats,
    hot_cache: HotCacheStats,
    single_flight: SingleFlightStats,
    admission: AdmissionStats,
    latency: LatencyStats,
}

fn json_str(s: &str) -> String {
    serde_json::to_string(&s).unwrap_or_else(|_| "\"\"".to_string())
}

/// One response line with a body (`body_json` is spliced in verbatim —
/// this is what makes every cache tier byte-identical to the computed
/// body it caches).
fn ok_line(id: &str, provenance: &str, wall_ms: u128, body_json: &str) -> String {
    format!(
        "{{\"id\":{},\"ok\":true,\"provenance\":\"{provenance}\",\"wall_ms\":{wall_ms},\"body\":{body_json}}}",
        json_str(id)
    )
}

fn err_line(id: &str, message: &str) -> String {
    format!("{{\"id\":{},\"ok\":false,\"error\":{}}}", json_str(id), json_str(message))
}

/// The typed refusal when the compute gate (or its wait queue) is full.
fn busy_line(id: &str, in_flight: usize, queued: usize) -> String {
    format!(
        "{{\"id\":{},\"ok\":false,\"busy\":true,\"in_flight\":{in_flight},\"queued\":{queued},\
         \"error\":\"server busy: compute queue full; retry later\"}}",
        json_str(id)
    )
}

/// The typed refusal when the compute blew the per-request deadline
/// ([`RunPolicy::deadline`]): the client gets an answer instead of a
/// hung conversation, and nothing is memoized.
fn deadline_line(id: &str) -> String {
    format!(
        "{{\"id\":{},\"ok\":false,\"deadline_exceeded\":true,\
         \"error\":\"compute deadline exceeded; retry with a smaller request or higher budget\"}}",
        json_str(id)
    )
}

enum Served {
    Computed,
    Memoized,
    Hot,
    Coalesced,
    Busy,
    Error,
    Deadline,
}

/// Why [`Service::compute_body`] produced no body.
enum ComputeFailure {
    /// The batch blew [`RunPolicy::deadline`].
    Deadline,
    /// A job failed after retries; the operator-facing message.
    Error(String),
}

/// A per-connection handle onto the shared warm core. `new` builds the
/// core and the first handle; [`Service::connection`] mints further
/// handles (fresh per-connection counters, same warm state) for the
/// socket transport's handler threads.
#[derive(Debug)]
pub struct Service {
    shared: Arc<ServiceShared>,
    conn: ServiceCounters,
}

impl Service {
    /// Opens the configured stores and builds a ready service.
    pub fn new(cfg: ServeConfig) -> io::Result<Service> {
        let trace_store = cfg.trace_dir.map(TraceStore::open).transpose()?;
        let report_store = cfg
            .report_dir
            .map(ReportStore::open)
            .transpose()?
            .map(|s| s.with_max_bytes(cfg.report_max_bytes));
        let hot = (cfg.hot_max_bytes > 0).then(|| Mutex::new(HotCache::new(cfg.hot_max_bytes)));
        let max_inflight = if cfg.max_inflight == 0 {
            // Auto: enough concurrent computes to keep the pool busy while
            // one request blocks on I/O, without convoying the cores.
            default_jobs().clamp(2, 8)
        } else {
            cfg.max_inflight
        };
        let shared = ServiceShared {
            trace_store,
            report_store,
            hot,
            flights: SingleFlight::new(),
            admission: AdmissionControl::new(max_inflight, cfg.max_queue),
            jobs: cfg.jobs,
            policy: cfg.policy,
            max_connections: cfg.max_connections.max(1),
            idle_timeout: cfg.idle_timeout,
            drain_timeout: cfg.drain_timeout,
            max_line_bytes: cfg.max_line_bytes.max(1),
            started: Instant::now(),
            active_connections: AtomicUsize::new(0),
            persists: AtomicU64::new(0),
            counters: SharedCounters::default(),
            latency: Mutex::new(LatencyWindows::default()),
            shutdown: AtomicBool::new(false),
        };
        Ok(Service { shared: Arc::new(shared), conn: ServiceCounters::default() })
    }

    /// A new handle onto the same warm core with fresh per-connection
    /// counters — what [`serve_unix`] hands each handler thread.
    pub fn connection(&self) -> Service {
        Service { shared: Arc::clone(&self.shared), conn: ServiceCounters::default() }
    }

    /// The shared warm core this handle points at.
    pub fn shared(&self) -> &Arc<ServiceShared> {
        &self.shared
    }

    /// Whether a `shutdown` request has been served on any connection.
    pub fn shutdown_requested(&self) -> bool {
        self.shared.shutdown_requested()
    }

    /// Requests served so far across all connections, by provenance.
    pub fn counters(&self) -> ServiceCounters {
        self.shared.counters()
    }

    /// Requests served on this connection handle alone.
    pub fn conn_counters(&self) -> ServiceCounters {
        self.conn
    }

    /// The warm report store, when memoization is enabled.
    pub fn report_store(&self) -> Option<&ReportStore> {
        self.shared.report_store.as_ref()
    }

    /// The warm trace store, when persistent traces are enabled.
    pub fn trace_store(&self) -> Option<&TraceStore> {
        self.shared.trace_store.as_ref()
    }

    /// Best-effort persistence of tier counters into the report dir.
    pub fn persist_counters(&self) {
        self.shared.persist_counters();
    }

    fn note(&mut self, served: Served) {
        let (conn_field, shared_field) = match served {
            Served::Computed => (&mut self.conn.computed, &self.shared.counters.computed),
            Served::Memoized => (&mut self.conn.memoized, &self.shared.counters.memoized),
            Served::Hot => (&mut self.conn.hot, &self.shared.counters.hot),
            Served::Coalesced => (&mut self.conn.coalesced, &self.shared.counters.coalesced),
            Served::Busy => (&mut self.conn.busy, &self.shared.counters.busy),
            Served::Error => (&mut self.conn.errors, &self.shared.counters.errors),
            Served::Deadline => (&mut self.conn.deadlines, &self.shared.counters.deadlines),
        };
        *conn_field += 1;
        shared_field.fetch_add(1, Ordering::Relaxed);
    }

    /// Serves one request line. Blank lines yield `None`; everything else
    /// yields exactly one response line (without trailing newline).
    pub fn handle_line(&mut self, line: &str) -> Option<String> {
        let line = line.trim();
        if line.is_empty() {
            return None;
        }
        let req: ServeRequest = match serde_json::from_str(line) {
            Ok(req) => req,
            Err(e) => {
                self.note(Served::Error);
                return Some(err_line("", &format!("unparseable request: {e}")));
            }
        };
        Some(self.handle_request(&req))
    }

    fn handle_request(&mut self, req: &ServeRequest) -> String {
        match req.kind.as_str() {
            "ping" => {
                // Liveness only: no digest, no tiers, no compute — safe
                // for health checks and chaos harnesses at any frequency.
                let body = format!(
                    "{{\"kind\":\"ping\",\"version\":{},\"uptime_ms\":{}}}",
                    json_str(env!("CARGO_PKG_VERSION")),
                    self.shared.uptime().as_millis()
                );
                return ok_line(&req.id, "computed", 0, &body);
            }
            "stats" => {
                let body = serde_json::to_string(&self.stats_body())
                    .unwrap_or_else(|_| "{}".to_string());
                self.shared.persist_counters();
                return ok_line(&req.id, "computed", 0, &body);
            }
            "shutdown" => {
                // Persistence happens once, at the end of the transport
                // loop, after the graceful drain — not here, where racing
                // handlers would snapshot a moving target.
                self.shared.shutdown.store(true, Ordering::SeqCst);
                return ok_line(&req.id, "computed", 0, "{\"kind\":\"shutdown\"}");
            }
            _ => {}
        }
        let started = Instant::now();
        let response = self.run_request(req, &started);
        lock_latency(&self.shared.latency)
            .service_wall_us
            .push(started.elapsed().as_micros() as u64);
        response
    }

    /// The tier walk for a run-kind request: hot cache, single-flight,
    /// disk store, compute (behind admission).
    fn run_request(&mut self, req: &ServeRequest, started: &Instant) -> String {
        // Permits and flight leaderships borrow the shared core; holding
        // them through the per-connection counter updates needs a borrow
        // that is independent of `self`.
        let shared = Arc::clone(&self.shared);
        let resolved = match req.resolve() {
            Ok(r) => r,
            Err(e) => {
                self.note(Served::Error);
                return err_line(&req.id, &e);
            }
        };
        let digest = request_digest(&resolved);
        if !resolved.memoize {
            // Fault sweeps and opted-out requests: the run is the product,
            // so no tier may answer for it — but it still pays admission.
            let permit = match shared.admission.admit() {
                Ok(permit) => permit,
                Err(busy) => {
                    self.note(Served::Busy);
                    return busy_line(&req.id, busy.in_flight, busy.queued);
                }
            };
            lock_latency(&shared.latency)
                .queue_wait_us
                .push(started.elapsed().as_micros() as u64);
            let computed = self.compute_body(&resolved, &digest);
            drop(permit);
            return match computed {
                Ok(body) => {
                    self.note(Served::Computed);
                    ok_line(&req.id, "computed", started.elapsed().as_millis(), &body)
                }
                Err(ComputeFailure::Deadline) => {
                    self.note(Served::Deadline);
                    deadline_line(&req.id)
                }
                Err(ComputeFailure::Error(message)) => {
                    self.note(Served::Error);
                    err_line(&req.id, &message)
                }
            };
        }
        if let Some(hot) = &shared.hot {
            if let Some(body) = lock_hot(hot).get(&digest) {
                self.note(Served::Hot);
                return ok_line(&req.id, "hot", started.elapsed().as_millis(), &body);
            }
        }
        let leader = match shared.flights.join(digest) {
            Joined::Follower(follower) => {
                return match follower.wait() {
                    Ok(body) => {
                        self.note(Served::Coalesced);
                        ok_line(&req.id, "coalesced", started.elapsed().as_millis(), &body)
                    }
                    Err(FlightFailure::Busy { in_flight, queued }) => {
                        self.note(Served::Busy);
                        busy_line(&req.id, in_flight, queued)
                    }
                    Err(FlightFailure::Error(message)) => {
                        self.note(Served::Error);
                        err_line(&req.id, &message)
                    }
                    Err(FlightFailure::DeadlineExceeded) => {
                        self.note(Served::Deadline);
                        deadline_line(&req.id)
                    }
                    Err(FlightFailure::Abandoned) => {
                        self.note(Served::Error);
                        err_line(&req.id, "in-flight computation was abandoned; retry")
                    }
                };
            }
            Joined::Leader(leader) => leader,
        };
        if let Some(store) = &shared.report_store {
            if let Some(payload) = store.load(&digest) {
                // Stored payloads are the canonical UTF-8 body; a
                // defective one already missed inside `load`.
                if let Ok(body) = String::from_utf8(payload) {
                    self.promote_to_hot(&digest, &body);
                    leader.publish(Ok(body.clone()));
                    self.note(Served::Memoized);
                    return ok_line(&req.id, "memoized", started.elapsed().as_millis(), &body);
                }
            }
        }
        let permit = match shared.admission.admit() {
            Ok(permit) => permit,
            Err(busy) => {
                leader.publish(Err(FlightFailure::Busy {
                    in_flight: busy.in_flight,
                    queued: busy.queued,
                }));
                self.note(Served::Busy);
                return busy_line(&req.id, busy.in_flight, busy.queued);
            }
        };
        lock_latency(&shared.latency)
            .queue_wait_us
            .push(started.elapsed().as_micros() as u64);
        let computed = self.compute_body(&resolved, &digest);
        drop(permit);
        match computed {
            Ok(body) => {
                if let Some(store) = &shared.report_store {
                    if let Err(e) = store.save(
                        &digest,
                        body.as_bytes(),
                        resolved.kind.name(),
                        &resolved.workload_name(),
                    ) {
                        // Memoization is an accelerator: a failed save costs
                        // the next identical request a recompute, nothing else.
                        eprintln!("report-store: save failed ({e}); continuing unmemoized");
                    }
                }
                self.promote_to_hot(&digest, &body);
                leader.publish(Ok(body.clone()));
                self.note(Served::Computed);
                ok_line(&req.id, "computed", started.elapsed().as_millis(), &body)
            }
            Err(ComputeFailure::Deadline) => {
                leader.publish(Err(FlightFailure::DeadlineExceeded));
                self.note(Served::Deadline);
                deadline_line(&req.id)
            }
            Err(ComputeFailure::Error(message)) => {
                leader.publish(Err(FlightFailure::Error(message.clone())));
                self.note(Served::Error);
                err_line(&req.id, &message)
            }
        }
    }

    fn promote_to_hot(&self, digest: &[u8; 32], body: &str) {
        if let Some(hot) = &self.shared.hot {
            lock_hot(hot).insert(*digest, body);
        }
    }

    fn compute_body(
        &self,
        resolved: &ResolvedRequest,
        digest: &[u8; 32],
    ) -> Result<String, ComputeFailure> {
        let (mut jobs, rows) = resolved.jobs();
        share_traces_with_store(&mut jobs, self.shared.trace_store.as_ref());
        let workers = if self.shared.jobs == 0 { default_jobs() } else { self.shared.jobs };
        let outcomes = run_jobs_with(jobs, workers, self.shared.policy, &|_, _| {});
        let mut row_bodies = Vec::with_capacity(outcomes.len());
        for (outcome, meta) in outcomes.into_iter().zip(rows) {
            match &outcome {
                // A partial batch must never become a body: one row past
                // the deadline poisons the whole response.
                JobOutcome::DeadlineExceeded { .. } => return Err(ComputeFailure::Deadline),
                JobOutcome::Panicked { label, message, .. } => {
                    return Err(ComputeFailure::Error(format!(
                        "job `{label}` failed after retries: {message}"
                    )));
                }
                _ => {}
            }
            let Some(result) = outcome.into_result() else { continue };
            row_bodies.push(RowBody {
                scheme: meta.scheme.label().to_string(),
                consistency: meta.consistency,
                report: result.report,
            });
        }
        let body = RunBody {
            kind: resolved.kind.name().to_string(),
            workload: resolved.workload_name(),
            digest: digest_hex(digest),
            rows: row_bodies,
        };
        serde_json::to_string(&body).map_err(|_| {
            ComputeFailure::Error("internal error: body serialization failed".to_string())
        })
    }

    fn stats_body(&self) -> StatsBody {
        let shared = &*self.shared;
        let reports = shared.report_store.as_ref();
        let rc = reports.map(ReportStore::counters).unwrap_or_default();
        let report_store = ReportStoreStats {
            enabled: reports.is_some(),
            root: reports.map(|s| s.root().display().to_string()).unwrap_or_default(),
            entries: reports.map_or(0, |s| s.entries().len() as u64),
            total_bytes: reports.map_or(0, ReportStore::total_bytes),
            hits: rc.hits,
            misses: rc.misses,
            stores: rc.stores,
            bytes_read: rc.bytes_read,
            load_failures: rc.load_failures,
        };
        let traces = shared.trace_store.as_ref();
        let tc = traces.map(TraceStore::counters).unwrap_or_default();
        let trace_store = TraceStoreStats {
            enabled: traces.is_some(),
            root: traces.map(|s| s.root().display().to_string()).unwrap_or_default(),
            hits: tc.hits,
            misses: tc.misses,
            bytes_mapped: tc.bytes_read,
            load_failures: tc.load_failures,
        };
        let hot_cache = match &shared.hot {
            Some(hot) => {
                let hot = lock_hot(hot);
                let c = hot.counters();
                HotCacheStats {
                    enabled: true,
                    entries: hot.len() as u64,
                    total_bytes: hot.total_bytes(),
                    max_bytes: hot.max_bytes(),
                    hits: c.hits,
                    misses: c.misses,
                    insertions: c.insertions,
                    evictions: c.evictions,
                }
            }
            None => HotCacheStats {
                enabled: false,
                entries: 0,
                total_bytes: 0,
                max_bytes: 0,
                hits: 0,
                misses: 0,
                insertions: 0,
                evictions: 0,
            },
        };
        let admission_counters = shared.admission.counters();
        let latency = lock_latency(&shared.latency);
        StatsBody {
            kind: "stats".to_string(),
            requests: shared.counters.snapshot(),
            max_connections: shared.max_connections as u64,
            active_connections: shared.active_connections() as u64,
            uptime_ms: shared.uptime().as_millis() as u64,
            report_store,
            trace_store,
            hot_cache,
            single_flight: SingleFlightStats {
                led: shared.flights.led(),
                coalesced: shared.flights.coalesced(),
                in_flight: shared.flights.in_flight() as u64,
            },
            admission: AdmissionStats {
                max_in_flight: shared.admission.max_in_flight() as u64,
                max_queue: shared.admission.max_queue() as u64,
                in_flight: shared.admission.in_flight() as u64,
                queued: shared.admission.queued() as u64,
                admitted: admission_counters.admitted,
                rejected: admission_counters.rejected,
            },
            latency: LatencyStats {
                samples: latency.service_wall_us.len() as u64,
                queue_wait_p50_us: latency.queue_wait_us.percentile(0.50),
                queue_wait_p99_us: latency.queue_wait_us.percentile(0.99),
                service_wall_p50_us: latency.service_wall_us.percentile(0.50),
                service_wall_p99_us: latency.service_wall_us.percentile(0.99),
            },
        }
    }
}

/// Serves JSON-lines requests from `input` to `output` until EOF or a
/// `shutdown` request; the core of the stdin transport (the socket
/// transports layer read timeouts, idle deadlines and line bounds on top
/// so they can observe a shutdown raised on a *different* connection —
/// see [`crate::transport`]). Like the socket transports, tier counters
/// are persisted once, when the conversation ends.
pub fn serve_io(
    service: &mut Service,
    input: impl BufRead,
    mut output: impl Write,
) -> io::Result<()> {
    for line in input.lines() {
        let line = line?;
        if let Some(response) = service.handle_line(&line) {
            output.write_all(response.as_bytes())?;
            output.write_all(b"\n")?;
            output.flush()?;
        }
        if service.shutdown_requested() {
            break;
        }
    }
    service.persist_counters();
    Ok(())
}

/// The stdin transport: requests on stdin, responses on stdout, one line
/// each, until EOF or `shutdown`. This is what CI's serve-smoke drives.
pub fn serve_stdin(service: &mut Service) -> io::Result<()> {
    let stdin = io::stdin();
    let stdout = io::stdout();
    serve_io(service, stdin.lock(), stdout.lock())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fs;
    use std::path::PathBuf;

    struct TempDir(PathBuf);

    impl TempDir {
        fn new(tag: &str) -> TempDir {
            let path =
                std::env::temp_dir().join(format!("pomtlb-serve-{tag}-{}", std::process::id()));
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

    fn quick(id: &str, kind: &str) -> String {
        format!(
            "{{\"id\":\"{id}\",\"kind\":\"{kind}\",\"workload\":\"gups\",\
             \"cores\":2,\"refs\":1500,\"warmup\":500}}"
        )
    }

    fn body_of(response: &str) -> String {
        let v: serde::Value = serde_json::from_str(response).expect("response parses");
        serde_json::to_string(&v["body"]).expect("body serializes")
    }

    #[test]
    fn blank_lines_are_ignored() {
        let mut svc = Service::new(ServeConfig::default()).expect("service");
        assert!(svc.handle_line("").is_none());
        assert!(svc.handle_line("   ").is_none());
    }

    #[test]
    fn parse_and_resolve_errors_are_error_lines() {
        let mut svc = Service::new(ServeConfig::default()).expect("service");
        let r = svc.handle_line("this is not json").expect("response");
        assert!(r.contains("\"ok\":false"));
        let r = svc
            .handle_line("{\"id\":\"x\",\"kind\":\"sim\",\"workload\":\"nope\"}")
            .expect("response");
        assert!(r.contains("\"ok\":false") && r.contains("unknown workload"));
        assert_eq!(svc.counters().errors, 2);
    }

    #[test]
    fn sim_without_stores_computes_then_serves_hot() {
        let mut svc = Service::new(ServeConfig::default()).expect("service");
        let a = svc.handle_line(&quick("a", "sim")).expect("response");
        let b = svc.handle_line(&quick("b", "sim")).expect("response");
        assert!(a.contains("\"provenance\":\"computed\""));
        assert!(b.contains("\"provenance\":\"hot\""), "hot tier needs no disk store");
        assert_eq!(body_of(&a), body_of(&b), "same request, same body");
        let counters = svc.counters();
        assert_eq!((counters.computed, counters.hot), (1, 1));
    }

    #[test]
    fn hot_tier_disabled_computes_every_time() {
        let cfg = ServeConfig { hot_max_bytes: 0, ..Default::default() };
        let mut svc = Service::new(cfg).expect("service");
        let a = svc.handle_line(&quick("a", "sim")).expect("response");
        let b = svc.handle_line(&quick("b", "sim")).expect("response");
        assert!(a.contains("\"provenance\":\"computed\""));
        assert!(b.contains("\"provenance\":\"computed\""));
        assert_eq!(body_of(&a), body_of(&b), "same request, same body");
        assert_eq!(svc.counters().computed, 2);
    }

    #[test]
    fn warm_tiers_are_byte_identical_hot_in_process_memoized_across_handles() {
        let dir = TempDir::new("memo");
        let cfg = ServeConfig { report_dir: Some(dir.0.join("reports")), ..Default::default() };
        let mut svc = Service::new(cfg.clone()).expect("service");
        let cold = svc.handle_line(&quick("c1", "compare")).expect("response");
        let warm = svc.handle_line(&quick("c2", "compare")).expect("response");
        assert!(cold.contains("\"provenance\":\"computed\""));
        assert!(warm.contains("\"provenance\":\"hot\""), "in-process repeat hits the hot tier");
        assert_eq!(body_of(&cold), body_of(&warm));
        let counters = svc.counters();
        assert_eq!((counters.computed, counters.hot), (1, 1));
        // A fresh service over the same report dir has a cold hot-cache:
        // the disk tier answers, byte-identically.
        let mut fresh = Service::new(cfg).expect("fresh service");
        let memo = fresh.handle_line(&quick("c3", "compare")).expect("response");
        assert!(memo.contains("\"provenance\":\"memoized\""));
        assert_eq!(body_of(&cold), body_of(&memo));
        assert_eq!(fresh.counters().memoized, 1);
    }

    #[test]
    fn consolidation_requests_compute_and_memoize() {
        let dir = TempDir::new("consmemo");
        let cfg = ServeConfig { report_dir: Some(dir.0.join("reports")), ..Default::default() };
        let mut svc = Service::new(cfg.clone()).expect("service");
        let line = "{\"id\":\"k1\",\"kind\":\"consolidation\",\"vms\":40,\
                    \"cores\":2,\"refs\":1500,\"warmup\":500}";
        let cold = svc.handle_line(line).expect("response");
        assert!(cold.contains("\"provenance\":\"computed\""), "cold response computes: {cold}");
        assert!(cold.contains("consolidation-40vm"), "body names the tenant-mix workload");
        assert!(cold.contains("\"tenancy\""), "rows carry the per-tenant QoS section");
        // A fresh handle over the same report dir answers byte-identically
        // from disk — consolidation runs are deterministic and memoizable.
        let mut fresh = Service::new(cfg).expect("fresh service");
        let memo = fresh.handle_line(line).expect("response");
        assert!(memo.contains("\"provenance\":\"memoized\""));
        assert_eq!(body_of(&cold), body_of(&memo));
        // The generic event knobs are refused, not silently ignored.
        let bad = "{\"id\":\"k2\",\"kind\":\"consolidation\",\"unmaps_per_10k\":5}";
        let err = fresh.handle_line(bad).expect("response");
        assert!(err.contains("\"ok\":false"), "event knobs conflict: {err}");
    }

    #[test]
    fn fault_sweep_never_memoizes() {
        let dir = TempDir::new("faultmemo");
        let cfg = ServeConfig { report_dir: Some(dir.0.join("reports")), ..Default::default() };
        let mut svc = Service::new(cfg).expect("service");
        let a = svc.handle_line(&quick("f1", "fault-sweep")).expect("response");
        let b = svc.handle_line(&quick("f2", "fault-sweep")).expect("response");
        assert!(a.contains("\"provenance\":\"computed\""));
        assert!(b.contains("\"provenance\":\"computed\""));
        assert_eq!(svc.counters().memoized, 0);
        assert_eq!(svc.counters().hot, 0, "fault sweeps skip the hot tier too");
        assert_eq!(svc.report_store().expect("store").counters().stores, 0);
    }

    #[test]
    fn stats_and_shutdown_round_trip() {
        let mut svc = Service::new(ServeConfig::default()).expect("service");
        let r = svc.handle_line("{\"id\":\"s\",\"kind\":\"stats\"}").expect("response");
        assert!(r.contains("\"ok\":true") && r.contains("\"requests\""));
        assert!(r.contains("\"hot_cache\"") && r.contains("\"single_flight\""));
        assert!(r.contains("\"admission\"") && r.contains("\"latency\""));
        assert!(!svc.shutdown_requested());
        let r = svc.handle_line("{\"id\":\"q\",\"kind\":\"shutdown\"}").expect("response");
        assert!(r.contains("\"ok\":true"));
        assert!(svc.shutdown_requested());
    }

    #[test]
    fn connection_handles_share_warm_state_and_shutdown() {
        let mut svc = Service::new(ServeConfig::default()).expect("service");
        let mut conn = svc.connection();
        let a = svc.handle_line(&quick("a", "sim")).expect("response");
        let b = conn.handle_line(&quick("b", "sim")).expect("response");
        assert!(a.contains("\"provenance\":\"computed\""));
        assert!(b.contains("\"provenance\":\"hot\""), "tiers are shared across handles");
        assert_eq!(body_of(&a), body_of(&b));
        let total = svc.counters();
        assert_eq!((total.computed, total.hot), (1, 1), "counters aggregate");
        assert_eq!(conn.conn_counters().hot, 1);
        assert_eq!(conn.conn_counters().computed, 0);
        conn.handle_line("{\"id\":\"q\",\"kind\":\"shutdown\"}").expect("response");
        assert!(svc.shutdown_requested(), "shutdown raised anywhere is seen everywhere");
    }

    #[test]
    fn stats_persist_tier_counters_for_the_cli() {
        let dir = TempDir::new("persist");
        let reports = dir.0.join("reports");
        let cfg = ServeConfig { report_dir: Some(reports.clone()), ..Default::default() };
        let mut svc = Service::new(cfg).expect("service");
        svc.handle_line(&quick("a", "sim")).expect("response");
        svc.handle_line(&quick("b", "sim")).expect("response");
        svc.handle_line("{\"id\":\"s\",\"kind\":\"stats\"}").expect("response");
        let snapshot = TierSnapshot::load(&reports).expect("snapshot written");
        assert_eq!((snapshot.computed, snapshot.hot), (1, 1));
        assert_eq!(snapshot.flights_led, 1);
    }

    #[test]
    fn serve_io_answers_in_order_and_stops_on_shutdown() {
        let mut svc = Service::new(ServeConfig::default()).expect("service");
        let script = format!(
            "{}\n{{\"id\":\"s\",\"kind\":\"stats\"}}\n{{\"id\":\"q\",\"kind\":\"shutdown\"}}\n{}\n",
            quick("r1", "sim"),
            quick("never", "sim"),
        );
        let mut out = Vec::new();
        serve_io(&mut svc, script.as_bytes(), &mut out).expect("serve");
        let text = String::from_utf8(out).expect("utf8");
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3, "the post-shutdown request is never served");
        assert!(lines[0].contains("\"id\":\"r1\""));
        assert!(lines[1].contains("\"id\":\"s\""));
        assert!(lines[2].contains("\"id\":\"q\""));
    }

    #[test]
    fn ping_answers_version_and_uptime_without_compute() {
        let mut svc = Service::new(ServeConfig::default()).expect("service");
        let r = svc.handle_line("{\"id\":\"p\",\"kind\":\"ping\"}").expect("response");
        assert!(r.contains("\"ok\":true"), "{r}");
        assert!(r.contains("\"kind\":\"ping\""));
        assert!(r.contains(&format!("\"version\":\"{}\"", env!("CARGO_PKG_VERSION"))));
        assert!(r.contains("\"uptime_ms\":"));
        let counters = svc.counters();
        assert_eq!(counters, ServiceCounters::default(), "ping touches no tier counter");
    }

    #[test]
    fn deadline_zero_answers_typed_deadline_exceeded() {
        let cfg = ServeConfig {
            policy: RunPolicy::with_deadline(std::time::Duration::ZERO),
            ..Default::default()
        };
        let mut svc = Service::new(cfg).expect("service");
        let r = svc.handle_line(&quick("d", "sim")).expect("response");
        assert!(r.contains("\"ok\":false"), "{r}");
        assert!(r.contains("\"deadline_exceeded\":true"), "{r}");
        assert_eq!(svc.counters().deadlines, 1);
        assert_eq!(svc.counters().computed, 0, "nothing was computed");
        assert_eq!(
            svc.shared().flights().in_flight(),
            0,
            "the flight resolved; no leadership leaked"
        );
        assert_eq!(svc.shared().admission().in_flight(), 0, "no permit leaked");
    }
}
