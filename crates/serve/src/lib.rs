//! # pomtlb-serve: the long-lived sweep service
//!
//! Every CLI invocation before this crate paid the same warm-up taxes:
//! generate (or load) the input streams, build the simulators, run the
//! batch — then throw all of it away. The serve crate keeps that state
//! alive. A [`Service`] is a daemon-shaped object that accepts sim,
//! compare, consolidation and fault-sweep requests as JSON lines (over
//! stdin, a Unix socket, or a hardened TCP listener), keeps one warm [`pomtlb_trace::TraceStore`] handle and one
//! worker-pool policy across requests, and answers *repeated* requests
//! from the same content-addressed store over a second codec: the
//! [`ReportStore`] (POMREP1, re-exported from `pomtlb_trace`), which
//! memoizes finished response bodies keyed by [`request_digest`] — the
//! shared 4-lane splitmix digest over the trace key plus every
//! configuration dimension that can change the result.
//!
//! The memoization contract, end to end:
//!
//! * **Key** — [`request_digest`] of the resolved request
//!   ([`ServeRequest::resolve`]); request ids are not part of it.
//! * **Value** — the canonical JSON response body, stored byte-exact in
//!   the checksummed POMREP1 format and spliced back verbatim, so a
//!   memoized response is *byte-identical* to the computed one.
//! * **Provenance** — every response line says which tier answered:
//!   `"computed"`, `"memoized"` (disk store), `"hot"` (the in-memory
//!   [`HotCache`] in front of the disk tier), or `"coalesced"` (spliced
//!   from an identical request already in flight via [`SingleFlight`]);
//!   `stats` exposes every tier's counters.
//! * **Invalidation** — fault-injected runs are never memoized; any
//!   defective on-disk entry warns, misses, and is recomputed
//!   (strict warn-and-recompute, never a wrong answer).
//!
//! Since PR 8 the daemon is concurrent end to end: [`Service`] is a
//! cheap per-connection handle onto one shared warm core
//! ([`ServiceShared`]), the Unix-socket transport runs one handler
//! thread per connection (bounded by `max_connections`), and an
//! admission gate in front of the worker pool answers overload with a
//! typed `busy` line instead of convoying every conversation.
//!
//! Since PR 10 both socket transports share one hardened connection
//! loop ([`serve_tcp`] / [`serve_unix`] over `serve_conn`): bounded
//! request-line reads (`max_line_bytes`), idle timeouts measured from
//! the last *completed* request, per-request compute deadlines
//! answering typed `deadline_exceeded` lines, and graceful drain that
//! persists tier counters exactly once. The [`Client`] speaks the same
//! protocol with capped seeded-jitter backoff and digest-keyed
//! idempotent retries, and the deterministic [`ChaosProxy`] injects
//! seeded resets / torn writes / stalls for failure rehearsal.
//!
//! See `DESIGN.md` §10 and §12 for the architecture discussion and the
//! CLI's `pomtlb serve` / `pomtlb client` / `pomtlb chaos-proxy` /
//! `pomtlb report-store` commands for the operator surface.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod chaos;
mod client;
mod flight;
mod hot_cache;
mod request;
mod service;
mod tiers;
mod transport;

pub use flight::{FlightFailure, FlightFollower, FlightLeader, FlightResult, Joined, SingleFlight};
pub use hot_cache::{HotCache, HotCacheCounters, DEFAULT_HOT_MAX_BYTES};
pub use pomtlb_trace::{ReportEntry, ReportStore, DEFAULT_REPORT_MAX_BYTES, REPORT_FORMAT_VERSION};
pub use request::{
    parse_scheme, request_bytes, request_digest, EnvelopeError, RequestKind, ResolvedRequest,
    RowMeta, ServeRequest, TenantParams, DEFAULT_CAPACITY_MB, DEFAULT_CORES, DEFAULT_FAULT_SEED,
    DEFAULT_REFS, DEFAULT_SEED, DEFAULT_WARMUP, REQUEST_DIGEST_VERSION,
};
pub use chaos::{ChaosConfig, ChaosCounters, ChaosProxy};
pub use client::{Client, ClientConfig, ClientCounters, ClientError};
pub use service::{
    serve_io, serve_stdin, ServeConfig, Service, ServiceCounters, ServiceShared,
    DEFAULT_DRAIN_TIMEOUT_SECS, DEFAULT_MAX_CONNECTIONS, DEFAULT_MAX_LINE_BYTES,
    DEFAULT_MAX_QUEUE,
};
pub use tiers::{TierSnapshot, SERVE_COUNTERS_FILE};
pub use transport::{bind_tcp_listener, serve_tcp};

#[cfg(unix)]
pub use transport::{bind_unix_listener, serve_unix};
