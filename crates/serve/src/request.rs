//! The serve protocol: JSON-lines requests and their canonical digest.
//!
//! One request is one JSON object on one line. The wire shape is a flat
//! struct with CLI-flag names, every knob optional (`0` / `false` / `""`
//! means "default": the `DEFAULT_*` constants below), so
//!
//! ```json
//! {"id":"c1","kind":"compare","workload":"gups","cores":2,"refs":5000}
//! ```
//!
//! is a complete request. `kind` selects the batch shape:
//!
//! * `sim` — one scheme (`scheme` knob, default `pom-tlb`),
//! * `compare` — the four-scheme comparison batch,
//! * `consolidation` — the four schemes over a churning multi-tenant
//!   population (`vms`, `churn_destroys_per_10k`, `churn_forks_per_10k`,
//!   `no_churn` knobs; takes no `workload`),
//! * `fault-sweep` — every scheme × consistency {on, off} with seeded
//!   fault injection (never memoized — see [`ResolvedRequest::memoize`]),
//! * `ping` — liveness probe answering version + uptime; never simulates,
//!   never memoizes,
//! * `stats` — service and store counters,
//! * `shutdown` — stop the daemon after responding.
//!
//! # The memoization key
//!
//! [`request_digest`] is the content address a memoized response body is
//! stored under: the shared 4-lane splitmix [`digest256`] over a
//! versioned, canonical byte encoding of everything that influences the
//! body. The encoding embeds the [`TraceKey`] digest (which already
//! covers the workload spec, OS-event rates, seed, core count, sharing
//! mode and total reference budget) and appends the *configuration*
//! dimensions the trace key cannot see: the warmup/measure split, the
//! scheme set, POM-TLB capacity, walk mode, prepopulation, the
//! consistency override, and the fault plan. Request `id`s are expressly
//! *not* part of the digest — identity is semantic, not nominal.
//!
//! # One resolution, two front ends
//!
//! [`ServeRequest::resolve_given`] is the one path from knobs to a batch:
//! the daemon, the benchmark and every CLI simulation command build their
//! [`ResolvedRequest`] through it. Only the meaning of zero differs.
//! On the wire a zero knob stands for its default, so
//! [`ServeRequest::resolve`] substitutes the defaults first. The CLI keeps
//! its flags literal (`--warmup 0` runs without warmup) and calls
//! `resolve_given` directly.

use pom_tlb::{FaultConfig, PomTlbConfig, Scheme, SimConfig, SimJob, SystemConfig};
use pomtlb_tlb::WalkMode;
use pomtlb_trace::digest::digest256;
use pomtlb_trace::{OsEventRates, TraceKey};
use pomtlb_workloads::consolidation::{consolidation_spec, resolve_mix};
use pomtlb_workloads::{by_name, names, PaperWorkload};
use serde::{Deserialize, Serialize};

/// Version of the canonical [`request_digest`] encoding, baked into the
/// digest input so stale digests can never alias new ones. Version 2
/// added the `consolidation` kind (and made the workload optional in the
/// resolved form); the kind tag byte keeps old digests from aliasing.
/// Version 3 marks the model change that builds only each scheme's own
/// translation structure: bodies stored under version 2 charged Baseline,
/// Shared_L2 and TSB rows with OS events for shootdowns of structures
/// those machines lack, so a daemon must recompute them, not serve them.
pub const REQUEST_DIGEST_VERSION: u32 = 3;

/// Simulated cores when none are given.
pub const DEFAULT_CORES: u64 = 8;
/// Post-warmup references per core when none are given.
pub const DEFAULT_REFS: u64 = 40_000;
/// Warmup references per core when none are given.
pub const DEFAULT_WARMUP: u64 = 15_000;
/// Base RNG seed when none is given.
pub const DEFAULT_SEED: u64 = 0x90af;
/// POM-TLB capacity in MB when none is given.
pub const DEFAULT_CAPACITY_MB: u64 = 16;
/// Fault-plan seed for `fault-sweep` when none is given.
pub const DEFAULT_FAULT_SEED: u64 = 0x5eed;

/// Most simulated cores a request may ask for.
const MAX_CORES: u64 = 64;

/// Largest POM-TLB a request may ask for, in MB (the paper sweeps 8–32).
const MAX_CAPACITY_MB: u64 = 1024;

/// Why [`ServeRequest::resolve_given`] refused a request's machine
/// geometry or reference budget — checked before anything is allocated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EnvelopeError {
    /// `cores` outside `1..=MAX_CORES`.
    Cores(u64),
    /// `capacity_mb` not a power of two in `1..=MAX_CAPACITY_MB`.
    CapacityMb(u64),
    /// `(warmup + refs) * cores` overflows `u64`.
    Budget {
        /// Warmup references per core.
        warmup: u64,
        /// Measured references per core.
        refs: u64,
        /// Simulated cores.
        cores: u64,
    },
}

impl std::fmt::Display for EnvelopeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EnvelopeError::Cores(n) => write!(f, "`cores` must be 1..={MAX_CORES}, got {n}"),
            EnvelopeError::CapacityMb(mb) => write!(
                f,
                "`capacity_mb` must be a power of two in 1..={MAX_CAPACITY_MB}, got {mb}"
            ),
            EnvelopeError::Budget { warmup, refs, cores } => write!(
                f,
                "reference budget (warmup {warmup} + refs {refs}) x cores {cores} overflows"
            ),
        }
    }
}

/// Checks a request's resolved geometry and budget: the core count and
/// POM-TLB capacity `System::new` would allocate for, and the total
/// reference count the trace key and the runner multiply out.
fn check_envelope(
    cores: u64,
    capacity_mb: u64,
    warmup: u64,
    refs: u64,
) -> Result<(), EnvelopeError> {
    if !(1..=MAX_CORES).contains(&cores) {
        return Err(EnvelopeError::Cores(cores));
    }
    if !(capacity_mb.is_power_of_two() && capacity_mb <= MAX_CAPACITY_MB) {
        return Err(EnvelopeError::CapacityMb(capacity_mb));
    }
    match warmup.checked_add(refs).and_then(|per_core| per_core.checked_mul(cores)) {
        Some(_) => Ok(()),
        None => Err(EnvelopeError::Budget { warmup, refs, cores }),
    }
}

/// One wire-format request line. Missing fields deserialize to their
/// zero value, which [`ServeRequest::resolve`] maps to the `DEFAULT_*`
/// constants; the CLI fills the same struct from its flags as given.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct ServeRequest {
    /// Caller-chosen correlation id, echoed on the response line.
    #[serde(default)]
    pub id: String,
    /// `sim` | `compare` | `consolidation` | `fault-sweep` | `ping` |
    /// `stats` | `shutdown`.
    pub kind: String,
    /// Workload name (see `pomtlb list`); required for run kinds.
    #[serde(default)]
    pub workload: String,
    /// Scheme for `sim` (`baseline` | `pom-tlb` | `pom-uncached` |
    /// `shared-l2` | `tsb`); ignored by the batch kinds.
    #[serde(default)]
    pub scheme: String,
    /// Simulated cores (0 = [`DEFAULT_CORES`] on the wire).
    #[serde(default)]
    pub cores: u64,
    /// Post-warmup references per core (0 = [`DEFAULT_REFS`] on the wire).
    #[serde(default)]
    pub refs: u64,
    /// Warmup references per core (0 = [`DEFAULT_WARMUP`] on the wire).
    #[serde(default)]
    pub warmup: u64,
    /// Base RNG seed (0 = [`DEFAULT_SEED`] on the wire).
    #[serde(default)]
    pub seed: u64,
    /// POM-TLB capacity in MB (0 = [`DEFAULT_CAPACITY_MB`] on the wire).
    #[serde(default)]
    pub capacity_mb: u64,
    /// Bare-metal 1-D walks instead of virtualized 2-D.
    #[serde(default)]
    pub native: bool,
    /// Cold-start the in-DRAM structures.
    #[serde(default)]
    pub no_prepopulate: bool,
    /// Force the stale-translation watchdog on.
    #[serde(default)]
    pub check_consistency: bool,
    /// Page-unmap events per 10k refs per core.
    #[serde(default)]
    pub unmaps_per_10k: f64,
    /// Page-remap events per 10k refs per core.
    #[serde(default)]
    pub remaps_per_10k: f64,
    /// THP-promotion events per 10k refs per core.
    #[serde(default)]
    pub promotes_per_10k: f64,
    /// Process-migration events per 10k refs per core.
    #[serde(default)]
    pub migrations_per_10k: f64,
    /// VM-teardown events per 10k refs per core.
    #[serde(default)]
    pub vm_destroys_per_10k: f64,
    /// Fault-plan seed for `fault-sweep` (0 = [`DEFAULT_FAULT_SEED`] on the
    /// wire).
    #[serde(default)]
    pub fault_seed: u64,
    /// Consolidation tenant count (0 = default 1000, max 65536;
    /// `consolidation` requests only).
    #[serde(default)]
    pub vms: u32,
    /// VM teardowns per 10k refs per core (0 = default 0.5; out-of-domain
    /// values are errors, never clamped).
    #[serde(default)]
    pub churn_destroys_per_10k: f64,
    /// Fork COW storms per 10k refs per core (0 = default 1.0; same
    /// validation).
    #[serde(default)]
    pub churn_forks_per_10k: f64,
    /// Consolidation control arm: static tenant population, no churn.
    #[serde(default)]
    pub no_churn: bool,
    /// Opt this request out of memoization (always compute, never store).
    #[serde(default)]
    pub no_memoize: bool,
}

/// What batch a request asks for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RequestKind {
    /// One scheme, one report.
    Sim,
    /// The four-scheme comparison batch.
    Compare,
    /// The four schemes over a churning multi-tenant consolidation
    /// population with per-tenant QoS accounting.
    Consolidation,
    /// Every scheme × consistency {on, off}, fault-armed.
    FaultSweep,
    /// Liveness probe: server version + uptime, no digest, no compute.
    Ping,
    /// Service/store counters; no simulation.
    Stats,
    /// Stop the daemon after responding.
    Shutdown,
}

impl RequestKind {
    fn parse(s: &str) -> Result<RequestKind, String> {
        match s {
            "sim" => Ok(RequestKind::Sim),
            "compare" => Ok(RequestKind::Compare),
            "consolidation" => Ok(RequestKind::Consolidation),
            "fault-sweep" => Ok(RequestKind::FaultSweep),
            "ping" => Ok(RequestKind::Ping),
            "stats" => Ok(RequestKind::Stats),
            "shutdown" => Ok(RequestKind::Shutdown),
            other => Err(format!(
                "unknown kind `{other}` (sim | compare | consolidation | fault-sweep | ping | \
                 stats | shutdown)"
            )),
        }
    }

    /// Wire name, also the digest tag and manifest label.
    pub fn name(&self) -> &'static str {
        match self {
            RequestKind::Sim => "sim",
            RequestKind::Compare => "compare",
            RequestKind::Consolidation => "consolidation",
            RequestKind::FaultSweep => "fault-sweep",
            RequestKind::Ping => "ping",
            RequestKind::Stats => "stats",
            RequestKind::Shutdown => "shutdown",
        }
    }
}

/// Parses a scheme name, as spelled by the CLI's `--scheme` flag and a
/// `sim` request's `scheme` knob. The empty string is not a scheme: a
/// request that leaves `scheme` unset gets the default before parsing.
pub fn parse_scheme(s: &str) -> Result<Scheme, String> {
    match s {
        "baseline" => Ok(Scheme::Baseline),
        "pom-tlb" | "pom" => Ok(Scheme::pom_tlb()),
        "pom-uncached" => Ok(Scheme::pom_tlb_uncached()),
        "shared-l2" => Ok(Scheme::SharedL2),
        "tsb" => Ok(Scheme::Tsb),
        other => Err(format!(
            "unknown scheme `{other}` (baseline | pom-tlb | pom-uncached | shared-l2 | tsb)"
        )),
    }
}

/// The OS event mix `fault-sweep` uses when no event knobs were given:
/// remap-heavy enough that the shootdown-borne fault kinds have real OS
/// events to ride on.
fn fault_sweep_default_events() -> OsEventRates {
    OsEventRates { unmaps: 12.0, remaps: 6.0, promotes: 0.5, migrations: 1.0, vm_destroys: 0.0 }
}

/// One row's identity within a batch body: the scheme plus, for
/// fault-sweep rows, whether the consistency machinery was on.
#[derive(Debug, Clone, Copy)]
pub struct RowMeta {
    /// The row's scheme.
    pub scheme: Scheme,
    /// `Some(on)` for fault-sweep rows; `None` elsewhere.
    pub consistency: Option<bool>,
}

/// Resolved `consolidation` parameters: tenant count plus the churn
/// rates (`None` = the `no_churn` control arm).
#[derive(Debug, Clone, Copy)]
pub struct TenantParams {
    /// Tenant VM count.
    pub vms: u32,
    /// `(destroys_per_10k, fork_storms_per_10k)`, or `None` for no churn.
    pub churn: Option<(f64, f64)>,
}

/// A fully-resolved run request: defaults applied, workload looked up,
/// scheme set expanded. Everything [`request_digest`] hashes and
/// [`ResolvedRequest::jobs`] executes.
#[derive(Debug, Clone)]
pub struct ResolvedRequest {
    /// The batch shape (always a run kind here, never stats/shutdown).
    pub kind: RequestKind,
    /// The paper workload to synthesize; `None` for `consolidation`,
    /// which builds its own tenant-mix spec from [`TenantParams`].
    pub workload: Option<PaperWorkload>,
    /// Consolidation tenant parameters (`None` for the workload kinds).
    pub tenants: Option<TenantParams>,
    /// The scheme set, in batch order.
    pub schemes: Vec<Scheme>,
    /// Run lengths and RNG seed.
    pub sim: SimConfig,
    /// Simulated cores.
    pub cores: usize,
    /// POM-TLB capacity in MB.
    pub capacity_mb: u64,
    /// Bare-metal vs virtualized walks.
    pub native: bool,
    /// Steady-state pre-population.
    pub prepopulate: bool,
    /// Stale-watchdog override (`None` keeps the build default).
    pub check_consistency: Option<bool>,
    /// OS-event rates (fault-sweep substitutes its eventful default mix
    /// when none were given).
    pub events: OsEventRates,
    /// Fault-plan seed (fault-sweep only).
    pub fault_seed: u64,
    /// Whether this request may be answered from / stored into the
    /// report store. Fault-injected runs are **never** memoized: their
    /// value is exercising the machinery live, and the fault plan's
    /// interaction with retries makes "the" report a property of the run,
    /// not of the request. `no_memoize` opts any request out.
    pub memoize: bool,
}

impl ServeRequest {
    /// Resolves a wire request: each zero numeric knob stands for its
    /// `DEFAULT_*` value, then the one resolution of
    /// [`ServeRequest::resolve_given`] runs. `Err` is the operator-facing
    /// message for the error response.
    pub fn resolve(&self) -> Result<ResolvedRequest, String> {
        self.resolve_with(|given, default| if given == 0 { default } else { given })
    }

    /// Resolves the knobs exactly as given — the CLI's literal flags, where
    /// `--warmup 0` means no warmup — and validates them: the workload or
    /// tenant mix, the scheme, the event rates and the envelope.
    pub fn resolve_given(&self) -> Result<ResolvedRequest, String> {
        self.resolve_with(|given, _| given)
    }

    /// The one resolution; `knob(given, default)` picks each numeric
    /// knob's value.
    fn resolve_with(&self, knob: impl Fn(u64, u64) -> u64) -> Result<ResolvedRequest, String> {
        let kind = RequestKind::parse(&self.kind)?;
        if matches!(kind, RequestKind::Ping | RequestKind::Stats | RequestKind::Shutdown) {
            return Err(format!("kind `{}` carries no run parameters", self.kind));
        }
        let (workload, tenants) = if kind == RequestKind::Consolidation {
            if !self.workload.is_empty() {
                return Err(
                    "`consolidation` builds its own tenant-mix workload; leave `workload` unset"
                        .to_string(),
                );
            }
            // Zero means default and out-of-domain values are errors, on
            // the wire and on the CLI alike.
            let (vms, destroys, forks) =
                resolve_mix(self.vms, self.churn_destroys_per_10k, self.churn_forks_per_10k)?;
            let churn = if self.no_churn { None } else { Some((destroys, forks)) };
            (None, Some(TenantParams { vms, churn }))
        } else {
            if self.workload.is_empty() {
                return Err("`workload` is required for run requests".to_string());
            }
            let Some(workload) = by_name(&self.workload) else {
                return Err(format!(
                    "unknown workload `{}`; known: {}",
                    self.workload,
                    names().join(" ")
                ));
            };
            (Some(workload), None)
        };
        let schemes = match kind {
            RequestKind::Sim if self.scheme.is_empty() => vec![Scheme::pom_tlb()],
            RequestKind::Sim => vec![parse_scheme(&self.scheme)?],
            _ => vec![Scheme::Baseline, Scheme::pom_tlb(), Scheme::SharedL2, Scheme::Tsb],
        };
        let mut events = OsEventRates {
            unmaps: self.unmaps_per_10k,
            remaps: self.remaps_per_10k,
            promotes: self.promotes_per_10k,
            migrations: self.migrations_per_10k,
            vm_destroys: self.vm_destroys_per_10k,
        };
        events.validate()?;
        if kind == RequestKind::Consolidation && events != OsEventRates::default() {
            return Err(
                "`consolidation` drives OS events through its churn mix; the *-per-10k knobs \
                 do not apply"
                    .to_string(),
            );
        }
        if kind == RequestKind::FaultSweep && events == OsEventRates::default() {
            events = fault_sweep_default_events();
        }
        let cores = knob(self.cores, DEFAULT_CORES);
        let capacity_mb = knob(self.capacity_mb, DEFAULT_CAPACITY_MB);
        let (refs, warmup) = (knob(self.refs, DEFAULT_REFS), knob(self.warmup, DEFAULT_WARMUP));
        check_envelope(cores, capacity_mb, warmup, refs).map_err(|e| e.to_string())?;
        Ok(ResolvedRequest {
            kind,
            workload,
            tenants,
            schemes,
            sim: SimConfig {
                refs_per_core: refs,
                warmup_per_core: warmup,
                seed: knob(self.seed, DEFAULT_SEED),
            },
            cores: cores as usize,
            capacity_mb,
            native: self.native,
            prepopulate: !self.no_prepopulate,
            check_consistency: if self.check_consistency { Some(true) } else { None },
            events,
            fault_seed: knob(self.fault_seed, DEFAULT_FAULT_SEED),
            memoize: kind != RequestKind::FaultSweep && !self.no_memoize,
        })
    }
}

impl ResolvedRequest {
    fn sys_config(&self) -> SystemConfig {
        SystemConfig {
            n_cores: self.cores,
            walk_mode: if self.native { WalkMode::Native } else { WalkMode::Virtualized },
            pom: PomTlbConfig { capacity_bytes: self.capacity_mb << 20, ..Default::default() },
            ..Default::default()
        }
    }

    /// The workload spec with this request's event rates applied — the
    /// spec every job (and the trace key) is built from. `consolidation`
    /// requests synthesize their tenant-mix spec instead of using a
    /// paper workload.
    pub fn spec(&self) -> pomtlb_trace::WorkloadSpec {
        if let Some(t) = self.tenants {
            return consolidation_spec(t.vms, t.churn);
        }
        let w = self.workload.as_ref().expect("run kinds carry a workload");
        let mut spec = w.spec.clone();
        spec.os_events = self.events;
        spec
    }

    /// The label the response body and the report-store manifest record.
    pub fn workload_name(&self) -> String {
        match &self.workload {
            Some(w) => w.name.to_string(),
            None => self.spec().name,
        }
    }

    /// Whether all cores share one guest-physical image. Consolidation
    /// always shares (the tenant population, not the core count, sets
    /// the table footprint); paper workloads follow their suite.
    fn shares_memory(&self) -> bool {
        self.tenants.is_some() || self.workload.as_ref().is_some_and(|w| w.suite.shares_memory())
    }

    /// The key of the one input stream every job in this batch replays
    /// (the scheme never changes the stream, and fault plans perturb
    /// served translations, never the input).
    pub fn trace_key(&self) -> TraceKey {
        TraceKey {
            spec: self.spec(),
            seed: self.sim.seed,
            n_cores: self.cores,
            shared_memory: self.shares_memory(),
            total_refs: (self.sim.warmup_per_core + self.sim.refs_per_core) * self.cores as u64,
        }
    }

    /// The batch, in canonical row order, with per-row identity metadata.
    pub fn jobs(&self) -> (Vec<SimJob>, Vec<RowMeta>) {
        let spec = self.spec();
        let sys = self.sys_config();
        let shared = self.shares_memory();
        let name = self.workload_name();
        let mut jobs = Vec::new();
        let mut rows = Vec::new();
        let mut push = |scheme: Scheme, consistency: Option<bool>, faults: Option<FaultConfig>| {
            let tag = match consistency {
                Some(true) => "/detect-on",
                Some(false) => "/detect-off",
                None => "",
            };
            let mut job = SimJob::new(
                format!("{}/{}{tag}", name, scheme.label()),
                &spec,
                scheme,
                self.sim,
            )
            .with_system_config(sys.clone())
            .shared_memory(shared);
            job.prepopulate = self.prepopulate;
            job.check_consistency = consistency.or(self.check_consistency);
            if let Some(f) = faults {
                job = job.with_faults(f);
            }
            jobs.push(job);
            rows.push(RowMeta { scheme, consistency });
        };
        match self.kind {
            RequestKind::FaultSweep => {
                let faults = FaultConfig { seed: self.fault_seed, ..FaultConfig::default() };
                for consistency in [true, false] {
                    for &scheme in &self.schemes {
                        push(scheme, Some(consistency), Some(faults));
                    }
                }
            }
            _ => {
                for &scheme in &self.schemes {
                    push(scheme, None, None);
                }
            }
        }
        (jobs, rows)
    }
}

fn put_u8(out: &mut Vec<u8>, v: u8) {
    out.push(v);
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_scheme(out: &mut Vec<u8>, s: &Scheme) {
    match s {
        Scheme::Baseline => put_u8(out, 0),
        Scheme::SharedL2 => put_u8(out, 1),
        Scheme::Tsb => put_u8(out, 2),
        Scheme::PomTlb { cache_entries, bypass_predictor } => {
            put_u8(out, 3);
            put_u8(out, u8::from(*cache_entries) | (u8::from(*bypass_predictor) << 1));
        }
    }
}

/// The canonical byte encoding of a resolved request, version
/// [`REQUEST_DIGEST_VERSION`]. The [`TraceKey`] digest covers the input
/// stream in full; the remaining fields are the configuration dimensions
/// two requests with the same stream can still differ in.
pub fn request_bytes(r: &ResolvedRequest) -> Vec<u8> {
    let mut out = Vec::with_capacity(96);
    put_u32(&mut out, REQUEST_DIGEST_VERSION);
    put_u8(
        &mut out,
        match r.kind {
            RequestKind::Sim => 0,
            RequestKind::Compare => 1,
            RequestKind::FaultSweep => 2,
            RequestKind::Consolidation => 3,
            RequestKind::Ping | RequestKind::Stats | RequestKind::Shutdown => 255,
        },
    );
    out.extend_from_slice(&r.trace_key().digest());
    put_u8(&mut out, r.schemes.len() as u8);
    for s in &r.schemes {
        put_scheme(&mut out, s);
    }
    // The trace key only sees warmup + refs as one budget; the split
    // changes what is measured, so both halves go in explicitly.
    put_u64(&mut out, r.sim.refs_per_core);
    put_u64(&mut out, r.sim.warmup_per_core);
    put_u64(&mut out, r.capacity_mb);
    put_u8(&mut out, u8::from(r.native));
    put_u8(&mut out, u8::from(r.prepopulate));
    put_u8(
        &mut out,
        match r.check_consistency {
            None => 0,
            Some(false) => 1,
            Some(true) => 2,
        },
    );
    put_u8(&mut out, u8::from(r.kind == RequestKind::FaultSweep));
    put_u64(&mut out, if r.kind == RequestKind::FaultSweep { r.fault_seed } else { 0 });
    out
}

/// [`digest256`] of [`request_bytes`] — the report store's content
/// address for this request's memoized body.
pub fn request_digest(r: &ResolvedRequest) -> [u8; 32] {
    digest256(&request_bytes(r))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn req(kind: &str) -> ServeRequest {
        ServeRequest {
            id: "t".into(),
            kind: kind.into(),
            workload: "gups".into(),
            scheme: String::new(),
            cores: 2,
            refs: 4000,
            warmup: 1000,
            seed: 7,
            capacity_mb: 0,
            native: false,
            no_prepopulate: false,
            check_consistency: false,
            unmaps_per_10k: 0.0,
            remaps_per_10k: 0.0,
            promotes_per_10k: 0.0,
            migrations_per_10k: 0.0,
            vm_destroys_per_10k: 0.0,
            fault_seed: 0,
            vms: 0,
            churn_destroys_per_10k: 0.0,
            churn_forks_per_10k: 0.0,
            no_churn: false,
            no_memoize: false,
        }
    }

    /// A consolidation request fixture: no workload, tenant knobs set.
    fn creq() -> ServeRequest {
        ServeRequest { workload: String::new(), vms: 50, ..req("consolidation") }
    }

    #[test]
    fn resolve_applies_cli_defaults() {
        let r = ServeRequest { cores: 0, refs: 0, warmup: 0, seed: 0, ..req("compare") }
            .resolve()
            .expect("resolve");
        assert_eq!(r.cores, 8);
        assert_eq!(r.sim.refs_per_core, 40_000);
        assert_eq!(r.sim.warmup_per_core, 15_000);
        assert_eq!(r.sim.seed, 0x90af);
        assert_eq!(r.capacity_mb, 16);
        assert_eq!(r.schemes.len(), 4);
        assert!(r.prepopulate && r.memoize);
    }

    #[test]
    fn resolve_rejects_bad_input() {
        assert!(ServeRequest { workload: String::new(), ..req("sim") }.resolve().is_err());
        assert!(ServeRequest { workload: "nope".into(), ..req("sim") }.resolve().is_err());
        assert!(ServeRequest { scheme: "nope".into(), ..req("sim") }.resolve().is_err());
        assert!(req("bogus").resolve().is_err());
        assert!(req("stats").resolve().is_err(), "stats carries no run parameters");
        assert!(req("ping").resolve().is_err(), "ping carries no run parameters");
        let msg = req("bogus").resolve().expect_err("bogus kind");
        assert!(msg.contains("ping"), "parse error lists ping: {msg}");
        assert!(
            ServeRequest { unmaps_per_10k: -1.0, ..req("sim") }.resolve().is_err(),
            "negative event rates are rejected"
        );
    }

    #[test]
    fn resolve_rejects_cores_outside_the_envelope() {
        assert_eq!(check_envelope(MAX_CORES + 1, 16, 1, 1), Err(EnvelopeError::Cores(MAX_CORES + 1)));
        assert_eq!(check_envelope(0, 16, 1, 1), Err(EnvelopeError::Cores(0)));
        assert!(check_envelope(MAX_CORES, 16, 1, 1).is_ok());
        let msg = ServeRequest { cores: 1 << 40, ..req("sim") }.resolve().expect_err("absurd cores");
        assert!(msg.contains("`cores`"), "{msg}");
    }

    #[test]
    fn resolve_rejects_capacity_outside_the_envelope() {
        for mb in [5, 3, MAX_CAPACITY_MB * 2, u64::MAX] {
            assert_eq!(check_envelope(8, mb, 1, 1), Err(EnvelopeError::CapacityMb(mb)), "{mb}");
        }
        for mb in [1, 8, 32, MAX_CAPACITY_MB] {
            assert!(check_envelope(8, mb, 1, 1).is_ok(), "{mb}");
        }
        let msg = ServeRequest { capacity_mb: 5, ..req("sim") }.resolve().expect_err("5 MB");
        assert!(msg.contains("`capacity_mb`"), "{msg}");
    }

    #[test]
    fn resolve_rejects_a_budget_that_overflows() {
        let budget = |warmup, refs, cores| EnvelopeError::Budget { warmup, refs, cores };
        assert_eq!(check_envelope(1, 16, u64::MAX, 1), Err(budget(u64::MAX, 1, 1)));
        assert_eq!(check_envelope(64, 16, 1 << 60, 1 << 60), Err(budget(1 << 60, 1 << 60, 64)));
        assert_eq!(check_envelope(64, 16, u64::MAX / 128, u64::MAX / 128), Ok(()));
        let msg = ServeRequest { refs: u64::MAX, warmup: 2, ..req("compare") }
            .resolve()
            .expect_err("overflowing budget");
        assert!(msg.contains("overflows"), "{msg}");
    }

    #[test]
    fn fault_sweep_is_never_memoized_and_eventful() {
        let r = req("fault-sweep").resolve().expect("resolve");
        assert!(!r.memoize);
        assert!(r.events.remaps > 0.0, "eventful default mix applied");
        assert_eq!(r.fault_seed, 0x5eed);
        let (jobs, rows) = r.jobs();
        assert_eq!(jobs.len(), 8, "four schemes x consistency on/off");
        assert!(jobs.iter().all(|j| j.faults.is_some()));
        assert_eq!(rows.iter().filter(|m| m.consistency == Some(true)).count(), 4);
    }

    #[test]
    fn consolidation_resolves_tenant_params() {
        let r = creq().resolve().expect("resolve");
        assert_eq!(r.kind, RequestKind::Consolidation);
        assert!(r.workload.is_none());
        let t = r.tenants.expect("tenant params");
        assert_eq!(t.vms, 50);
        assert_eq!(t.churn, Some((0.5, 1.0)), "zero churn knobs resolve to the defaults");
        assert!(r.memoize, "consolidation runs are deterministic and memoizable");
        assert_eq!(r.workload_name(), "consolidation-50vm");
        assert_eq!(r.schemes.len(), 4);
        let (jobs, rows) = r.jobs();
        assert_eq!(jobs.len(), 4);
        assert!(rows.iter().all(|m| m.consistency.is_none()));

        let quiet = ServeRequest { no_churn: true, ..creq() }.resolve().expect("resolve");
        assert_eq!(quiet.tenants.expect("tenant params").churn, None);

        let defaulted = ServeRequest { vms: 0, ..creq() }.resolve().expect("resolve");
        assert_eq!(defaulted.tenants.expect("tenant params").vms, 1_000);
    }

    #[test]
    fn consolidation_rejects_conflicting_knobs() {
        assert!(
            ServeRequest { workload: "gups".into(), ..creq() }.resolve().is_err(),
            "consolidation takes no workload"
        );
        assert!(
            ServeRequest { vms: 70_000, ..creq() }.resolve().is_err(),
            "over the VM_ID space is an error, not a clamp"
        );
        assert!(
            ServeRequest { churn_destroys_per_10k: -1.0, ..creq() }.resolve().is_err(),
            "negative churn rates are errors"
        );
        assert!(
            ServeRequest { unmaps_per_10k: 5.0, ..creq() }.resolve().is_err(),
            "the generic event knobs do not apply to consolidation"
        );
    }

    #[test]
    fn no_memoize_opts_out() {
        let r = ServeRequest { no_memoize: true, ..req("compare") }.resolve().expect("resolve");
        assert!(!r.memoize);
    }

    #[test]
    fn digest_is_stable_across_computations() {
        let r = req("compare").resolve().expect("resolve");
        let (a, b) = (request_digest(&r), request_digest(&r));
        assert_eq!(a, b);
        assert_eq!(pomtlb_trace::digest::digest_hex(&a).len(), 64);
        // And stable across independent resolutions of the same wire line.
        let r2 = req("compare").resolve().expect("resolve");
        assert_eq!(request_digest(&r2), a);
    }

    #[test]
    fn digest_distinguishes_every_request_field() {
        let base = req("compare");
        let d0 = request_digest(&base.resolve().expect("resolve"));
        let variants: Vec<ServeRequest> = vec![
            ServeRequest { workload: "mcf".into(), ..base.clone() },
            ServeRequest { cores: 4, ..base.clone() },
            ServeRequest { refs: 4001, ..base.clone() },
            ServeRequest { warmup: 1001, ..base.clone() },
            // Same total budget, different warmup/measure split.
            ServeRequest { refs: 4500, warmup: 500, ..base.clone() },
            ServeRequest { seed: 8, ..base.clone() },
            ServeRequest { capacity_mb: 8, ..base.clone() },
            ServeRequest { native: true, ..base.clone() },
            ServeRequest { no_prepopulate: true, ..base.clone() },
            ServeRequest { check_consistency: true, ..base.clone() },
            ServeRequest { unmaps_per_10k: 5.0, ..base.clone() },
            ServeRequest { kind: "sim".into(), ..base.clone() },
            ServeRequest { kind: "sim".into(), scheme: "baseline".into(), ..base.clone() },
            ServeRequest { kind: "sim".into(), scheme: "pom-uncached".into(), ..base.clone() },
            ServeRequest { kind: "fault-sweep".into(), ..base.clone() },
            ServeRequest { kind: "fault-sweep".into(), fault_seed: 9, ..base.clone() },
            creq(),
            ServeRequest { vms: 51, ..creq() },
            ServeRequest { churn_destroys_per_10k: 2.0, ..creq() },
            ServeRequest { churn_forks_per_10k: 0.5, ..creq() },
            ServeRequest { no_churn: true, ..creq() },
        ];
        let mut digests = vec![d0];
        for v in &variants {
            let d = request_digest(&v.resolve().expect("variant resolves"));
            assert!(!digests.contains(&d), "collision for variant {v:?}");
            digests.push(d);
        }
    }

    #[test]
    fn request_id_is_not_part_of_the_digest() {
        let a = ServeRequest { id: "a".into(), ..req("compare") }.resolve().expect("resolve");
        let b = ServeRequest { id: "b".into(), ..req("compare") }.resolve().expect("resolve");
        assert_eq!(request_digest(&a), request_digest(&b));
        // no_memoize changes caching policy, not identity.
        let c = ServeRequest { no_memoize: true, ..req("compare") }.resolve().expect("resolve");
        assert_eq!(request_digest(&c), request_digest(&a));
    }

    #[test]
    fn wire_line_round_trips() {
        let line = r#"{"id":"c1","kind":"compare","workload":"gups","cores":2,"refs":5000}"#;
        let r: ServeRequest = serde_json::from_str(line).expect("parse");
        assert_eq!(r.id, "c1");
        assert_eq!(r.cores, 2);
        assert_eq!(r.warmup, 0, "missing fields default to zero");
        let resolved = r.resolve().expect("resolve");
        assert_eq!(resolved.sim.warmup_per_core, 15_000, "zero means default");
    }
}
