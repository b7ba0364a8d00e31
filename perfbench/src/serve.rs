//! The serve workload: one client in a closed loop on a Unix socket
//! against an in-process daemon (`Service` + `serve_unix`, one compute
//! worker, one admission slot).
//!
//! A session starts a daemon on empty stores and fills them cold: every
//! request of a small seeded catalog is computed once. That is set-up.
//! The steady phase then draws Zipf-skewed repeats from the catalog, with
//! every [`FRESH_EVERY`]th request a fresh one on an unseen seed, so the
//! hot cache, the report store's memoized reads, the compute path and both
//! stores' writes all run side by side. The hot cache holds about a third
//! of the catalog's bodies.

use std::collections::HashMap;
use std::io::{self, BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use pom_tlb::{run_jobs_with, share_traces, RunPolicy};
use pomtlb_serve::{
    request_digest, serve_unix, HotCache, ReportStore, ResolvedRequest, ServeConfig, ServeRequest,
    Service,
};
use pomtlb_trace::digest::digest_hex;
use pomtlb_trace::{SharedTrace, TraceStore};
use serde_json::Value;

use crate::alloc::AllocCount;
use crate::measure::{median, percentile, Metrics, Tally};
use crate::sim::{fingerprint, input_seed};
use crate::span::{SpanId, SpanLog};
use crate::Outcome;

/// Daemon sessions per run; `setup_s` is their median.
const SESSIONS: usize = 3;
/// One steady request in this many is fresh (3.1%), which puts the 99th
/// percentile inside the fresh requests rather than on a tier boundary.
const FRESH_EVERY: usize = 32;
/// Requests per `ops_per_s` window; a multiple of [`FRESH_EVERY`], so
/// every window carries the same mix.
const WINDOW: usize = 8 * FRESH_EVERY;
/// Steady requests per session at the least: three sessions then give
/// the pooled p99 more than ten samples beyond it.
const MIN_STEADY: usize = 4 * WINDOW;
/// Zipf exponent of the repeat draw.
const ZIPF_S: f64 = 1.5;
/// Paper workloads in the catalog: one shared address space (PARSEC) and
/// two per-core ones (SPEC), all cheap to prepopulate.
const CATALOG_WORKLOADS: [&str; 3] = ["streamcluster", "gcc", "mcf"];
/// Input streams per catalog workload.
const CATALOG_SEEDS: u64 = 2;
/// Per-core reference budget of every catalog and fresh request.
const REFS: u64 = 2000;
const WARMUP: u64 = 500;
const CORES: u64 = 2;
/// Approximate body bytes per report row, for sizing the hot cache.
const BODY_BYTES_PER_ROW: u64 = 2_000;

/// One catalog request and what its answer must look like.
struct Entry {
    line: String,
    digest_hex: String,
    /// Report rows in its body (1 for `sim`, 4 for `compare`).
    rows: u64,
    /// References the daemon simulates to compute it.
    refs: u64,
}

/// The `id` of a request line this module wrote (`{"id":"c3",...`).
fn line_id(line: &str) -> &str {
    line.get(7..)
        .and_then(|rest| rest.split_once('"'))
        .map_or("", |(id, _)| id)
}

fn resolve(line: &str) -> Result<ResolvedRequest, String> {
    let request: ServeRequest = serde_json::from_str(line).map_err(|e| e.to_string())?;
    request.resolve()
}

fn entry(line: String) -> Result<Entry, String> {
    let resolved = resolve(&line)?;
    let rows = resolved.schemes.len() as u64;
    Ok(Entry {
        digest_hex: digest_hex(&request_digest(&resolved)),
        rows,
        refs: rows * CORES * (REFS + WARMUP),
        line,
    })
}

/// A hot-cache budget of about a third of the catalog's body bytes
/// (64 bytes is the cache's per-entry charge).
fn hot_max_bytes(catalog: &[Entry]) -> u64 {
    catalog
        .iter()
        .map(|e| e.rows * BODY_BYTES_PER_ROW + 64)
        .sum::<u64>()
        / 3
}

/// Input seed `k` of this run: catalog streams take `k < CATALOG_SEEDS`,
/// fresh requests the ones after.
fn stream_seed(seed: u64, k: u64) -> u64 {
    input_seed(seed).wrapping_add(k << 16)
}

/// The catalog: for every workload and input stream, a POM-TLB `sim` and
/// a four-scheme `compare` of the same stream, so the second of each pair
/// maps the recording the first one stored.
fn catalog(seed: u64) -> Result<Vec<Entry>, String> {
    let mut out = Vec::new();
    for workload in CATALOG_WORKLOADS {
        for k in 0..CATALOG_SEEDS {
            let s = stream_seed(seed, k);
            for (kind, scheme) in [("sim", r#","scheme":"pom-tlb""#), ("compare", "")] {
                out.push(entry(format!(
                    r#"{{"id":"c{}","kind":"{kind}","workload":"{workload}"{scheme},"cores":{CORES},"refs":{REFS},"warmup":{WARMUP},"seed":{s}}}"#,
                    out.len()
                ))?);
            }
        }
    }
    Ok(out)
}

/// Fresh request `n`: a `sim` on a stream no catalog entry uses.
fn fresh(seed: u64, n: u64) -> Result<Entry, String> {
    let s = stream_seed(seed, CATALOG_SEEDS + n);
    entry(format!(
        r#"{{"id":"f{n}","kind":"sim","workload":"gcc","scheme":"pom-tlb","cores":{CORES},"refs":{REFS},"warmup":{WARMUP},"seed":{s}}}"#
    ))
}

/// splitmix64: the seeded draw of which catalog entry repeats next.
struct Rng(u64);

impl Rng {
    fn next_f64(&mut self) -> f64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        (z ^ (z >> 31)) as f64 / u64::MAX as f64
    }
}

/// Zipf-skewed draws over the catalog. The seed picks which entries are
/// popular, but ranks alternate between `sim` and `compare` entries, so
/// the bytes the popular entries put on the hot cache do not depend on
/// the seed.
struct Skew {
    cdf: Vec<f64>,
    order: Vec<usize>,
}

impl Skew {
    fn new(catalog: &[Entry], rng: &mut Rng) -> Skew {
        let mut sims: Vec<usize> = (0..catalog.len())
            .filter(|&i| catalog[i].rows == 1)
            .collect();
        let mut compares: Vec<usize> = (0..catalog.len())
            .filter(|&i| catalog[i].rows > 1)
            .collect();
        for list in [&mut sims, &mut compares] {
            for i in (1..list.len()).rev() {
                let j = ((rng.next_f64() * (i + 1) as f64) as usize).min(i);
                list.swap(i, j);
            }
        }
        let order: Vec<usize> = sims
            .iter()
            .zip(&compares)
            .flat_map(|(&a, &b)| [a, b])
            .collect();
        let weights: Vec<f64> = (1..=order.len())
            .map(|r| 1.0 / (r as f64).powf(ZIPF_S))
            .collect();
        let total: f64 = weights.iter().sum();
        let mut acc = 0.0;
        let cdf = weights
            .iter()
            .map(|w| {
                acc += w / total;
                acc
            })
            .collect();
        Skew { cdf, order }
    }

    fn draw(&self, rng: &mut Rng) -> usize {
        let u = rng.next_f64();
        let rank = self
            .cdf
            .partition_point(|&c| c < u)
            .min(self.order.len() - 1);
        self.order[rank]
    }
}

/// The fields of a response line the client checks.
struct Reply<'a> {
    ok: bool,
    provenance: &'a str,
    body: Option<&'a str>,
}

fn parse_reply(line: &str) -> Reply<'_> {
    let ok = line.contains(r#","ok":true,"#);
    let provenance = line
        .split_once(r#""provenance":""#)
        .and_then(|(_, rest)| rest.split_once('"'))
        .map_or("", |(p, _)| p);
    let body = line
        .find(r#","body":"#)
        .and_then(|at| line.get(at + 8..line.len().saturating_sub(1)));
    Reply {
        ok,
        provenance,
        body,
    }
}

/// The closed-loop client: one request line out, one response line back.
struct Client {
    reader: BufReader<UnixStream>,
    writer: UnixStream,
    out: Vec<u8>,
    reply: String,
}

impl Client {
    fn connect(path: &Path) -> io::Result<Client> {
        let deadline = Instant::now() + Duration::from_secs(10);
        let stream = loop {
            match UnixStream::connect(path) {
                Ok(s) => break s,
                Err(e) if Instant::now() >= deadline => return Err(e),
                Err(_) => std::thread::sleep(Duration::from_millis(1)),
            }
        };
        stream.set_read_timeout(Some(Duration::from_secs(60)))?;
        Ok(Client {
            reader: BufReader::new(stream.try_clone()?),
            writer: stream,
            out: Vec::new(),
            reply: String::new(),
        })
    }

    /// Sends `line` and returns the reply with its round-trip time.
    fn call(&mut self, line: &str) -> io::Result<(&str, Duration)> {
        self.out.clear();
        self.out.extend_from_slice(line.as_bytes());
        self.out.push(b'\n');
        self.reply.clear();
        let start = Instant::now();
        self.writer.write_all(&self.out)?;
        if self.reader.read_line(&mut self.reply)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "daemon closed the connection",
            ));
        }
        Ok((self.reply.trim_end(), start.elapsed()))
    }

    fn stats(&mut self) -> io::Result<Value> {
        let (reply, _) = self.call(r#"{"id":"stats","kind":"stats"}"#)?;
        let body = parse_reply(reply).body.unwrap_or("{}");
        serde_json::from_str(body)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))
    }
}

fn field(v: &Value, path: &[&str]) -> u64 {
    path.iter()
        .try_fold(v, |v, key| v.get(key))
        .and_then(Value::as_u64)
        .unwrap_or(0)
}

/// Requests the daemon counted, by tier.
fn tier_total(stats: &Value) -> u64 {
    [
        "computed",
        "memoized",
        "hot",
        "coalesced",
        "busy",
        "errors",
        "deadlines",
    ]
    .iter()
    .map(|k| field(stats, &["requests", k]))
    .sum()
}

/// One steady-phase request as the client saw it.
struct Sample {
    line: String,
    fresh: bool,
    rtt: Duration,
    trace: u32,
    span: SpanId,
}

/// Everything one daemon session measured.
struct Session {
    setup: Duration,
    /// `VmHWM` right after the cold fill (see [`run`]).
    peak_rss_mb: f64,
    alloc_setup: AllocCount,
    alloc_steady: AllocCount,
    samples: Vec<Sample>,
    windows: Vec<f64>,
    computed_refs: u64,
    computed_time: Duration,
    attempted: u64,
    failed: u64,
    notes: Vec<String>,
    stats_fill: Value,
    stats_end: Value,
    /// Cold-fill bodies by catalog index, then fresh bodies by line.
    bodies: Vec<String>,
    fresh_bodies: HashMap<String, String>,
}

/// Starts a daemon on `dir`'s stores; returns its thread and socket.
fn start_daemon(
    dir: &Path,
    hot_max_bytes: u64,
) -> io::Result<(JoinHandle<io::Result<()>>, PathBuf)> {
    let service = Service::new(ServeConfig {
        trace_dir: Some(dir.join("traces")),
        report_dir: Some(dir.join("reports")),
        jobs: 1,
        max_inflight: 1,
        hot_max_bytes,
        ..ServeConfig::default()
    })?;
    let sock = dir.join("daemon.sock");
    let path = sock.clone();
    Ok((
        std::thread::spawn(move || serve_unix(&service, &path)),
        sock,
    ))
}

/// Runs one session in `dir`: daemon start and cold fill, then steady
/// requests until `budget` is spent, then stats and shutdown.
fn session(
    dir: &Path,
    seed: u64,
    catalog: &[Entry],
    budget: Duration,
    mut spans: Option<&mut SpanLog>,
) -> Result<Session, String> {
    let io_err = |what: &str| {
        let what = what.to_string();
        move |e: io::Error| format!("{what}: {e}")
    };
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).map_err(io_err("create store dir"))?;

    let alloc_start = AllocCount::now();
    let start = Instant::now();
    let (daemon, sock) =
        start_daemon(dir, hot_max_bytes(catalog)).map_err(io_err("start daemon"))?;
    let mut client = Client::connect(&sock).map_err(io_err("connect"))?;
    let mut s = Session {
        setup: Duration::ZERO,
        peak_rss_mb: f64::NAN,
        alloc_setup: AllocCount::default(),
        alloc_steady: AllocCount::default(),
        samples: Vec::new(),
        windows: Vec::new(),
        computed_refs: 0,
        computed_time: Duration::ZERO,
        attempted: 0,
        failed: 0,
        notes: Vec::new(),
        stats_fill: Value::Null,
        stats_end: Value::Null,
        bodies: Vec::new(),
        fresh_bodies: HashMap::new(),
    };
    for e in catalog {
        let (line, rtt) = client.call(&e.line).map_err(io_err("cold fill"))?;
        let reply = parse_reply(line);
        let body = reply.body.unwrap_or("");
        s.attempted += 1;
        if !reply.ok || reply.provenance != "computed" || !body.contains(&e.digest_hex) {
            s.failed += 1;
            s.notes.push(format!(
                "cold fill: unexpected reply {}",
                &line[..line.len().min(160)]
            ));
        }
        s.bodies.push(body.to_string());
        s.computed_refs += e.refs;
        s.computed_time += rtt;
    }
    s.setup = start.elapsed();
    s.peak_rss_mb = crate::host::peak_rss_mb().unwrap_or(f64::NAN);
    s.alloc_setup = AllocCount::since(alloc_start);
    s.stats_fill = client.stats().map_err(io_err("stats"))?;

    let mut rng = Rng(input_seed(seed));
    let skew = Skew::new(catalog, &mut rng);
    let alloc_start = AllocCount::now();
    let steady_start = Instant::now();
    let mut window_start = steady_start;
    let mut n_fresh = 0u64;
    while s.samples.len() < MIN_STEADY || steady_start.elapsed() < budget {
        let n = s.samples.len();
        let fresh_entry;
        let (entry, expect): (&Entry, Option<&str>) = if n % FRESH_EVERY == FRESH_EVERY - 1 {
            fresh_entry = fresh(seed, n_fresh)?;
            n_fresh += 1;
            (&fresh_entry, None)
        } else {
            let i = skew.draw(&mut rng);
            (&catalog[i], Some(s.bodies[i].as_str()))
        };
        let (line, rtt) = client.call(&entry.line).map_err(io_err("steady request"))?;
        let reply = parse_reply(line);
        let body = reply.body.unwrap_or("");
        let good = reply.ok
            && match expect {
                Some(cold) => body == cold,
                None => reply.provenance == "computed" && body.contains(&entry.digest_hex),
            };
        s.attempted += 1;
        if !good {
            s.failed += 1;
            s.notes.push(format!(
                "steady: unexpected reply {}",
                &line[..line.len().min(160)]
            ));
        }
        let (mut trace, mut span) = (0, 0);
        if expect.is_none() {
            s.computed_refs += entry.refs;
            s.computed_time += rtt;
            if spans.is_some() {
                s.fresh_bodies.insert(entry.line.clone(), body.to_string());
            }
        }
        if let Some(log) = spans.as_deref_mut() {
            let end = Instant::now();
            trace = log.trace(format!("{}#{n}", line_id(&entry.line)));
            span = log.record(trace, 0, "client.round_trip", end - rtt, end);
        }
        s.samples.push(Sample {
            line: entry.line.clone(),
            fresh: expect.is_none(),
            rtt,
            trace,
            span,
        });
        if s.samples.len() % WINDOW == 0 {
            let now = Instant::now();
            s.windows
                .push(WINDOW as f64 / (now - window_start).as_secs_f64());
            window_start = now;
        }
    }
    s.alloc_steady = AllocCount::since(alloc_start);
    s.stats_end = client.stats().map_err(io_err("stats"))?;
    let sent = (catalog.len() + s.samples.len()) as u64;
    if tier_total(&s.stats_end) != sent {
        s.failed += 1;
        s.notes.push(format!(
            "daemon counted {} requests by tier, client sent {sent}",
            tier_total(&s.stats_end)
        ));
    }
    client
        .call(r#"{"id":"bye","kind":"shutdown"}"#)
        .map_err(io_err("shutdown"))?;
    drop(client);
    daemon
        .join()
        .map_err(|_| "daemon thread panicked".to_string())?
        .map_err(io_err("daemon"))?;
    Ok(s)
}

fn work_dir() -> PathBuf {
    PathBuf::from(".bench_work").join(format!("serve-{}", std::process::id()))
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// The end-to-end run: [`SESSIONS`] sessions sharing `budget`.
pub fn run(seed: u64, budget: Duration) -> Result<Outcome, String> {
    let catalog = catalog(seed)?;
    let root = work_dir();
    let mut sessions = Vec::new();
    for i in 0..SESSIONS {
        let dir = root.join(format!("s{i}"));
        let result = session(&dir, seed, &catalog, budget / SESSIONS as u32, None);
        let _ = std::fs::remove_dir_all(&dir);
        sessions.push(result?);
    }
    let _ = std::fs::remove_dir_all(&root);

    let rtt_ms: Vec<f64> = sessions
        .iter()
        .flat_map(|s| s.samples.iter().map(|x| ms(x.rtt)))
        .collect();
    let windows: Vec<f64> = sessions
        .iter()
        .flat_map(|s| s.windows.iter().copied())
        .collect();
    let (p99, beyond) = percentile(&rtt_ms, 0.99);
    let computed_refs: u64 = sessions.iter().map(|s| s.computed_refs).sum();
    let computed_s: f64 = sessions.iter().map(|s| s.computed_time.as_secs_f64()).sum();

    let mut m = Metrics::default();
    m.put(
        "setup_s",
        median(
            &sessions
                .iter()
                .map(|s| s.setup.as_secs_f64())
                .collect::<Vec<_>>(),
        ),
        "s",
    );
    m.put("sim_refs_per_s", computed_refs as f64 / computed_s, "1/s");
    // Read after the first cold fill, a fixed sequence of computes. The
    // steady phase repeats the same kinds of compute, but how many fit in
    // the run varies, and the allocator's reuse history after that moved
    // the later peak between ~65 and ~90 MB from run to run.
    m.put("peak_rss_mb", sessions[0].peak_rss_mb, "MB");
    m.put("ops_per_s", median(&windows), "1/s");
    m.put("op_p50_ms", percentile(&rtt_ms, 0.50).0, "ms");
    m.put("op_p99_ms", p99, "ms");

    let mut notes = vec![format!(
        "{SESSIONS} sessions, {} steady requests ({beyond} beyond p99), {} windows",
        rtt_ms.len(),
        windows.len(),
    )];
    let mut failed = sessions.iter().map(|s| s.failed).sum::<u64>();
    if beyond < 10 {
        failed += 1;
        notes.push(format!("only {beyond} samples beyond p99"));
    }
    notes.extend(
        sessions
            .iter()
            .flat_map(|s| s.notes.iter().take(5).cloned()),
    );
    Ok(Outcome {
        attempted: sessions.iter().map(|s| s.attempted).sum(),
        failed,
        metrics: m,
        notes,
    })
}

/// Per-layer times from replaying one session's request lines through
/// the public calls the daemon makes for them.
#[derive(Default)]
struct Replay {
    parse: Tally,
    resolve: Tally,
    digest: Tally,
    hot_get: Tally,
    report_load: Tally,
    report_save: Tally,
    trace_load: Tally,
    trace_save: Tally,
    compute: Tally,
    mismatches: u64,
}

/// Replayed loads, saves and computes per session (the per-request
/// calls replay every line).
const REPLAY_SAMPLE: usize = 8;
const REPLAY_LOADS: usize = 400;

fn replay(
    dir: &Path,
    s: &Session,
    catalog: &[Entry],
    spans: &mut SpanLog,
) -> Result<Replay, String> {
    let mut r = Replay::default();
    let reports = ReportStore::open(dir.join("reports")).map_err(|e| e.to_string())?;
    let traces = TraceStore::open(dir.join("traces")).map_err(|e| e.to_string())?;
    let scratch_reports =
        ReportStore::open(dir.join("replay-reports")).map_err(|e| e.to_string())?;
    let scratch_traces = TraceStore::open(dir.join("replay-traces")).map_err(|e| e.to_string())?;
    let mut hot = HotCache::new(hot_max_bytes(catalog));
    let bodies: HashMap<&str, &str> = catalog
        .iter()
        .zip(&s.bodies)
        .map(|(e, b)| (e.line.as_str(), b.as_str()))
        .chain(s.fresh_bodies.iter().map(|(l, b)| (l.as_str(), b.as_str())))
        .collect();
    let (mut loads, mut fresh_done) = (0usize, 0usize);
    let timed =
        |tally: &mut Tally, spans: &mut SpanLog, x: &Sample, name: &'static str, t: Instant| {
            let end = Instant::now();
            tally.add(end - t);
            spans.record(x.trace, x.span, name, t, end);
        };
    for x in &s.samples {
        let t = Instant::now();
        let request: ServeRequest = serde_json::from_str(&x.line).map_err(|e| e.to_string())?;
        timed(&mut r.parse, spans, x, "request.parse", t);
        let t = Instant::now();
        let resolved = request.resolve()?;
        timed(&mut r.resolve, spans, x, "request.resolve", t);
        let t = Instant::now();
        let digest = request_digest(&resolved);
        timed(&mut r.digest, spans, x, "request.digest", t);
        let t = Instant::now();
        let hit = hot.get(&digest);
        timed(&mut r.hot_get, spans, x, "hot_cache.get", t);
        if hit.is_none() {
            if let Some(body) = bodies.get(x.line.as_str()) {
                hot.insert(digest, body);
            }
        }
        if !x.fresh && loads < REPLAY_LOADS {
            loads += 1;
            let t = Instant::now();
            let loaded = reports.load(&digest);
            timed(&mut r.report_load, spans, x, "report_store.load", t);
            if loaded.as_deref() != bodies.get(x.line.as_str()).map(|b| b.as_bytes()) {
                r.mismatches += 1;
            }
        }
        if x.fresh && fresh_done < REPLAY_SAMPLE {
            fresh_done += 1;
            let body = bodies.get(x.line.as_str()).copied().unwrap_or("");
            let t = Instant::now();
            scratch_reports
                .save(
                    &digest,
                    body.as_bytes(),
                    resolved.kind.name(),
                    &resolved.workload_name(),
                )
                .map_err(|e| e.to_string())?;
            timed(&mut r.report_save, spans, x, "report_store.save", t);

            let key = resolved.trace_key();
            let trace = SharedTrace::generate(
                &key.spec,
                key.seed,
                key.n_cores,
                key.shared_memory,
                key.total_refs,
            );
            let t = Instant::now();
            scratch_traces.save(&trace).map_err(|e| e.to_string())?;
            timed(&mut r.trace_save, spans, x, "trace_store.save", t);

            let (mut jobs, _) = resolved.jobs();
            share_traces(&mut jobs);
            let t = Instant::now();
            let outcomes = run_jobs_with(jobs, 1, RunPolicy::default(), &|_, _| {});
            timed(&mut r.compute, spans, x, "runner.compute", t);
            for outcome in &outcomes {
                let same = outcome
                    .result()
                    .is_some_and(|res| body.contains(&fingerprint(&res.report)));
                r.mismatches += u64::from(!same);
            }
        }
    }
    for e in catalog {
        let key = resolve(&e.line)?.trace_key();
        let t = Instant::now();
        let loaded = traces.load(&key);
        r.trace_load.add(t.elapsed());
        r.mismatches += u64::from(loaded.is_none());
    }
    Ok(r)
}

/// The traced run: an untraced session, then a traced one whose request
/// lines are replayed through the layers' public calls.
pub fn run_traced(seed: u64, budget: Duration, spans: &mut SpanLog) -> Result<Outcome, String> {
    let catalog = catalog(seed)?;
    let root = work_dir();
    let half = budget / 2;
    let plain_dir = root.join("untraced");
    let plain = session(&plain_dir, seed, &catalog, half, None);
    let _ = std::fs::remove_dir_all(&plain_dir);
    let plain = plain?;
    let traced_dir = root.join("traced");
    let traced = session(&traced_dir, seed, &catalog, half, Some(spans));
    let replayed = match &traced {
        Ok(s) => replay(&traced_dir, s, &catalog, spans),
        Err(e) => Err(e.clone()),
    };
    let _ = std::fs::remove_dir_all(&root);
    let (traced, replayed) = (traced?, replayed?);

    let steady = traced.samples.len() as f64;
    let delta = |k: &str| {
        (field(&traced.stats_end, &["requests", k]) - field(&traced.stats_fill, &["requests", k]))
            as f64
    };
    let rtt_us: Vec<f64> = traced
        .samples
        .iter()
        .map(|x| x.rtt.as_secs_f64() * 1e6)
        .collect();
    let mean_rtt = |s: &Session| {
        s.samples.iter().map(|x| x.rtt.as_secs_f64()).sum::<f64>() / s.samples.len() as f64
    };
    let failed = plain.failed + traced.failed + replayed.mismatches;

    let mut m = Metrics::default();
    m.put(
        "transport.overhead_us",
        median(&rtt_us) - field(&traced.stats_end, &["latency", "service_wall_p50_us"]) as f64,
        "us",
    );
    m.put("request.parse_us", replayed.parse.mean_ns() / 1e3, "us");
    m.put("request.resolve_us", replayed.resolve.mean_ns() / 1e3, "us");
    m.put("request.digest_us", replayed.digest.mean_ns() / 1e3, "us");
    m.put("hot_cache.get_us", replayed.hot_get.mean_ns() / 1e3, "us");
    m.put(
        "report_store.load_us",
        replayed.report_load.mean_ns() / 1e3,
        "us",
    );
    m.put(
        "report_store.save_ms",
        replayed.report_save.mean_ns() / 1e6,
        "ms",
    );
    m.put(
        "trace_store.load_ms",
        replayed.trace_load.mean_ns() / 1e6,
        "ms",
    );
    m.put(
        "trace_store.save_ms",
        replayed.trace_save.mean_ns() / 1e6,
        "ms",
    );
    m.put("runner.compute_ms", replayed.compute.mean_ns() / 1e6, "ms");
    m.put(
        "admission.queue_wait_us",
        field(&traced.stats_end, &["latency", "queue_wait_p50_us"]) as f64,
        "us",
    );
    m.put("tier.hot_frac", delta("hot") / steady, "ratio");
    m.put("tier.memoized_frac", delta("memoized") / steady, "ratio");
    m.put("tier.computed_frac", delta("computed") / steady, "ratio");
    m.put("served.failed", failed as f64, "count");
    m.put(
        "alloc.setup_mb",
        traced.alloc_setup.bytes as f64 / (1u64 << 20) as f64,
        "MB",
    );
    m.put(
        "alloc.loop_per_kref",
        // Per 1,000 requests here; see NOTES.md.
        traced.alloc_steady.calls as f64 * 1e3 / steady,
        "count/kref",
    );
    m.put(
        "trace.overhead_frac",
        mean_rtt(&traced) / mean_rtt(&plain) - 1.0,
        "ratio",
    );

    let mut notes = vec![format!(
        "untraced session {} steady requests, traced session {}; {} spans kept; setup {:.1} ms / {:.1} ms",
        plain.samples.len(),
        traced.samples.len(),
        spans.len(),
        ms(plain.setup),
        ms(traced.setup)
    )];
    if replayed.mismatches > 0 {
        notes.push(format!(
            "{} replayed answers differ from the daemon's",
            replayed.mismatches
        ));
    }
    notes.extend(plain.notes.iter().chain(&traced.notes).take(10).cloned());
    Ok(Outcome {
        attempted: plain.attempted + traced.attempted,
        failed,
        metrics: m,
        notes,
    })
}
