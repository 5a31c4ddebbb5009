//! The service layer, measured in traced runs: an in-process
//! `icn_serve::Server` driven over loopback with the `serve_mixed`
//! traffic mix. That mix is not a gated workload of its own (its figures
//! do not hold still on a shared 2-vCPU host; see the benchmark's
//! README), so every traced run of the gated workloads spends a share of
//! its time here and reports the `serve.*` per-layer metrics.
//!
//! Why this mix: the service layer dominates the latency here, and the
//! engine and explorer never touch it. The server keeps a journal and
//! a spill directory in a temporary directory inside the benchmark's own
//! directory. Two clients drive it in a closed loop, one connection per
//! request, because its callers are scripts that submit a job and wait
//! for the answer. The mix puts reads and writes side by side, so a gain
//! for one that costs the other shows:
//!
//! * 50% `POST /v1/evaluate` of distinct designs (closed-form model,
//!   cache miss, spill write);
//! * 35% `POST /v1/simulate` that hit the cache, drawn from eight primed
//!   seeds (reads);
//! * 15% `POST /v1/simulate` with fresh seeds on 16 ports, polled until
//!   done and fetched (writes: journal fsync and spill). These runs are
//!   tiny, so engine construction dominates them.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use icn_core::design::DesignPoint;
use icn_lint::DesignSpec;
use icn_serve::{Limits, ServeConfig, ServeSummary, Server, ServerHandle, SimulateRequest};
use serde_json::Value;

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use crate::record::{guarded, Metric, Tally};
use crate::stats::Samples;
use crate::Traced;

/// Closed-loop clients.
pub const CLIENTS: usize = 2;

/// Fewest fresh jobs per phase (a guarded job p90 needs 100).
const MIN_JOBS: usize = 100;

/// Primed simulate requests the cache-hit share draws from.
const HIT_SEEDS: u64 = 8;

/// Every n-th evaluate and fresh job is kept, re-computed after the
/// timed phase (so the check steals no CPU from the server) and compared
/// byte for byte.
const VERIFY_EVERY: u64 = 4;

/// Polls after which a job counts as lost.
const MAX_POLLS: u64 = 10_000;

/// The span names `/v1/jobs/:id/trace` reports for a simulate job.
const SPANS: [&str; 5] = [
    "parse",
    "cache_lookup",
    "journal_append",
    "queue_wait",
    "execute",
];

static DIRS: AtomicU64 = AtomicU64::new(0);

/// A fresh scratch directory under the benchmark's `tmp/`.
fn scratch_dir(tag: &str) -> Result<PathBuf, String> {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tmp")
        .join(format!(
            "{tag}-{}-{}",
            std::process::id(),
            DIRS.fetch_add(1, Ordering::Relaxed)
        ));
    std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    Ok(dir)
}

/// Remove a scratch directory, and `tmp/` itself once it is empty.
fn discard(dir: &Path) {
    let _ = std::fs::remove_dir_all(dir);
    if let Some(parent) = dir.parent() {
        let _ = std::fs::remove_dir(parent);
    }
}

fn config(dir: &Path) -> ServeConfig {
    ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 1,
        http_workers: CLIENTS,
        journal: Some(dir.join("journal.log").to_string_lossy().into_owned()),
        cache_dir: Some(dir.join("spill").to_string_lossy().into_owned()),
        sim_threads: 1,
        ..ServeConfig::default()
    }
}

/// A running server on its own thread; stopped, joined and cleaned up
/// on drop.
struct Harness {
    dir: PathBuf,
    handle: ServerHandle,
    thread: Option<JoinHandle<std::io::Result<ServeSummary>>>,
}

impl Harness {
    fn start() -> Result<Self, String> {
        let dir = scratch_dir("serve")?;
        let server = Server::bind(config(&dir)).map_err(|e| format!("bind failed: {e}"))?;
        let handle = server.handle();
        let thread = Some(std::thread::spawn(move || server.run()));
        Ok(Self {
            dir,
            handle,
            thread,
        })
    }

    fn stop(mut self) -> Result<ServeSummary, String> {
        self.handle.shutdown();
        let thread = self.thread.take().expect("server thread is joined once");
        match thread.join() {
            Ok(Ok(summary)) => Ok(summary),
            Ok(Err(e)) => Err(format!("server failed: {e}")),
            Err(_) => Err("server thread panicked".to_string()),
        }
    }
}

impl Drop for Harness {
    fn drop(&mut self) {
        self.handle.shutdown();
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
        discard(&self.dir);
    }
}

/// One HTTP reply.
struct Reply {
    status: u16,
    cache_hit: bool,
    body: String,
}

/// One request on its own connection (the server closes every one).
fn exchange(addr: SocketAddr, method: &str, path: &str, body: &str) -> Result<Reply, String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    let io = |e: std::io::Error| format!("{method} {path}: {e}");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .map_err(io)?;
    stream.set_nodelay(true).map_err(io)?;
    let request = format!(
        "{method} {path} HTTP/1.1\r\nhost: bench\r\ncontent-type: application/json\r\ncontent-length: {}\r\nconnection: close\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(request.as_bytes()).map_err(io)?;
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).map_err(io)?;
    let text =
        String::from_utf8(raw).map_err(|_| format!("{method} {path}: reply is not UTF-8"))?;
    let (head, body) = text
        .split_once("\r\n\r\n")
        .ok_or_else(|| format!("{method} {path}: malformed reply"))?;
    let status = head
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("{method} {path}: no status"))?;
    let cache_hit = head
        .lines()
        .any(|l| l.to_ascii_lowercase().starts_with("x-icn-cache:") && l.ends_with("hit"));
    Ok(Reply {
        status,
        cache_hit,
        body: body.to_string(),
    })
}

/// A simulate request body for `seed`: 16 ports, load 0.02, a short
/// fixed schedule.
fn simulate_body(seed: u64) -> String {
    format!(
        r#"{{"ports":16,"load":0.02,"seed":{seed},"warmup_cycles":100,"measure_cycles":400,"drain_cycles":1500}}"#
    )
}

/// One element of a non-empty slice.
fn pick<'a, T>(rng: &mut ChaCha8Rng, items: &'a [T]) -> &'a T {
    &items[rng.random_range(0..items.len())]
}

/// A distinct design spec for `POST /v1/evaluate`.
fn design_body(rng: &mut ChaCha8Rng) -> String {
    let tech = pick(
        rng,
        &["paper1986", "scaled_cmos_early90s", "conservative1986"],
    );
    let kind = pick(rng, &["Mcc", "Dmc"]);
    let (radix, board) = *pick(rng, &[(4, 256), (8, 64), (16, 16), (16, 256)]);
    let width = pick(rng, &[1, 2, 4, 8]);
    let packet = pick(rng, &[64, 100, 128]);
    let clock = pick(rng, &["Standard", "MultiplePulse"]);
    let access = 50.0 + rng.random_range(0..1_000_000u32) as f64 / 100.0;
    format!(
        r#"{{"tech":"{tech}","kind":"{kind}","chip_radix":{radix},"width":{width},"board_ports":{board},"network_ports":2048,"packet_bits":{packet},"clock_scheme":"{clock}","memory_access_ns":{access:?}}}"#
    )
}

/// The body `POST /v1/evaluate` must answer for `body`.
fn expected_evaluation(body: &str) -> Result<String, String> {
    let spec: DesignSpec = serde_json::from_str(body).map_err(|e| e.to_string())?;
    Ok(icn_lint::render_design_json(&icn_lint::check_design(
        "<request>",
        &spec,
    )))
}

/// The body a finished simulate job must return: `icn_sim::try_run` of
/// the same resolved configuration.
fn expected_simulation(body: &str) -> Result<String, String> {
    let request: SimulateRequest = serde_json::from_str(body).map_err(|e| e.to_string())?;
    let config = request.resolve(&Limits::default())?;
    let result = icn_sim::try_run(config).map_err(|e| e.to_string())?;
    serde_json::to_string(&result).map_err(|e| e.to_string())
}

fn design_point(body: &str) -> Result<DesignPoint, String> {
    let spec: DesignSpec = serde_json::from_str(body).map_err(|e| e.to_string())?;
    Ok(DesignPoint {
        tech: match spec.tech.as_str() {
            "paper1986" => icn_tech::presets::paper1986(),
            "scaled_cmos_early90s" => icn_tech::presets::scaled_cmos_early90s(),
            "conservative1986" => icn_tech::presets::conservative1986(),
            other => return Err(format!("unknown technology `{other}`")),
        },
        kind: spec.kind,
        chip_radix: spec.chip_radix,
        width: spec.width,
        board_ports: spec.board_ports,
        network_ports: spec.network_ports,
        packet_bits: spec.packet_bits,
        clock_scheme: spec.clock_scheme,
        memory_access: icn_units::Time::from_nanos(spec.memory_access_ns),
    })
}

/// `model.design_evaluate_us`: `DesignPoint::evaluate` on the designs the
/// evaluate share sends, timed per call.
pub fn design_evaluate_us(seed: u64, calls: usize) -> Result<Samples, String> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x00DE_516E);
    let points = (0..calls)
        .map(|_| design_point(&design_body(&mut rng)))
        .collect::<Result<Vec<_>, _>>()?;
    let mut samples = Samples::new();
    for point in &points {
        let t = Instant::now();
        black_box(point.evaluate());
        samples.push(t.elapsed().as_secs_f64() * 1e6);
    }
    Ok(samples)
}

/// What one job's status poll says.
fn job_status(body: &str) -> Option<String> {
    let v: Value = serde_json::from_str(body).ok()?;
    v.get("status").and_then(Value::as_str).map(str::to_string)
}

/// Per-client measurements (merged across clients after the phase).
#[derive(Default)]
struct ClientStats {
    inline_ms: Samples,
    evaluate_ms: Samples,
    hit_ms: Samples,
    job_ms: Samples,
    submit_ms: Samples,
    poll_ms: Samples,
    result_ms: Samples,
    all_ms: Samples,
    spans_us: BTreeMap<&'static str, Samples>,
    polls: u64,
    tally: Tally,
    bad_status: u64,
    bad_hit: u64,
    /// Sampled `(request, response)` bodies of evaluates and jobs.
    sampled_evaluations: Vec<(String, String)>,
    sampled_jobs: Vec<(String, String)>,
}

impl ClientStats {
    fn merge(&mut self, other: ClientStats) {
        let pairs = [
            (&mut self.inline_ms, other.inline_ms),
            (&mut self.evaluate_ms, other.evaluate_ms),
            (&mut self.hit_ms, other.hit_ms),
            (&mut self.job_ms, other.job_ms),
            (&mut self.submit_ms, other.submit_ms),
            (&mut self.poll_ms, other.poll_ms),
            (&mut self.result_ms, other.result_ms),
            (&mut self.all_ms, other.all_ms),
        ];
        for (into, from) in pairs {
            into.extend(&from);
        }
        for (name, samples) in other.spans_us {
            self.spans_us.entry(name).or_default().extend(&samples);
        }
        self.polls += other.polls;
        self.tally.absorb(other.tally);
        self.bad_status += other.bad_status;
        self.bad_hit += other.bad_hit;
        self.sampled_evaluations.extend(other.sampled_evaluations);
        self.sampled_jobs.extend(other.sampled_jobs);
    }
}

/// Shared, read-only inputs of one phase.
struct Phase<'a> {
    addr: SocketAddr,
    seed: u64,
    traced: bool,
    deadline: Instant,
    min_jobs: usize,
    primed: &'a [(String, String)],
}

/// One client's closed loop.
struct Client<'a> {
    phase: &'a Phase<'a>,
    rng: ChaCha8Rng,
    stats: ClientStats,
    jobs: u64,
    evaluations: u64,
}

impl Client<'_> {
    /// One timed exchange; transport errors and unexpected statuses are
    /// failed operations.
    fn call(&mut self, method: &str, path: &str, body: &str, expect: u16) -> Option<(Reply, f64)> {
        let t = Instant::now();
        let reply = exchange(self.phase.addr, method, path, body);
        let ms = t.elapsed().as_secs_f64() * 1e3;
        self.stats.tally.attempted += 1;
        self.stats.all_ms.push(ms);
        match reply {
            Ok(reply) if reply.status == expect => Some((reply, ms)),
            _ => {
                self.stats.tally.failed += 1;
                self.stats.bad_status += 1;
                None
            }
        }
    }

    fn evaluate(&mut self) {
        let body = design_body(&mut self.rng);
        let Some((reply, ms)) = self.call("POST", "/v1/evaluate", &body, 200) else {
            return;
        };
        self.stats.evaluate_ms.push(ms);
        self.stats.inline_ms.push(ms);
        self.evaluations += 1;
        if self.evaluations.is_multiple_of(VERIFY_EVERY) {
            self.stats.sampled_evaluations.push((body, reply.body));
        }
    }

    fn hit(&mut self) {
        let primed = self.phase.primed;
        let (body, expected) = pick(&mut self.rng, primed);
        let Some((reply, ms)) = self.call("POST", "/v1/simulate", body, 200) else {
            return;
        };
        self.stats.hit_ms.push(ms);
        self.stats.inline_ms.push(ms);
        if !reply.cache_hit || reply.body != *expected {
            self.stats.bad_hit += 1;
        }
    }

    /// Submit a fresh simulation, poll it to completion, fetch its
    /// result; returns the result body.
    fn job(&mut self, body: &str) -> Option<String> {
        let t = Instant::now();
        let (reply, ms) = self.call("POST", "/v1/simulate", body, 202)?;
        self.stats.submit_ms.push(ms);
        let id = serde_json::from_str::<Value>(&reply.body)
            .ok()
            .and_then(|v| v.get("job").and_then(Value::as_u64))?;
        let status_path = format!("/v1/jobs/{id}");
        let mut polls = 0;
        loop {
            let (reply, ms) = self.call("GET", &status_path, "", 200)?;
            self.stats.poll_ms.push(ms);
            polls += 1;
            match job_status(&reply.body).as_deref() {
                Some("done") => break,
                Some("queued" | "running") if polls < MAX_POLLS => {}
                _ => {
                    self.stats.tally.failed += 1;
                    return None;
                }
            }
        }
        let (result, ms) = self.call("GET", &format!("{status_path}/result"), "", 200)?;
        self.stats.result_ms.push(ms);
        self.stats.job_ms.push(t.elapsed().as_secs_f64() * 1e3);
        self.stats.polls += polls;
        if self.phase.traced {
            self.trace(id);
        }
        Some(result.body)
    }

    /// Fetch the job's span tree and keep each span's self time (the
    /// lifecycle spans are leaves, so self time is their duration).
    fn trace(&mut self, id: u64) {
        let Some((reply, _)) = self.call("GET", &format!("/v1/jobs/{id}/trace"), "", 200) else {
            return;
        };
        let tree: Option<Value> = serde_json::from_str(&reply.body).ok();
        let children = tree
            .as_ref()
            .and_then(|t| t.get("spans"))
            .and_then(|s| s.get("children"))
            .and_then(Value::as_array);
        for child in children.into_iter().flatten() {
            let name = child.get("name").and_then(Value::as_str);
            let duration = child.get("duration_us").and_then(Value::as_f64);
            if let (Some(name), Some(us)) = (name, duration) {
                if let Some(&known) = SPANS.iter().find(|&&s| s == name) {
                    self.stats.spans_us.entry(known).or_default().push(us);
                }
            }
        }
    }

    fn fresh_job(&mut self) {
        self.jobs += 1;
        let seed = self.rng.random::<u64>() >> 16;
        let body = simulate_body(seed);
        let Some(result) = self.job(&body) else {
            return;
        };
        if self.jobs.is_multiple_of(VERIFY_EVERY) {
            self.stats.sampled_jobs.push((body, result));
        }
    }

    fn run(mut self) -> ClientStats {
        let min_jobs = self.phase.min_jobs.div_ceil(CLIENTS) as u64;
        while self.jobs < min_jobs || Instant::now() < self.phase.deadline {
            match self.rng.random_range(0..100u32) {
                0..50 => self.evaluate(),
                50..85 => self.hit(),
                _ => self.fresh_job(),
            }
        }
        self.stats
    }
}

/// Submit the cache-hit seeds once and keep their result bodies.
fn prime(addr: SocketAddr, seed: u64) -> Result<Vec<(String, String)>, String> {
    let phase = Phase {
        addr,
        seed,
        traced: false,
        deadline: Instant::now(),
        min_jobs: 0,
        primed: &[],
    };
    let mut client = Client {
        phase: &phase,
        rng: ChaCha8Rng::seed_from_u64(seed),
        stats: ClientStats::default(),
        jobs: 0,
        evaluations: 0,
    };
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x4817);
    (0..HIT_SEEDS)
        .map(|_| {
            let body = simulate_body(rng.random::<u64>() >> 16);
            let result = client
                .job(&body)
                .ok_or_else(|| format!("priming job failed: {body}"))?;
            Ok((body, result))
        })
        .collect()
}

/// Counters from `/v1/metrics`.
#[derive(Debug, Clone, Copy, Default)]
struct Scrape {
    hits: f64,
    misses: f64,
    journal_appends: f64,
    rejected: f64,
    latency_sum_us: f64,
    latency_count: f64,
}

fn scrape(addr: SocketAddr) -> Result<Scrape, String> {
    let reply = exchange(addr, "GET", "/v1/metrics", "")?;
    let exposition = icn_serve::parse_exposition(&reply.body)?;
    let sample = |name: &str| -> f64 {
        exposition
            .families
            .iter()
            .flat_map(|f| f.samples.iter())
            .find(|s| s.name == name && s.labels.is_empty())
            .map_or(0.0, |s| s.value)
    };
    Ok(Scrape {
        hits: sample("icn_cache_hits_total"),
        misses: sample("icn_cache_misses_total"),
        journal_appends: sample("icn_journal_appends_total"),
        rejected: sample("icn_requests_rejected_total"),
        latency_sum_us: sample("icn_request_latency_us_sum"),
        latency_count: sample("icn_request_latency_us_count"),
    })
}

/// Everything one phase measured.
struct PhaseOutcome {
    stats: ClientStats,
    wall: Duration,
    delta: Scrape,
}

fn run_phase(seed: u64, seconds: f64) -> Result<PhaseOutcome, String> {
    let harness = Harness::start()?;
    let addr = harness.handle.addr();
    let primed = prime(addr, seed)?;
    let before = scrape(addr)?;
    let started = Instant::now();
    let phase = Phase {
        addr,
        seed,
        traced: true,
        deadline: started + Duration::from_secs_f64(seconds),
        min_jobs: MIN_JOBS,
        primed: &primed,
    };
    let clients: Vec<ClientStats> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|id| {
                let client = Client {
                    phase: &phase,
                    rng: ChaCha8Rng::seed_from_u64(
                        phase.seed ^ (id as u64 + 1).wrapping_mul(0xA24B_AED4_963E_E407),
                    ),
                    stats: ClientStats::default(),
                    jobs: 0,
                    evaluations: 0,
                };
                scope.spawn(move || client.run())
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().map_err(|_| "client thread panicked".to_string()))
            .collect::<Result<_, _>>()
    })?;
    let wall = started.elapsed();
    let after = scrape(addr)?;
    let summary = harness.stop()?;
    let mut stats = ClientStats::default();
    for client in clients {
        stats.merge(client);
    }
    stats
        .tally
        .check("serve.expected_status", stats.bad_status == 0);
    stats
        .tally
        .check("serve.hit_body_identical", stats.bad_hit == 0);
    let matches = |pairs: &[(String, String)], expected: fn(&str) -> Result<String, String>| {
        pairs
            .iter()
            .all(|(request, response)| expected(request).ok().as_deref() == Some(response.as_str()))
    };
    stats.tally.check(
        "serve.evaluate_body_matches_model",
        matches(&stats.sampled_evaluations, expected_evaluation),
    );
    stats.tally.check(
        "serve.job_result_matches_try_run",
        matches(&stats.sampled_jobs, expected_simulation),
    );
    stats
        .tally
        .check("serve.no_failed_jobs", summary.jobs_failed == 0);
    let delta = Scrape {
        hits: after.hits - before.hits,
        misses: after.misses - before.misses,
        journal_appends: after.journal_appends - before.journal_appends,
        rejected: after.rejected - before.rejected,
        latency_sum_us: after.latency_sum_us - before.latency_sum_us,
        latency_count: after.latency_count - before.latency_count,
    };
    Ok(PhaseOutcome { stats, wall, delta })
}

/// The traced run: per-call client latencies, server span self-times,
/// and `/v1/metrics` counters.
pub fn traced(seed: u64, seconds: f64) -> Result<Traced, String> {
    let model = design_evaluate_us(seed, 200)?;
    let outcome = run_phase(seed, seconds)?;
    let stats = &outcome.stats;
    let delta = &outcome.delta;
    let p50 = |name: &str, unit: &'static str, samples: &Samples| {
        guarded(name, unit, samples.median(), samples.len())
    };
    let p90 = |name: &str, samples: &Samples| {
        guarded(name, "ms", samples.percentile(90.0), samples.len())
    };
    let mut metrics = vec![
        p50("model.design_evaluate_us", "us", &model)?,
        p50("serve.evaluate_ms", "ms", &stats.evaluate_ms)?,
        p50("serve.hit_ms", "ms", &stats.hit_ms)?,
        p50("serve.submit_ms", "ms", &stats.submit_ms)?,
        p50("serve.poll_ms", "ms", &stats.poll_ms)?,
        p50("serve.result_ms", "ms", &stats.result_ms)?,
        Metric::new(
            "serve.polls_per_job",
            "count",
            stats.polls as f64 / stats.job_ms.len().max(1) as f64,
            stats.job_ms.len(),
        ),
        Metric::new(
            "serve.req_per_s",
            "1/s",
            stats.all_ms.len() as f64 / outcome.wall.as_secs_f64(),
            stats.all_ms.len(),
        ),
        p50("serve.inline_p50_ms", "ms", &stats.inline_ms)?,
        p90("serve.inline_p90_ms", &stats.inline_ms)?,
        p50("serve.job_p50_ms", "ms", &stats.job_ms)?,
        p90("serve.job_p90_ms", &stats.job_ms)?,
    ];
    let empty = Samples::new();
    for name in SPANS {
        let samples = stats.spans_us.get(name).unwrap_or(&empty);
        metrics.push(p50(&format!("serve.{name}_us"), "us", samples)?);
    }
    let server_mean_ms = delta.latency_sum_us / delta.latency_count.max(1.0) / 1e3;
    metrics.extend([
        Metric::new(
            "serve.outside_server_ms",
            "ms",
            stats.all_ms.mean().unwrap_or(0.0) - server_mean_ms,
            stats.all_ms.len(),
        ),
        Metric::new(
            "serve.cache_hit_ratio",
            "ratio",
            delta.hits / (delta.hits + delta.misses).max(1.0),
            (delta.hits + delta.misses) as usize,
        ),
        Metric::new("serve.journal_appends", "count", delta.journal_appends, 1),
        Metric::new("serve.rejected", "count", delta.rejected, 1),
    ]);
    Ok(Traced {
        metrics,
        tally: outcome.stats.tally,
        overhead: Samples::new(),
        notes: Vec::new(),
    })
}
