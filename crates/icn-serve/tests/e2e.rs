//! End-to-end tests: a real server on a loopback socket, driven by a raw
//! `TcpStream` HTTP client (the same dependency-light discipline as the
//! server itself).
//!
//! The headline assertions mirror the service's contract:
//! * two identical `POST /v1/simulate` requests produce **byte-identical**
//!   result bodies, with the second served from the content-addressed
//!   cache (verified via the `x-icn-cache` header and the `/v1/stats`
//!   hit counter);
//! * when the bounded job queue is full, `POST /v1/simulate` answers
//!   `429 Too Many Requests` with a `Retry-After` hint;
//! * graceful shutdown drains in-flight jobs and `run()` returns.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use icn_serve::{Limits, ServeConfig, Server};

/// One HTTP exchange: status line code, headers (lowercased names), body.
struct Exchange {
    status: u16,
    headers: Vec<(String, String)>,
    body: String,
}

impl Exchange {
    fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }
}

/// Send one request and read the full response (connection: close).
fn call(addr: SocketAddr, method: &str, path: &str, body: &str) -> Exchange {
    call_with_headers(addr, method, path, body, &[])
}

/// [`call`], with extra request headers.
fn call_with_headers(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: &str,
    extra: &[(&str, &str)],
) -> Exchange {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let extra_headers: String = extra
        .iter()
        .map(|(name, value)| format!("{name}: {value}\r\n"))
        .collect();
    let request = format!(
        "{method} {path} HTTP/1.1\r\nhost: test\r\n{extra_headers}content-length: {}\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(request.as_bytes()).expect("send");
    let mut raw = String::new();
    stream.read_to_string(&mut raw).expect("read response");
    let (head, body) = raw.split_once("\r\n\r\n").expect("header terminator");
    let mut lines = head.split("\r\n");
    let status: u16 = lines
        .next()
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|c| c.parse().ok())
        .expect("status line");
    let headers = lines
        .filter_map(|l| l.split_once(':'))
        .map(|(n, v)| (n.trim().to_ascii_lowercase(), v.trim().to_string()))
        .collect();
    Exchange {
        status,
        headers,
        body: body.to_string(),
    }
}

/// Poll a job's result endpooint until it is done (or the deadline hits).
fn poll_result(addr: SocketAddr, result_url: &str, deadline: Duration) -> Exchange {
    let started = Instant::now();
    loop {
        let got = call(addr, "GET", result_url, "");
        if got.status != 409 {
            return got;
        }
        assert!(
            started.elapsed() < deadline,
            "job still pending after {deadline:?}"
        );
        std::thread::sleep(Duration::from_millis(25));
    }
}

/// Extract `"field":<number>` from a flat JSON body without a parser.
fn json_u64(body: &str, field: &str) -> u64 {
    let tag = format!("\"{field}\":");
    let at = body
        .find(&tag)
        .unwrap_or_else(|| panic!("{field} in {body}"));
    body[at + tag.len()..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect::<String>()
        .parse()
        .unwrap_or_else(|_| panic!("numeric {field} in {body}"))
}

/// Extract `"field":"<text>"` from a flat JSON body.
fn json_str(body: &str, field: &str) -> String {
    let tag = format!("\"{field}\":\"");
    let at = body
        .find(&tag)
        .unwrap_or_else(|| panic!("{field} in {body}"));
    body[at + tag.len()..]
        .chars()
        .take_while(|&c| c != '"')
        .collect()
}

/// Run a server on an ephemeral port; returns its address, handle, and
/// the thread that will yield the summary after shutdown.
fn start(
    config: ServeConfig,
) -> (
    SocketAddr,
    icn_serve::ServerHandle,
    std::thread::JoinHandle<icn_serve::ServeSummary>,
) {
    let server = Server::bind(config).expect("bind loopback");
    let addr = server.local_addr();
    let handle = server.handle();
    let join = std::thread::spawn(move || server.run().expect("server run"));
    (addr, handle, join)
}

fn test_config() -> ServeConfig {
    ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 2,
        http_workers: 2,
        queue_depth: 8,
        cache_entries: 32,
        telemetry_out: None,
        journal: None,
        cache_dir: None,
        default_deadline_ms: 0,
        sim_threads: 1,
        limits: Limits::default(),
    }
}

/// A small, fast simulation request (16 ports, short windows).
const SMALL_SIM: &str = r#"{"ports":16,"load":0.02,"seed":77,"warmup_cycles":200,"measure_cycles":500,"drain_cycles":2000}"#;

#[test]
fn simulate_twice_second_hit_is_byte_identical() {
    let (addr, handle, join) = start(test_config());

    assert_eq!(call(addr, "GET", "/v1/healthz", "").status, 200);

    // First request: cache miss, job accepted.
    let first = call(addr, "POST", "/v1/simulate", SMALL_SIM);
    assert_eq!(first.status, 202, "{}", first.body);
    assert_eq!(first.header("x-icn-cache"), None);
    let result_url = json_str(&first.body, "result_url");
    let body_first = poll_result(addr, &result_url, Duration::from_secs(30));
    assert_eq!(body_first.status, 200, "{}", body_first.body);

    // Second identical request: served inline from the cache.
    let second = call(addr, "POST", "/v1/simulate", SMALL_SIM);
    assert_eq!(second.status, 200, "{}", second.body);
    assert_eq!(second.header("x-icn-cache"), Some("hit"));
    assert_eq!(
        second.body, body_first.body,
        "cached response must be byte-identical to the computed one"
    );

    // A semantically identical spelling (defaults made explicit) also hits.
    let explicit = r#"{"ports":16,"load":0.02,"seed":77,"warmup_cycles":200,"measure_cycles":500,"drain_cycles":2000,"chip":"Dmc","width":4,"pattern":"Uniform"}"#;
    let third = call(addr, "POST", "/v1/simulate", explicit);
    assert_eq!(third.status, 200, "{}", third.body);
    assert_eq!(third.header("x-icn-cache"), Some("hit"));
    assert_eq!(third.body, body_first.body);

    // The stats counters saw the hits.
    let stats = call(addr, "GET", "/v1/stats", "");
    assert_eq!(stats.status, 200);
    assert!(json_u64(&stats.body, "hits") >= 2, "{}", stats.body);
    assert_eq!(json_u64(&stats.body, "completed"), 1, "{}", stats.body);

    handle.shutdown();
    let summary = join.join().expect("server thread");
    assert_eq!(summary.jobs_completed, 1);
    assert_eq!(summary.jobs_failed, 0);
}

#[test]
fn threaded_server_bodies_match_serial_server_bodies() {
    // `sim_threads` sizes an explore job's fan-out, a deployment knob: a
    // server exploring across 4 threads must produce the same bytes (and
    // therefore the same cache keys) as a serial one. The bench grid
    // spans two candidate chunks, so the fan-out really splits it.
    let run = |sim_threads: usize| {
        let config = ServeConfig {
            sim_threads,
            ..test_config()
        };
        let (addr, handle, join) = start(config);
        let accepted = call(addr, "POST", "/v1/explore", r#"{"grid":"bench"}"#);
        assert_eq!(accepted.status, 202, "{}", accepted.body);
        let result_url = json_str(&accepted.body, "result_url");
        let result = poll_result(addr, &result_url, Duration::from_secs(60));
        assert_eq!(result.status, 200, "{}", result.body);
        handle.shutdown();
        join.join().expect("server thread");
        result.body
    };
    let quad = run(4);
    assert!(json_u64(&quad, "grid_candidates") > 4096, "{quad}");
    assert_eq!(
        quad,
        run(1),
        "thread budget must not leak into result bytes"
    );
}

/// Evaluate verdicts recompute in about a microsecond, so they stay in
/// the memory cache and never reach the disk spill; simulate results,
/// which cost a whole run, are spilled.
#[test]
#[expect(
    clippy::float_cmp,
    reason = "scraped counters are integers, exactly representable in f64"
)]
fn evaluate_results_stay_in_memory_while_simulate_results_spill() {
    let dir = std::env::temp_dir().join(format!("icn-serve-e2e-spill-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let config = ServeConfig {
        cache_dir: Some(dir.to_string_lossy().into_owned()),
        ..test_config()
    };
    let (addr, handle, join) = start(config);
    let spill_writes = || {
        let scrape = call(addr, "GET", "/v1/metrics", "");
        icn_serve::parse_exposition(&scrape.body)
            .expect("scrape parses")
            .value("icn_cache_spill_writes_total")
            .expect("spill counter present")
    };
    assert_eq!(spill_writes(), 0.0);

    let wide = PAPER_SPEC.replace(r#""width": 4"#, r#""width": 8"#);
    for spec in [PAPER_SPEC, wide.as_str()] {
        let miss = call(addr, "POST", "/v1/evaluate", spec);
        assert_eq!(miss.header("x-icn-cache"), Some("miss"), "{}", miss.body);
        let hit = call(addr, "POST", "/v1/evaluate", spec);
        assert_eq!(hit.header("x-icn-cache"), Some("hit"));
        assert_eq!(hit.body, miss.body);
    }
    assert_eq!(spill_writes(), 0.0, "evaluate results must not be spilled");

    let accepted = call(addr, "POST", "/v1/simulate", SMALL_SIM);
    assert_eq!(accepted.status, 202, "{}", accepted.body);
    let result_url = json_str(&accepted.body, "result_url");
    assert_eq!(
        poll_result(addr, &result_url, Duration::from_secs(30)).status,
        200
    );
    assert_eq!(spill_writes(), 1.0, "a simulate result is spilled");

    handle.shutdown();
    join.join().expect("server thread");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn evaluate_is_cached_and_reports_verdicts() {
    let (addr, handle, join) = start(test_config());

    // The paper's 2048-port example: feasible.
    let spec = PAPER_SPEC;
    let first = call(addr, "POST", "/v1/evaluate", spec);
    assert_eq!(first.status, 200, "{}", first.body);
    assert_eq!(first.header("x-icn-cache"), Some("miss"));
    assert!(first.body.contains(r#""feasible": true"#), "{}", first.body);

    let second = call(addr, "POST", "/v1/evaluate", spec);
    assert_eq!(second.header("x-icn-cache"), Some("hit"));
    assert_eq!(second.body, first.body);

    // An 8-bit-wide variant blows the pin budget: infeasible, with codes.
    let wide = spec.replace(r#""width": 4"#, r#""width": 8"#);
    let infeasible = call(addr, "POST", "/v1/evaluate", &wide);
    assert_eq!(infeasible.status, 200);
    assert!(
        infeasible.body.contains(r#""feasible": false"#),
        "{}",
        infeasible.body
    );
    assert!(infeasible.body.contains("ICN101"), "{}", infeasible.body);

    // Malformed spec: a client error, not a 500.
    assert_eq!(call(addr, "POST", "/v1/evaluate", "{nope").status, 400);

    handle.shutdown();
    join.join().expect("server thread");
}

#[test]
fn full_queue_answers_429_with_retry_after() {
    // One worker, queue depth 1: the first job occupies the worker, the
    // second fills the queue, the third must be rejected.
    let config = ServeConfig {
        workers: 1,
        queue_depth: 1,
        ..test_config()
    };
    let (addr, handle, join) = start(config);

    // Slow-ish jobs (~64 ports, heavy load, long windows), distinct seeds
    // so they cannot coalesce or hit the cache.
    let slow = |seed: u64| {
        format!(
            r#"{{"ports":64,"load":0.9,"seed":{seed},"warmup_cycles":2000,"measure_cycles":150000,"drain_cycles":40000}}"#
        )
    };
    assert_eq!(call(addr, "POST", "/v1/simulate", &slow(1)).status, 202);
    // Wait for the worker to claim job 1, guaranteeing job 2 sits alone in
    // the queue (otherwise the 429 would depend on scheduling luck).
    let claimed = Instant::now();
    while json_u64(&call(addr, "GET", "/v1/stats", "").body, "running") == 0 {
        assert!(
            claimed.elapsed() < Duration::from_secs(10),
            "worker never claimed the first job"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(call(addr, "POST", "/v1/simulate", &slow(2)).status, 202);

    let rejected = call(addr, "POST", "/v1/simulate", &slow(3));
    assert_eq!(rejected.status, 429, "{}", rejected.body);
    assert_eq!(rejected.header("retry-after"), Some("1"));
    assert!(rejected.body.contains("queue is full"), "{}", rejected.body);

    // An identical re-POST of a queued config coalesces instead of 429ing.
    let coalesced = call(addr, "POST", "/v1/simulate", &slow(2));
    assert_eq!(coalesced.status, 202, "{}", coalesced.body);
    assert_eq!(json_str(&coalesced.body, "status"), "coalesced");

    // Graceful shutdown drains both accepted jobs.
    handle.shutdown();
    let summary = join.join().expect("server thread");
    assert_eq!(summary.jobs_completed, 2, "drain must finish queued jobs");
}

#[test]
fn job_endpoints_cover_status_errors_and_unknowns() {
    let (addr, handle, join) = start(test_config());

    assert_eq!(call(addr, "GET", "/v1/jobs/999", "").status, 404);
    assert_eq!(call(addr, "GET", "/v1/jobs/xyz", "").status, 400);
    assert_eq!(call(addr, "GET", "/v1/nope", "").status, 404);
    assert_eq!(call(addr, "DELETE", "/v1/simulate", "").status, 405);

    // Invalid configurations are 400s with a useful message.
    let bad = call(addr, "POST", "/v1/simulate", r#"{"ports":100}"#);
    assert_eq!(bad.status, 400);
    assert!(bad.body.contains("power of two"), "{}", bad.body);

    // A valid job's status endpoint tracks it to completion.
    let accepted = call(addr, "POST", "/v1/simulate", SMALL_SIM);
    assert_eq!(accepted.status, 202);
    let status_url = json_str(&accepted.body, "status_url");
    let result_url = json_str(&accepted.body, "result_url");
    poll_result(addr, &result_url, Duration::from_secs(30));
    let status = call(addr, "GET", &status_url, "");
    assert_eq!(json_str(&status.body, "status"), "done");

    handle.shutdown();
    join.join().expect("server thread");
}

#[test]
fn deadline_exceeded_job_fails_with_a_typed_error() {
    let (addr, handle, join) = start(test_config());

    // A heavy job (long measure window at high load) with a 50 ms budget:
    // the worker's stop predicate must abandon it mid-run.
    let doomed = r#"{"ports":64,"load":0.9,"seed":404,"warmup_cycles":2000,"measure_cycles":1500000,"drain_cycles":100000,"deadline_ms":50}"#;
    let accepted = call(addr, "POST", "/v1/simulate", doomed);
    assert_eq!(accepted.status, 202, "{}", accepted.body);
    let result_url = json_str(&accepted.body, "result_url");
    let result = poll_result(addr, &result_url, Duration::from_secs(30));
    assert_eq!(result.status, 500, "{}", result.body);
    assert!(result.body.contains("deadline exceeded"), "{}", result.body);

    let status_url = json_str(&accepted.body, "status_url");
    let status = call(addr, "GET", &status_url, "");
    assert_eq!(json_str(&status.body, "status"), "failed");

    handle.shutdown();
    let summary = join.join().expect("server thread");
    assert_eq!(summary.jobs_failed, 1);
    assert_eq!(summary.jobs_completed, 0);
}

#[test]
fn running_explore_job_stops_at_its_deadline() {
    // 3 × 2 × 2 × 5,000 × 100 × 100 = 6 × 10^9 candidates: at about
    // 75 ns each in an optimised build the job would run for more than
    // seven minutes, and a debug build is slower still. Its deadline is
    // 1.5 s, long enough that an idle worker has claimed it well before,
    // so it stops mid-run.
    let config = ServeConfig {
        limits: Limits {
            max_candidates: icn_explore::MAX_GRID_CANDIDATES,
            ..Limits::default()
        },
        ..test_config()
    };
    let (addr, handle, join) = start(config);
    let axis = |range: std::ops::RangeInclusive<u32>| {
        range.map(|v| v.to_string()).collect::<Vec<_>>().join(",")
    };
    let body = format!(
        r#"{{"spec":{{"techs":["paper-1986-mos-pga","scaled-cmos-early90s","conservative-1986"],"kinds":["Mcc","Dmc"],"clock_schemes":["Standard","MultiplePulse"],"network_ports":[{}],"radices":[{}],"widths":[{}],"packet_bits":[100]}},"spot_checks":2,"deadline_ms":1500}}"#,
        axis(2..=5001),
        axis(2..=101),
        axis(1..=100)
    );
    let submitted = Instant::now();
    let accepted = call(addr, "POST", "/v1/explore", &body);
    assert_eq!(accepted.status, 202, "{}", accepted.body);
    let result_url = json_str(&accepted.body, "result_url");
    let result = poll_result(addr, &result_url, Duration::from_secs(120));
    assert_eq!(result.status, 500, "{}", result.body);
    assert!(
        result.body.contains("deadline exceeded while exploring"),
        "{}",
        result.body
    );
    assert!(submitted.elapsed() >= Duration::from_millis(1500));
    let scrape = call(addr, "GET", "/v1/metrics", "");
    let expired = icn_serve::parse_exposition(&scrape.body)
        .expect("scrape parses")
        .value("icn_deadline_expired_total");
    assert_eq!(expired, Some(1.0));

    handle.shutdown();
    let summary = join.join().expect("server thread");
    assert_eq!(summary.jobs_failed, 1);
    assert_eq!(summary.jobs_completed, 0);
}

#[test]
fn low_priority_work_is_shed_past_the_high_water_mark() {
    // One worker, capacity 4 → high water 3.
    let config = ServeConfig {
        workers: 1,
        queue_depth: 4,
        ..test_config()
    };
    let (addr, handle, join) = start(config);

    let slow = |seed: u64, extra: &str| {
        format!(
            r#"{{"ports":64,"load":0.9,"seed":{seed},"warmup_cycles":2000,"measure_cycles":150000,"drain_cycles":40000{extra}}}"#
        )
    };
    // Occupy the worker, then fill the queue to the high-water mark.
    assert_eq!(call(addr, "POST", "/v1/simulate", &slow(1, "")).status, 202);
    let claimed = Instant::now();
    while json_u64(&call(addr, "GET", "/v1/stats", "").body, "running") == 0 {
        assert!(claimed.elapsed() < Duration::from_secs(10));
        std::thread::sleep(Duration::from_millis(10));
    }
    for seed in 2..=4 {
        assert_eq!(
            call(addr, "POST", "/v1/simulate", &slow(seed, "")).status,
            202
        );
    }

    // Depth 3 == high water: Low is shed with an honest Retry-After...
    let shed = call(
        addr,
        "POST",
        "/v1/simulate",
        &slow(5, r#","priority":"Low""#),
    );
    assert_eq!(shed.status, 429, "{}", shed.body);
    assert!(shed.body.contains("shed"), "{}", shed.body);
    let retry_after: u64 = shed
        .header("retry-after")
        .expect("retry-after header")
        .parse()
        .expect("numeric retry-after");
    assert!((1..=60).contains(&retry_after), "{retry_after}");

    // ...while Normal work is still admitted (capacity remains).
    assert_eq!(call(addr, "POST", "/v1/simulate", &slow(6, "")).status, 202);

    let stats = call(addr, "GET", "/v1/stats", "");
    assert_eq!(json_u64(&stats.body, "shed"), 1, "{}", stats.body);

    handle.shutdown();
    let summary = join.join().expect("server thread");
    assert_eq!(
        summary.jobs_completed, 5,
        "drain finishes everything queued"
    );
}

#[test]
fn stream_endpoint_emits_chunked_progress_until_terminal() {
    let (addr, handle, join) = start(test_config());

    let sim = r#"{"ports":16,"load":0.02,"seed":4242,"warmup_cycles":200,"measure_cycles":500,"drain_cycles":2000}"#;
    let accepted = call(addr, "POST", "/v1/simulate", sim);
    assert_eq!(accepted.status, 202, "{}", accepted.body);
    let stream_url = json_str(&accepted.body, "stream_url");

    let streamed = call(addr, "GET", &stream_url, "");
    assert_eq!(streamed.status, 200);
    assert_eq!(streamed.header("transfer-encoding"), Some("chunked"));
    // The raw chunked body: at least one progress line, a terminal line
    // pointing at the result, and the zero-chunk terminator.
    assert!(
        streamed.body.contains("\"status\":\"done\""),
        "{}",
        streamed.body
    );
    assert!(streamed.body.contains("result_url"), "{}", streamed.body);
    assert!(streamed.body.ends_with("0\r\n\r\n"), "{}", streamed.body);

    // Unknown jobs 404 instead of streaming forever.
    assert_eq!(call(addr, "GET", "/v1/jobs/424242/stream", "").status, 404);

    handle.shutdown();
    join.join().expect("server thread");
}

#[test]
fn trace_endpoint_nests_the_engine_profile_under_execute() {
    let (addr, handle, join) = start(test_config());

    // A client-supplied trace id is echoed on every response.
    let trace_id = "deadbeefdeadbeefdeadbeefdeadbeef";
    let profiled = r#"{"ports":16,"load":0.02,"seed":91,"warmup_cycles":200,"measure_cycles":500,"drain_cycles":2000,"profile":true}"#;
    let accepted = call_with_headers(
        addr,
        "POST",
        "/v1/simulate",
        profiled,
        &[("x-icn-trace-id", trace_id)],
    );
    assert_eq!(accepted.status, 202, "{}", accepted.body);
    assert_eq!(accepted.header("x-icn-trace-id"), Some(trace_id));

    let result_url = json_str(&accepted.body, "result_url");
    let result = poll_result(addr, &result_url, Duration::from_secs(30));
    assert_eq!(result.status, 200, "{}", result.body);
    // Responses without a client id still carry a generated one.
    let generated = result.header("x-icn-trace-id").expect("generated id");
    assert_eq!(generated.len(), 32, "{generated}");

    let job = json_u64(&accepted.body, "job");
    let trace = call(addr, "GET", &format!("/v1/jobs/{job}/trace"), "");
    assert_eq!(trace.status, 200, "{}", trace.body);
    let tree: serde_json::Value = serde_json::from_str(&trace.body).expect("trace body parses");
    assert_eq!(tree["trace_id"], trace_id, "{}", trace.body);
    assert_eq!(tree["status"], "done");
    let children = tree["spans"]["children"].as_array().expect("children");
    let names: Vec<&str> = children.iter().filter_map(|c| c["name"].as_str()).collect();
    for required in ["parse", "cache_lookup", "queue_wait", "execute"] {
        assert!(names.contains(&required), "missing {required} in {names:?}");
    }
    // The job ran with `profile: true`, so the engine's cycle-domain span
    // tree is nested under the execute span.
    let execute = children.iter().find(|c| c["name"] == "execute").unwrap();
    assert_eq!(execute["engine"]["root"]["name"], "run", "{}", trace.body);

    // Unknown jobs 404.
    assert_eq!(call(addr, "GET", "/v1/jobs/424242/trace", "").status, 404);

    handle.shutdown();
    join.join().expect("server thread");
}

#[test]
#[expect(
    clippy::float_cmp,
    reason = "scraped counters are integers, exactly representable in f64"
)]
fn metrics_endpoint_scrapes_clean_under_load() {
    let (addr, handle, join) = start(test_config());

    // Drive mixed traffic from a few client threads while scraping.
    let sims: Vec<String> = (0..6)
        .map(|seed| {
            format!(
                r#"{{"ports":16,"load":0.02,"seed":{seed},"warmup_cycles":200,"measure_cycles":500,"drain_cycles":2000}}"#
            )
        })
        .collect();
    std::thread::scope(|scope| {
        for sim in &sims {
            scope.spawn(move || {
                let accepted = call(addr, "POST", "/v1/simulate", sim);
                assert!(
                    accepted.status == 202 || accepted.status == 200,
                    "{}",
                    accepted.body
                );
            });
        }
        // Concurrent scrapes must always parse and validate.
        for _ in 0..4 {
            let scrape = call(addr, "GET", "/v1/metrics", "");
            assert_eq!(scrape.status, 200);
            assert_eq!(
                scrape.header("content-type"),
                Some("text/plain; version=0.0.4")
            );
            icn_serve::parse_exposition(&scrape.body)
                .unwrap_or_else(|e| panic!("mid-load scrape invalid: {e}\n{}", scrape.body));
            std::thread::sleep(Duration::from_millis(20));
        }
    });

    // Wait for all jobs to finish, then check the final counters.
    let started = Instant::now();
    loop {
        let stats = call(addr, "GET", "/v1/stats", "");
        if json_u64(&stats.body, "completed") >= sims.len() as u64 {
            break;
        }
        assert!(
            started.elapsed() < Duration::from_secs(30),
            "{}",
            stats.body
        );
        std::thread::sleep(Duration::from_millis(25));
    }
    let scrape = call(addr, "GET", "/v1/metrics", "");
    let parsed = icn_serve::parse_exposition(&scrape.body).expect("final scrape parses");
    let value = |name: &str| {
        parsed
            .value(name)
            .unwrap_or_else(|| panic!("{name} missing from scrape:\n{}", scrape.body))
    };
    assert!(value("icn_requests_total") >= sims.len() as f64);
    assert!(value("icn_jobs_completed_total") >= sims.len() as f64);
    assert!(value("icn_cache_misses_total") >= sims.len() as f64);
    assert_eq!(value("icn_jobs_failed_total"), 0.0);
    let hist = parsed
        .family("icn_request_latency_us")
        .expect("latency histogram family");
    assert_eq!(hist.kind, "histogram");

    // Methods other than GET are rejected, not routed.
    assert_eq!(call(addr, "POST", "/v1/metrics", "").status, 405);

    handle.shutdown();
    join.join().expect("server thread");
}

/// The value of the unlabeled family `name` in a parsed exposition.
fn family_value(exposition: &icn_serve::Exposition, name: &str) -> u64 {
    let value = exposition
        .value(name)
        .unwrap_or_else(|| panic!("{name} missing from the exposition"));
    value as u64
}

/// The paper's 2048-port design point, for `POST /v1/evaluate`.
const PAPER_SPEC: &str = r#"{
    "tech": "paper1986", "kind": "Dmc", "chip_radix": 16, "width": 4,
    "board_ports": 256, "network_ports": 2048, "packet_bits": 100,
    "clock_scheme": "MultiplePulse", "memory_access_ns": 100.0
}"#;

/// Every output renders one registry snapshot: after a fixed request mix
/// on an otherwise idle server, `/v1/stats` and `/v1/metrics` agree, and
/// the `--telemetry-out` file written at shutdown carries exactly the
/// `ServeSummary` numbers.
#[test]
fn shutdown_endpoint_drains_and_telemetry_dump_is_written() {
    let dump = std::env::temp_dir().join(format!("icn-serve-e2e-{}.prom", std::process::id()));
    let config = ServeConfig {
        telemetry_out: Some(dump.to_string_lossy().into_owned()),
        ..test_config()
    };
    let (addr, _handle, join) = start(config);

    // The mix: an evaluate miss and hit, a simulate job run to completion,
    // and a cache hit on that job's result.
    assert_eq!(call(addr, "POST", "/v1/evaluate", PAPER_SPEC).status, 200);
    assert_eq!(call(addr, "POST", "/v1/evaluate", PAPER_SPEC).status, 200);
    let first = call(addr, "POST", "/v1/simulate", SMALL_SIM);
    assert_eq!(first.status, 202);
    let result_url = json_str(&first.body, "result_url");
    assert_eq!(
        poll_result(addr, &result_url, Duration::from_secs(30)).status,
        200
    );
    let hit = call(addr, "POST", "/v1/simulate", SMALL_SIM);
    assert_eq!(hit.header("x-icn-cache"), Some("hit"));

    // Idle now, so /v1/stats and the next scrape read the same registry;
    // the scrape has also counted the /v1/stats exchange itself.
    let stats = call(addr, "GET", "/v1/stats", "").body;
    let scrape = call(addr, "GET", "/v1/metrics", "").body;
    let live = icn_serve::parse_exposition(&scrape).expect("scrape parses");
    let metric = |name: &str| family_value(&live, name);
    assert_eq!(
        metric("icn_requests_total"),
        json_u64(&stats, "requests") + 1
    );
    assert_eq!(metric("icn_cache_hits_total"), json_u64(&stats, "hits"));
    assert_eq!(metric("icn_cache_misses_total"), json_u64(&stats, "misses"));
    assert_eq!(
        metric("icn_jobs_completed_total"),
        json_u64(&stats, "completed")
    );
    assert_eq!(json_u64(&stats, "hits"), 2, "{stats}");
    assert_eq!(json_u64(&stats, "misses"), 2, "{stats}");
    assert_eq!(json_u64(&stats, "completed"), 1, "{stats}");

    // A second job, then shutdown: the drain must finish it.
    let other = SMALL_SIM.replace("\"seed\":77", "\"seed\":78");
    assert_eq!(call(addr, "POST", "/v1/simulate", &other).status, 202);
    let off = call(addr, "POST", "/v1/shutdown", "");
    assert_eq!(off.status, 200);
    assert!(off.body.contains("draining"), "{}", off.body);

    let summary = join.join().expect("server thread");
    assert_eq!(summary.jobs_completed, 2, "shutdown must drain the job");

    // The dump is the final exposition: exactly the summary's numbers.
    let text = std::fs::read_to_string(&dump).expect("telemetry dump written");
    let dumped = icn_serve::parse_exposition(&text).expect("dump is a valid exposition");
    let cache = summary.cache;
    for (name, want) in [
        ("icn_requests_total", summary.requests),
        ("icn_jobs_completed_total", summary.jobs_completed),
        ("icn_jobs_failed_total", summary.jobs_failed),
        ("icn_cache_hits_total", cache.hits),
        ("icn_cache_misses_total", cache.misses),
        ("icn_cache_evictions_total", cache.evictions),
        ("icn_cache_entries", cache.entries as u64),
        ("icn_cache_capacity", cache.capacity as u64),
        ("icn_cache_spill_writes_total", cache.spill_writes),
        (
            "icn_cache_spill_write_failures_total",
            cache.spill_write_failures,
        ),
        ("icn_cache_disk_hits_total", cache.disk_hits),
        ("icn_cache_disk_discarded_total", cache.disk_discarded),
    ] {
        assert_eq!(
            family_value(&dumped, name),
            want,
            "{name} in the dump vs the summary"
        );
    }
    // Since the scrape: itself, the second submit, and the shutdown.
    assert_eq!(summary.requests, metric("icn_requests_total") + 3);
    let latency = dumped
        .family("icn_request_latency_us")
        .expect("latency histogram in the dump");
    let count = latency
        .samples
        .iter()
        .find(|s| s.name == "icn_request_latency_us_count")
        .expect("_count sample");
    assert_eq!(
        count.value as u64, summary.requests,
        "one latency per request"
    );
    let _ = std::fs::remove_file(&dump);
}

#[test]
fn explore_job_completes_caches_and_streams() {
    let (addr, handle, join) = start(test_config());

    // Submit the paper grid with two simulator spot-checks.
    let body = r#"{"grid":"paper","spot_checks":2}"#;
    let first = call(addr, "POST", "/v1/explore", body);
    assert_eq!(first.status, 202, "{}", first.body);
    let result_url = json_str(&first.body, "result_url");
    let result = poll_result(addr, &result_url, Duration::from_secs(60));
    assert_eq!(result.status, 200, "{}", result.body);
    assert!(
        result.body.contains("\"frontier\""),
        "outcome body carries the frontier: {}",
        result.body
    );
    assert_eq!(json_u64(&result.body, "grid_candidates"), 32);
    assert!(
        result.body.contains("\"ranking_agrees\":true"),
        "{}",
        result.body
    );

    // The identical sweep again: inline cache hit, byte-identical.
    let second = call(addr, "POST", "/v1/explore", body);
    assert_eq!(second.status, 200, "{}", second.body);
    assert_eq!(second.header("x-icn-cache"), Some("hit"));
    assert_eq!(second.body, result.body);

    // A different spelling of the same sweep (the paper grid is the
    // default) also lands on the same cache entry.
    let spelled = call(addr, "POST", "/v1/explore", r#"{"spot_checks":2}"#);
    assert_eq!(spelled.status, 200, "{}", spelled.body);
    assert_eq!(spelled.header("x-icn-cache"), Some("hit"));
    assert_eq!(spelled.body, result.body);

    // The ndjson stream of a finished job parses: every line is a JSON
    // object for this job, the last one terminal with a result_url.
    let stream_url = json_str(&first.body, "stream_url");
    let streamed = call(addr, "GET", &stream_url, "");
    assert_eq!(streamed.status, 200);
    let payload: String = streamed
        .body
        .split("\r\n")
        .filter(|part| part.starts_with('{'))
        .collect::<Vec<_>>()
        .join("");
    let lines: Vec<&str> = payload.split('\n').filter(|l| !l.is_empty()).collect();
    assert!(!lines.is_empty(), "{}", streamed.body);
    for line in &lines {
        assert!(line.starts_with("{\"job\":"), "unparsed line: {line}");
        assert!(line.ends_with('}'), "unparsed line: {line}");
    }
    assert!(lines.last().unwrap().contains("\"status\":\"done\""));
    assert!(lines.last().unwrap().contains("result_url"));

    // Bad requests are client errors, not jobs.
    let bad = call(addr, "POST", "/v1/explore", r#"{"grid":"nope"}"#);
    assert_eq!(bad.status, 400, "{}", bad.body);
    let both = call(
        addr,
        "POST",
        "/v1/explore",
        r#"{"grid":"paper","spec":{"techs":["paper-1986-mos-pga"]}}"#,
    );
    assert_eq!(both.status, 400, "{}", both.body);
    let greedy = call(addr, "POST", "/v1/explore", r#"{"spot_checks":999}"#);
    assert_eq!(greedy.status, 400, "{}", greedy.body);

    handle.shutdown();
    let summary = join.join().expect("server thread");
    assert_eq!(summary.jobs_completed, 1);
    assert_eq!(summary.jobs_failed, 0);
}

/// Bind an idle server on the unspecified address, stop it with `stop`,
/// and require `run()` to return `Ok` within 2 s: the acceptor blocks in
/// `accept`, so shutdown has to wake it.
fn idle_server_stops_promptly(stop: impl FnOnce(&icn_serve::ServerHandle)) {
    let server = Server::bind(ServeConfig {
        addr: "0.0.0.0:0".to_string(),
        ..test_config()
    })
    .expect("bind the unspecified address");
    let handle = server.handle();
    let (done, returned) = std::sync::mpsc::channel();
    std::thread::spawn(move || done.send(server.run().map(|_| ()).map_err(|e| e.to_string())));
    // Usually lets the acceptor block in `accept` first; the bound holds
    // either way, since a wake that arrives early waits in the backlog.
    std::thread::sleep(Duration::from_millis(100));
    stop(&handle);
    let outcome = returned
        .recv_timeout(Duration::from_secs(2))
        .expect("run() returns within 2 s of the shutdown request");
    assert_eq!(outcome, Ok(()));
}

#[test]
fn idle_server_returns_promptly_after_handle_shutdown() {
    idle_server_stops_promptly(icn_serve::ServerHandle::shutdown);
}

#[test]
fn idle_server_returns_promptly_after_post_shutdown() {
    idle_server_stops_promptly(|handle| {
        let loopback = SocketAddr::from(([127, 0, 0, 1], handle.addr().port()));
        let reply = call(loopback, "POST", "/v1/shutdown", "");
        assert_eq!(reply.status, 200, "{}", reply.body);
    });
}
