//! Crash-recovery tests: the result cache's disk spill under arbitrary
//! access patterns, and journal replay through a real [`Server::bind`].
//!
//! The property tests model the two-level cache against a flat map —
//! whatever was inserted last for a key must come back byte-identical,
//! no matter how the memory LRU evicted around it, and a **fresh** cache
//! pointed at the same spill directory must serve the same bodies (that
//! is exactly the restart path).
//!
//! The scenario tests hand-craft "crashed" journals — completed jobs with
//! inline bodies, submitted-but-unfinished jobs, failed jobs, torn tails —
//! then boot a real server on them and assert the HTTP surface shows full
//! recovery: old results served verbatim, unfinished work re-run to
//! completion, and re-POSTs of recovered configurations answered from the
//! cache (`x-icn-cache: hit`).

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use icn_serve::journal::{compaction_records, JobRecord, Journal, Record, COMPACT_THRESHOLD_BYTES};
use icn_serve::{
    content_key, stream_key, DiskStore, Limits, Priority, ResultCache, ServeConfig, Server,
    SimulateRequest,
};
use proptest::prelude::*;

/// Unique scratch directory per call (pid + counter), so parallel tests
/// and proptest iterations never share state.
fn scratch(name: &str) -> PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let n = SEQ.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!(
        "icn-recovery-test-{}-{name}-{n}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

// ---------------------------------------------------------------------------
// Property: LRU eviction + disk spill round-trip.
// ---------------------------------------------------------------------------

/// One step of a cache workload.
#[derive(Debug, Clone)]
enum Op {
    Insert(usize, String),
    Get(usize),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        // Key and body both derived from one draw: 8 keys, distinct
        // bodies, so an overwritten key really changes its bytes.
        (0u64..1_000_000).prop_map(|raw| Op::Insert((raw % 8) as usize, format!("body-{raw}"))),
        (0usize..8).prop_map(Op::Get),
    ]
}

fn key_name(k: usize) -> String {
    format!("key{k}")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// With a spill attached, every `get` of a previously inserted key
    /// returns the latest inserted body byte-identical — even at memory
    /// capacities small enough to force constant eviction.
    #[test]
    fn spilled_cache_never_forgets(ops in proptest::collection::vec(op_strategy(), 1..40), capacity in 0usize..4) {
        let dir = scratch("prop");
        let spill = Arc::new(DiskStore::open(&dir).unwrap());
        let mut cache = ResultCache::with_spill(capacity, spill);
        let mut model: std::collections::BTreeMap<usize, String> = std::collections::BTreeMap::new();
        for op in ops {
            match op {
                Op::Insert(k, body) => {
                    cache.insert(&key_name(k), Arc::new(body.clone()));
                    model.insert(k, body);
                }
                Op::Get(k) => {
                    let got = cache.get(&key_name(k)).map(|b| b.as_str().to_string());
                    prop_assert_eq!(&got, &model.get(&k).cloned(),
                        "get({}) diverged from the model", k);
                }
            }
        }
        // Restart path: a fresh cache over the same directory serves the
        // latest body for every key the workload ever inserted.
        let spill2 = Arc::new(DiskStore::open(&dir).unwrap());
        let mut fresh = ResultCache::with_spill(capacity, spill2);
        for (k, want) in &model {
            let got = fresh.get(&key_name(*k)).map(|b| b.as_str().to_string());
            prop_assert_eq!(got.as_deref(), Some(want.as_str()),
                "fresh cache lost key {} after restart", k);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A memory-only cache at capacity `c` holds at most `c` entries and
    /// serves exactly the most recently used ones.
    #[test]
    fn memory_lru_respects_capacity(ops in proptest::collection::vec(op_strategy(), 1..40), capacity in 1usize..4) {
        let mut cache = ResultCache::new(capacity);
        for op in ops {
            match op {
                Op::Insert(k, body) => cache.insert(&key_name(k), Arc::new(body)),
                Op::Get(k) => { let _ = cache.get(&key_name(k)); }
            }
        }
        prop_assert!(cache.stats().entries <= capacity);
    }
}

// ---------------------------------------------------------------------------
// Scenario: journal replay through a real server.
// ---------------------------------------------------------------------------

/// Send one HTTP request and collect the response (connection: close).
fn call(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: &str,
) -> (u16, Vec<(String, String)>, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let request = format!(
        "{method} {path} HTTP/1.1\r\nhost: test\r\ncontent-length: {}\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(request.as_bytes()).expect("send");
    let mut raw = String::new();
    stream.read_to_string(&mut raw).expect("read");
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
    (status, headers, body.to_string())
}

fn header<'a>(headers: &'a [(String, String)], name: &str) -> Option<&'a str> {
    headers
        .iter()
        .find(|(n, _)| n == name)
        .map(|(_, v)| v.as_str())
}

/// Poll a job's result until it leaves the pending state.
fn poll_result(addr: SocketAddr, id: u64) -> (u16, String) {
    let started = Instant::now();
    loop {
        let (status, _, body) = call(addr, "GET", &format!("/v1/jobs/{id}/result"), "");
        if status != 409 {
            return (status, body);
        }
        assert!(
            started.elapsed() < Duration::from_secs(60),
            "job {id} still pending"
        );
        std::thread::sleep(Duration::from_millis(25));
    }
}

/// A small fast simulation request and its (canonical, key) pair, derived
/// through the same public API the server uses — so a hand-written journal
/// record matches what a live server would have written.
fn canonical_sim(seed: u64) -> (String, String, String) {
    let request_json = format!(
        r#"{{"ports":16,"load":0.02,"seed":{seed},"warmup_cycles":200,"measure_cycles":500,"drain_cycles":2000}}"#
    );
    let request: SimulateRequest = serde_json::from_str(&request_json).expect("request json");
    let config = request.resolve(&Limits::default()).expect("resolvable");
    let canonical = serde_json::to_string(&config).expect("canonical");
    let key = stream_key("simulate", &canonical);
    (request_json, canonical, key)
}

/// A resolved simulate configuration as an older build journaled it,
/// with the `trace_packets` field that `SimConfig` no longer has.
const OLDER_FORMAT_CONFIG: &str = r#"{"plan":{"radices":[16]},"chip":"Dmc","width":4,"packet_bits":100,"buffer_capacity":1,"cut_through":true,"arbitration":"RoundRobin","workload":{"load":0.02,"pattern":"Uniform"},"seed":9003,"trace_packets":0,"warmup_cycles":200,"measure_cycles":500,"drain_cycles":2000,"faults":{"events":[]},"retry":{"max_retries":3,"backoff_base":16,"backoff_cap":1024},"watchdog_cycles":10000,"telemetry":{"sample_interval":0,"ring_capacity":4096,"histogram_precision":7,"profile":false}}"#;

fn serve_config(dir: &std::path::Path) -> ServeConfig {
    ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 2,
        http_workers: 2,
        queue_depth: 8,
        cache_entries: 32,
        telemetry_out: None,
        journal: Some(dir.join("jobs.journal").to_string_lossy().into_owned()),
        cache_dir: None,
        default_deadline_ms: 0,
        sim_threads: 1,
        limits: Limits::default(),
    }
}

#[test]
fn recovered_journal_serves_completed_and_reruns_unfinished() {
    let dir = scratch("replay");
    let journal_path = dir.join("jobs.journal");
    let (request_json, canonical, key) = canonical_sim(9001);

    // Hand-craft the "crashed" journal: job 1 completed with an inline
    // body, job 2 submitted and started but never finished, job 3 failed,
    // plus a torn partial frame at the tail (crash mid-append).
    let fake_body = r#"{"fake":"completed result","delivered":12345}"#;
    {
        let mut journal = Journal::open(&journal_path).unwrap();
        journal
            .append(&Record::Submit {
                id: 1,
                key: "deadbeef".into(),
                priority: Priority::Normal,
                deadline_ms: None,
                config: "{}".into(),
            })
            .unwrap();
        journal
            .append(&Record::Complete {
                id: 1,
                key: "deadbeef".into(),
                body: Some(fake_body.to_string()),
            })
            .unwrap();
        journal
            .append(&Record::Submit {
                id: 2,
                key: key.clone(),
                priority: Priority::High,
                deadline_ms: None,
                config: canonical.clone(),
            })
            .unwrap();
        journal.append(&Record::Start { id: 2 }).unwrap();
        journal
            .append(&Record::Submit {
                id: 3,
                key: "cafe".into(),
                priority: Priority::Low,
                deadline_ms: None,
                config: "{}".into(),
            })
            .unwrap();
        journal
            .append(&Record::Fail {
                id: 3,
                error: "synthetic pre-crash failure".into(),
            })
            .unwrap();
        journal
            .append(&Record::Submit {
                id: 4,
                key: content_key("simulate", OLDER_FORMAT_CONFIG),
                priority: Priority::Normal,
                deadline_ms: None,
                config: OLDER_FORMAT_CONFIG.into(),
            })
            .unwrap();
    }
    let mut raw = std::fs::read(&journal_path).unwrap();
    raw.extend_from_slice(&[200, 1, 0, 0, 9, 9, 9]); // torn tail
    std::fs::write(&journal_path, &raw).unwrap();

    let server = Server::bind(serve_config(&dir)).expect("bind over crashed journal");
    let addr = server.local_addr();
    let handle = server.handle();
    let join = std::thread::spawn(move || server.run().expect("run"));

    // Job 1: completed before the crash; its body is served verbatim.
    let (status, _, body) = call(addr, "GET", "/v1/jobs/1/result", "");
    assert_eq!(status, 200);
    assert_eq!(body, fake_body, "recovered body byte-identical");

    // Job 3: failed before the crash; the error survives.
    let (status, _, body) = call(addr, "GET", "/v1/jobs/3/result", "");
    assert_eq!(status, 500);
    assert!(body.contains("synthetic pre-crash failure"), "got {body}");

    // Job 2: was mid-flight; it re-runs to completion after the restart.
    let (status, sim_body) = poll_result(addr, 2);
    assert_eq!(status, 200, "re-run finished: {sim_body}");
    assert!(sim_body.contains("\"delivered_total\""), "got {sim_body}");

    // Job 4: journaled by a build whose configuration still carried the
    // since-removed `trace_packets` field; it re-runs all the same.
    let (status, body) = poll_result(addr, 4);
    assert_eq!(status, 200, "older-format job re-ran: {body}");
    assert!(body.contains("\"delivered_total\""), "got {body}");

    // Re-POST the same configuration: the re-run populated the cache, so
    // this answers byte-identical with a cache hit.
    let (status, headers, body) = call(addr, "POST", "/v1/simulate", &request_json);
    assert_eq!(status, 200);
    assert_eq!(header(&headers, "x-icn-cache"), Some("hit"));
    assert_eq!(body, sim_body, "cache hit is byte-identical to the re-run");

    handle.shutdown();
    join.join().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn recovery_restores_spilled_bodies_without_rerunning() {
    let dir = scratch("spill");
    let journal_path = dir.join("jobs.journal");
    let cache_dir = dir.join("cache");
    let (request_json, canonical, key) = canonical_sim(9002);

    // First life: a real server computes the result so the spill and
    // journal hold exactly what a production run would have written.
    let first_body;
    {
        let mut config = serve_config(&dir);
        config.cache_dir = Some(cache_dir.to_string_lossy().into_owned());
        let server = Server::bind(config).expect("first bind");
        let addr = server.local_addr();
        let handle = server.handle();
        let join = std::thread::spawn(move || server.run().expect("run"));
        let (status, _, accepted) = call(addr, "POST", "/v1/simulate", &request_json);
        assert_eq!(status, 202, "accepted: {accepted}");
        let (status, body) = poll_result(addr, 1);
        assert_eq!(status, 200);
        first_body = body;
        handle.shutdown();
        join.join().unwrap();
    }
    // With a spill configured the Complete record carries no inline body —
    // the result round-trips through the disk store instead.
    let raw = String::from_utf8_lossy(&std::fs::read(&journal_path).unwrap()).into_owned();
    assert!(
        raw.contains("Submit") && !raw.contains("delivered_total"),
        "result body must live in the spill, not the journal"
    );

    // Second life: same journal + cache dir. The completed job comes back
    // served from disk — no recomputation (verified by zero queue work).
    let mut config = serve_config(&dir);
    config.cache_dir = Some(cache_dir.to_string_lossy().into_owned());
    let server = Server::bind(config).expect("second bind");
    let addr = server.local_addr();
    let handle = server.handle();
    let join = std::thread::spawn(move || server.run().expect("run"));

    let (status, body) = poll_result(addr, 1);
    assert_eq!(status, 200);
    assert_eq!(
        body, first_body,
        "spilled body byte-identical across restart"
    );

    let (status, headers, body) = call(addr, "POST", "/v1/simulate", &request_json);
    assert_eq!(status, 200);
    assert_eq!(header(&headers, "x-icn-cache"), Some("hit"));
    assert_eq!(body, first_body);

    // The canonical key really is what the server derived.
    assert!(
        canonical.contains("\"seed\":9002") && !key.is_empty(),
        "sanity: canonical/key derivation"
    );

    handle.shutdown();
    join.join().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A body computed under an older random stream is never served for the
/// same configuration. The journal holds a completed simulate job under
/// the key form from before the stream version joined the key (the bare
/// `content_key`); a fresh POST of that configuration is a miss, and the
/// job it starts answers exactly what `try_run` computes today.
#[test]
fn results_from_an_older_random_stream_are_misses() {
    let dir = scratch("stream");
    let journal_path = dir.join("jobs.journal");
    let (request_json, canonical, key) = canonical_sim(9004);
    let old_key = content_key("simulate", &canonical);
    assert_ne!(old_key, key);
    let stale_body = r#"{"stale":"older stream","delivered_total":1}"#;
    {
        let mut journal = Journal::open(&journal_path).unwrap();
        journal
            .append(&Record::Submit {
                id: 1,
                key: old_key.clone(),
                priority: Priority::Normal,
                deadline_ms: None,
                config: canonical.clone(),
            })
            .unwrap();
        journal
            .append(&Record::Complete {
                id: 1,
                key: old_key,
                body: Some(stale_body.to_string()),
            })
            .unwrap();
    }

    let server = Server::bind(serve_config(&dir)).expect("bind over an older journal");
    let addr = server.local_addr();
    let handle = server.handle();
    let join = std::thread::spawn(move || server.run().expect("run"));

    // The old job keeps its own result...
    let (status, _, body) = call(addr, "GET", "/v1/jobs/1/result", "");
    assert_eq!(status, 200);
    assert_eq!(body, stale_body);

    // ...but the same configuration posted afresh is a miss (a queued job,
    // not a 200 hit) whose result is today's stream.
    let (status, _, accepted) = call(addr, "POST", "/v1/simulate", &request_json);
    assert_eq!(status, 202, "a miss starts a job: {accepted}");
    let accepted: serde_json::Value = serde_json::from_str(&accepted).unwrap();
    let id = accepted["job"].as_u64().expect("job id");
    let (status, body) = poll_result(addr, id);
    assert_eq!(status, 200, "{body}");
    let config: icn_sim::SimConfig = serde_json::from_str(&canonical).unwrap();
    let expected = serde_json::to_string(&icn_sim::try_run(config).unwrap()).unwrap();
    assert_eq!(body, expected, "the fresh result is try_run's");

    handle.shutdown();
    join.join().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn unparseable_journaled_config_fails_closed() {
    let dir = scratch("unparseable");
    let journal_path = dir.join("jobs.journal");
    {
        let mut journal = Journal::open(&journal_path).unwrap();
        journal
            .append(&Record::Submit {
                id: 1,
                key: "feed".into(),
                priority: Priority::Normal,
                deadline_ms: None,
                config: r#"{"not":"a sim config"}"#.into(),
            })
            .unwrap();
    }
    let server = Server::bind(serve_config(&dir)).expect("bind");
    let addr = server.local_addr();
    let handle = server.handle();
    let join = std::thread::spawn(move || server.run().expect("run"));

    let (status, body) = poll_result(addr, 1);
    assert_eq!(status, 500, "unrecoverable job fails, never panics");
    assert!(body.contains("unrecoverable"), "got {body}");

    handle.shutdown();
    join.join().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn journaled_explore_job_is_rerun_after_a_crash() {
    let dir = scratch("explore-replay");
    let journal_path = dir.join("jobs.journal");

    // Derive the canonical form and content key through the same public
    // API the live `/v1/explore` handler uses.
    let request: icn_serve::ExploreRequest =
        serde_json::from_str(r#"{"grid":"paper","spot_checks":1}"#).unwrap();
    let resolved = request.resolve(&Limits::default()).expect("resolvable");
    let canonical = serde_json::to_string(&resolved).expect("canonical");
    let key = stream_key("explore", &canonical);
    assert!(key.starts_with("explore:"), "prefix drives recovery");

    // A journal whose only job is an explore sweep that never finished.
    {
        let mut journal = Journal::open(&journal_path).unwrap();
        journal
            .append(&Record::Submit {
                id: 1,
                key: key.clone(),
                priority: Priority::Normal,
                deadline_ms: None,
                config: canonical.clone(),
            })
            .unwrap();
        journal.append(&Record::Start { id: 1 }).unwrap();
    }

    let server = Server::bind(serve_config(&dir)).expect("bind over crashed journal");
    let addr = server.local_addr();
    let handle = server.handle();
    let join = std::thread::spawn(move || server.run().expect("run"));

    // The sweep re-runs to completion from the journaled canonical form.
    let (status, body) = poll_result(addr, 1);
    assert_eq!(status, 200, "recovered explore job finished: {body}");
    assert!(body.contains("\"frontier\""), "got {body}");
    assert!(body.contains("\"grid_candidates\":32"), "got {body}");

    // Re-POST of the same sweep answers from the repopulated cache,
    // byte-identical to the recovered run.
    let (status, headers, hit) = call(
        addr,
        "POST",
        "/v1/explore",
        r#"{"grid":"paper","spot_checks":1}"#,
    );
    assert_eq!(status, 200);
    assert_eq!(header(&headers, "x-icn-cache"), Some("hit"));
    assert_eq!(hit, body);

    handle.shutdown();
    join.join().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Compaction hysteresis loses nothing. The loop drives a journal the way
/// the server's `maybe_compact` does: after each job, if the journal wants
/// compaction, rewrite it to the live set, with completed bodies in the
/// disk spill. Bulky configs make the live set alone outgrow
/// `COMPACT_THRESHOLD_BYTES`, so the file is over the fixed threshold after
/// most jobs; compaction still runs only at doublings, and recovery brings
/// back every job's latest state and every spilled body.
#[test]
fn compaction_hysteresis_loses_no_job_state() {
    const JOBS: u64 = 200;
    let dir = scratch("hysteresis");
    let path = dir.join("jobs.journal");
    let spill = DiskStore::open(&dir.join("spill")).unwrap();
    let (mut journal, _) = Journal::recover(&path).unwrap();
    let padding = "x".repeat(8 * 1024);
    let body = |id: u64| format!("{{\"result\":{id}}}");
    let mut live: Vec<JobRecord> = Vec::new();
    let (mut compactions, mut over_threshold) = (0u32, 0u32);
    for id in 1..=JOBS {
        let key = format!("k{id}");
        let config = format!("{{\"seed\":{id},\"pad\":\"{padding}\"}}");
        journal
            .append(&Record::Submit {
                id,
                key: key.clone(),
                priority: Priority::Normal,
                deadline_ms: None,
                config: config.clone(),
            })
            .unwrap();
        // Every 7th job stays queued; the rest start, and of those every
        // 11th is still running, every 5th fails, and the others complete
        // with their body in the spill.
        let outcome = if id % 7 == 0 {
            None
        } else {
            journal.append(&Record::Start { id }).unwrap();
            if id % 11 == 0 {
                None
            } else if id % 5 == 0 {
                let error = format!("failure {id}");
                journal
                    .append(&Record::Fail {
                        id,
                        error: error.clone(),
                    })
                    .unwrap();
                Some(Err(error))
            } else {
                spill.put(&key, &body(id)).unwrap();
                journal
                    .append(&Record::Complete {
                        id,
                        key: key.clone(),
                        body: None,
                    })
                    .unwrap();
                Some(Ok(None))
            }
        };
        live.push(JobRecord {
            id,
            key,
            priority: Priority::Normal,
            deadline_ms: None,
            config,
            outcome,
        });
        over_threshold += u32::from(journal.bytes() > COMPACT_THRESHOLD_BYTES);
        if journal.wants_compaction() {
            journal.compact(&compaction_records(id + 1, &live)).unwrap();
            compactions += 1;
        }
    }
    assert!(
        over_threshold > 150,
        "only {over_threshold} jobs ended over the threshold"
    );
    // The live set grows from 256 KiB to ~1.6 MiB: one compaction per
    // doubling, not one per job.
    assert!(
        (2..=4).contains(&compactions),
        "{compactions} compactions for {over_threshold} jobs over the threshold"
    );
    drop(journal);

    let (_, recovery) = Journal::recover(&path).unwrap();
    assert_eq!(recovery.discarded_bytes, 0);
    assert_eq!(recovery.next_id, JOBS + 1);
    assert_eq!(recovery.jobs.len(), live.len());
    for (got, want) in recovery.jobs.iter().zip(&live) {
        assert_eq!(got.id, want.id);
        assert_eq!(got.key, want.key);
        assert_eq!(got.config, want.config);
        assert_eq!(got.outcome, want.outcome, "job {}", want.id);
        if got.outcome == Some(Ok(None)) {
            assert_eq!(spill.get(&got.key), Some(body(got.id)), "job {}", got.id);
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// A trace is recorded by the process that accepted the job: a job
/// restored from the journal has none, while a job submitted after the
/// restart traces every span from `parse` to `execute`.
#[test]
fn restored_jobs_have_no_trace_and_new_jobs_trace_every_span() {
    let dir = scratch("trace");
    let (_, canonical, key) = canonical_sim(9004);
    {
        let mut journal = Journal::open(&dir.join("jobs.journal")).unwrap();
        journal
            .append(&Record::Submit {
                id: 1,
                key: key.clone(),
                priority: Priority::Normal,
                deadline_ms: None,
                config: canonical,
            })
            .unwrap();
        journal
            .append(&Record::Complete {
                id: 1,
                key,
                body: Some(r#"{"restored":true}"#.to_string()),
            })
            .unwrap();
    }
    let server = Server::bind(serve_config(&dir)).expect("bind over the journal");
    let addr = server.local_addr();
    let handle = server.handle();
    let join = std::thread::spawn(move || server.run().expect("run"));

    assert_eq!(poll_result(addr, 1).0, 200, "job 1 restored");
    let (status, _, body) = call(addr, "GET", "/v1/jobs/1/trace", "");
    assert_eq!(status, 404, "{body}");
    assert!(body.contains("no trace recorded"), "{body}");

    let (request_json, _, _) = canonical_sim(9005);
    let (status, _, accepted) = call(addr, "POST", "/v1/simulate", &request_json);
    assert_eq!(status, 202, "{accepted}");
    let accepted: serde_json::Value = serde_json::from_str(&accepted).unwrap();
    let id = accepted["job"].as_u64().expect("job id");
    assert_eq!(poll_result(addr, id).0, 200);
    let (status, _, body) = call(addr, "GET", &format!("/v1/jobs/{id}/trace"), "");
    assert_eq!(status, 200, "{body}");
    let tree: serde_json::Value = serde_json::from_str(&body).unwrap();
    let closed: Vec<&str> = tree["spans"]["children"]
        .as_array()
        .expect("children")
        .iter()
        .filter(|span| span["duration_us"].as_u64().is_some())
        .filter_map(|span| span["name"].as_str())
        .collect();
    assert_eq!(
        closed,
        [
            "parse",
            "cache_lookup",
            "journal_append",
            "queue_wait",
            "execute"
        ],
        "{body}"
    );

    handle.shutdown();
    join.join().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}
