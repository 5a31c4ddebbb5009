//! Crash-recovery end-to-end test through the real `icn` binary:
//! `kill -9` a serving process with jobs in flight, restart it on the
//! same journal and result spill, and verify nothing was lost — every
//! job reaches a terminal state exactly once, results completed before
//! the crash come back byte-identical without re-running, and a re-POST
//! of a recovered configuration is answered from the cache. It runs with
//! `--journal` and `--cache-dir` together, and with `--journal` alone,
//! where the spill lives beside the journal.

use std::io::{BufRead, BufReader, Read, Write};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// Spawn `icn serve` on an ephemeral port with the given durability
/// flags and return the child plus its bound address (from the banner).
/// The banner must name the spill directory in use.
fn spawn_serve(journal: &str, cache_dir: Option<&str>) -> (Child, String) {
    let mut args = vec![
        "serve",
        "--addr",
        "127.0.0.1:0",
        "--workers",
        "1",
        "--queue-depth",
        "16",
        "--cache-entries",
        "8",
        "--journal",
        journal,
    ];
    args.extend(cache_dir.iter().flat_map(|dir| ["--cache-dir", dir]));
    let mut child = Command::new(env!("CARGO_BIN_EXE_icn"))
        .args(&args)
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("serve starts");
    let mut reader = BufReader::new(child.stderr.take().unwrap());
    let mut banner = String::new();
    reader.read_line(&mut banner).unwrap();
    std::thread::spawn(move || {
        let mut sink = String::new();
        let _ = reader.read_to_string(&mut sink);
    });
    let addr = banner
        .split("http://")
        .nth(1)
        .unwrap_or_else(|| panic!("no address in banner: {banner}"))
        .split_whitespace()
        .next()
        .unwrap()
        .to_string();
    let spill = cache_dir.map_or_else(|| format!("{journal}.spill"), str::to_string);
    assert!(
        banner.contains(&format!("spill {spill})")),
        "banner names the spill: {banner}"
    );
    (child, addr)
}

/// One HTTP exchange (connection: close); returns the raw response.
fn call(addr: &str, method: &str, path: &str, body: &str) -> String {
    let mut stream = std::net::TcpStream::connect(addr).expect("server reachable");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    write!(
        stream,
        "{method} {path} HTTP/1.1\r\nhost: {addr}\r\ncontent-length: {}\r\n\r\n{body}",
        body.len()
    )
    .unwrap();
    let mut response = String::new();
    stream.read_to_string(&mut response).unwrap();
    response
}

/// The body half of a raw response.
fn body_of(response: &str) -> &str {
    response.split_once("\r\n\r\n").map_or("", |(_, body)| body)
}

/// Extract `"job":N` from an accepted-submission body.
fn job_id(response: &str) -> u64 {
    let body = body_of(response);
    let at = body
        .find("\"job\":")
        .unwrap_or_else(|| panic!("job id in {body}"));
    body[at + 6..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect::<String>()
        .parse()
        .expect("numeric job id")
}

/// Poll `/v1/jobs/:id` until the status is terminal; returns the label.
fn wait_terminal(addr: &str, id: u64) -> String {
    let started = Instant::now();
    loop {
        let response = call(addr, "GET", &format!("/v1/jobs/{id}"), "");
        assert!(
            response.starts_with("HTTP/1.1 200"),
            "job {id} must exist after recovery: {response}"
        );
        let body = body_of(&response);
        for label in ["done", "failed"] {
            if body.contains(&format!("\"status\":\"{label}\"")) {
                return label.to_string();
            }
        }
        assert!(
            started.elapsed() < Duration::from_secs(120),
            "job {id} never reached a terminal state: {body}"
        );
        std::thread::sleep(Duration::from_millis(25));
    }
}

fn sim_body(seed: u64, heavy: bool) -> String {
    if heavy {
        format!(
            r#"{{"ports":64,"load":0.9,"seed":{seed},"warmup_cycles":2000,"measure_cycles":150000,"drain_cycles":40000}}"#
        )
    } else {
        format!(
            r#"{{"ports":16,"load":0.02,"seed":{seed},"warmup_cycles":200,"measure_cycles":500,"drain_cycles":2000}}"#
        )
    }
}

#[test]
fn kill_dash_nine_loses_no_jobs_and_no_results() {
    let dir = std::env::temp_dir().join(format!("icn-cli-recovery-{}", std::process::id()));
    let with_cache_dir = dir.join("with-cache-dir");
    let cache_dir = with_cache_dir.join("cache").to_string_lossy().into_owned();
    // The two deployments share nothing on disk, so they run side by side.
    std::thread::scope(|scope| {
        scope.spawn(|| crash_and_restart(&with_cache_dir, Some(&cache_dir)));
        crash_and_restart(&dir.join("journal-only"), None);
    });
    let _ = std::fs::remove_dir_all(&dir);
}

/// One crash-restart scenario on a fresh `dir`.
fn crash_and_restart(dir: &std::path::Path, cache_dir: Option<&str>) {
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).unwrap();
    let journal = dir.join("jobs.journal").to_string_lossy().into_owned();

    // First life: one fast job driven to completion, then a backlog of
    // heavy jobs the single worker cannot finish before the kill.
    let (mut child, addr) = spawn_serve(&journal, cache_dir);
    let fast = sim_body(1, false);
    let accepted = call(&addr, "POST", "/v1/simulate", &fast);
    assert!(accepted.starts_with("HTTP/1.1 202"), "{accepted}");
    let fast_id = job_id(&accepted);
    wait_terminal(&addr, fast_id);
    let fast_result = body_of(&call(
        &addr,
        "GET",
        &format!("/v1/jobs/{fast_id}/result"),
        "",
    ))
    .to_string();
    assert!(fast_result.contains("\"delivered_total\""), "{fast_result}");

    let mut pending = Vec::new();
    for seed in 2..=5u64 {
        let accepted = call(&addr, "POST", "/v1/simulate", &sim_body(seed, true));
        assert!(accepted.starts_with("HTTP/1.1 202"), "{accepted}");
        pending.push(job_id(&accepted));
    }

    // SIGKILL with the backlog in flight: no drain, no goodbye.
    child.kill().expect("kill -9");
    child.wait().expect("child reaped");

    // Second life: same journal and spill.
    let (mut child2, addr2) = spawn_serve(&journal, cache_dir);

    // The pre-crash completed result is already terminal — served from
    // the journal + spill without re-running — and byte-identical.
    let status = call(&addr2, "GET", &format!("/v1/jobs/{fast_id}"), "");
    assert!(
        body_of(&status).contains("\"status\":\"done\""),
        "completed job must be done immediately after restart: {status}"
    );
    let replayed = body_of(&call(
        &addr2,
        "GET",
        &format!("/v1/jobs/{fast_id}/result"),
        "",
    ))
    .to_string();
    assert_eq!(replayed, fast_result, "recovered result byte-identical");

    // Re-POST of the recovered configuration: answered from the cache.
    let repost = call(&addr2, "POST", "/v1/simulate", &fast);
    assert!(repost.starts_with("HTTP/1.1 200"), "{repost}");
    assert!(repost.contains("x-icn-cache: hit"), "{repost}");
    assert_eq!(body_of(&repost), fast_result);

    // Every in-flight job reaches a terminal state exactly once: the ids
    // survived, and each re-runs to done (deterministic workloads).
    for id in &pending {
        assert_eq!(wait_terminal(&addr2, *id), "done", "job {id}");
    }
    // A second look at each job sees the same terminal state — nothing
    // re-enqueued them a second time.
    for id in &pending {
        let response = call(&addr2, "GET", &format!("/v1/jobs/{id}"), "");
        assert!(
            body_of(&response).contains("\"status\":\"done\""),
            "{response}"
        );
    }

    let bye = call(&addr2, "POST", "/v1/shutdown", "");
    assert!(bye.starts_with("HTTP/1.1 200"), "{bye}");
    child2.wait().expect("clean exit");
    let _ = std::fs::remove_dir_all(dir);
}
