//! End-to-end tests for `moela-dse serve` that drive the real binary
//! over real sockets.
//!
//! The contract under test is the serving tentpole: a job submitted
//! over HTTP must produce artifacts byte-identical to `moela-dse run`
//! with the same configuration — through completion, client cancel +
//! `resume`, a SIGKILL + restart, and a graceful drain + restart. The
//! chaos `slow` injector (200µs per evaluation, no faults) stretches
//! runs enough to hit them reliably mid-flight.

use std::fs;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Output, Stdio};
use std::time::{Duration, Instant};

const BIN: &str = env!("CARGO_BIN_EXE_moela-dse");

/// One run configuration, spelled both as `run` flags and as a job
/// spec, so the byte-identical comparison can't drift.
const ALGORITHM: &str = "nsga2";
const BUDGET: &str = "1000";
const POPULATION: &str = "8";
const SEED: &str = "7";
const CHAOS: &str = "slow=1";
const CHAOS_SEED: &str = "1";

fn spec_json() -> String {
    format!(
        "{{\"algorithm\":\"{ALGORITHM}\",\"budget\":{BUDGET},\"population\":{POPULATION},\
         \"seed\":{SEED},\"chaos\":\"{CHAOS}\",\"chaos_seed\":{CHAOS_SEED}}}"
    )
}

fn moela_dse(args: &[&str]) -> Output {
    Command::new(BIN).args(args).output().expect("spawn moela-dse")
}

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("moela-serve-test-{name}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn read(path: &Path) -> Vec<u8> {
    fs::read(path).unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()))
}

/// Runs the reference `moela-dse run` into `dir` and returns the dir.
fn reference_run(name: &str) -> PathBuf {
    let dir = scratch(name);
    let out = moela_dse(&[
        "run",
        "--algorithm",
        ALGORITHM,
        "--budget",
        BUDGET,
        "--population",
        POPULATION,
        "--seed",
        SEED,
        "--chaos",
        CHAOS,
        "--chaos-seed",
        CHAOS_SEED,
        "--log-level",
        "quiet",
        "--run-dir",
        dir.to_str().expect("utf-8 path"),
    ]);
    assert!(out.status.success(), "reference run failed: {}", String::from_utf8_lossy(&out.stderr));
    dir
}

/// A `moela-dse serve` process bound to an ephemeral port.
struct ServerProc {
    child: Child,
    addr: String,
    root: PathBuf,
}

impl ServerProc {
    fn start(tag: &str, root: &Path, workers: u32, queue_depth: u32) -> Self {
        let addr_file = std::env::temp_dir()
            .join(format!("moela-serve-addr-{tag}-{}-{workers}", std::process::id()));
        let _ = fs::remove_file(&addr_file);
        let child = Command::new(BIN)
            .args([
                "serve",
                "--addr",
                "127.0.0.1:0",
                "--addr-file",
                addr_file.to_str().expect("utf-8 path"),
                "--run-root",
                root.to_str().expect("utf-8 path"),
                "--workers",
                &workers.to_string(),
                "--queue-depth",
                &queue_depth.to_string(),
            ])
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .expect("spawn serve");
        let deadline = Instant::now() + Duration::from_secs(20);
        let addr = loop {
            if let Ok(text) = fs::read_to_string(&addr_file) {
                if !text.trim().is_empty() {
                    break text.trim().to_owned();
                }
            }
            assert!(Instant::now() < deadline, "server never wrote its address file");
            std::thread::sleep(Duration::from_millis(10));
        };
        let _ = fs::remove_file(&addr_file);
        ServerProc { child, addr, root: root.to_path_buf() }
    }

    /// Sends `POST /shutdown`, waits for a clean exit 0.
    fn shutdown(mut self) {
        let (status, _, _) = http(&self.addr, "POST", "/shutdown", None);
        assert_eq!(status, 200, "shutdown must be accepted");
        let deadline = Instant::now() + Duration::from_secs(60);
        loop {
            if let Some(code) = self.child.try_wait().expect("wait") {
                assert!(code.success(), "drained server must exit 0, got {code}");
                return;
            }
            assert!(Instant::now() < deadline, "server did not drain in time");
            std::thread::sleep(Duration::from_millis(20));
        }
    }

    fn kill(mut self) {
        self.child.kill().expect("kill serve");
        self.child.wait().expect("reap serve");
    }
}

/// A panicking test must not leak its server: a stray process keeps a
/// run-worker busy-looping and starves every later test. `shutdown`
/// and `kill` have already reaped the child by the time this runs, so
/// the kill here is a no-op on the happy path.
impl Drop for ServerProc {
    fn drop(&mut self) {
        if self.child.kill().is_ok() {
            let _ = self.child.wait();
        }
    }
}

/// One HTTP/1.1 request; returns (status, headers, body).
fn http(addr: &str, method: &str, path: &str, body: Option<&str>) -> (u16, String, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    let body = body.unwrap_or_default();
    let request = format!(
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(request.as_bytes()).expect("send request");
    let mut raw = String::new();
    stream.read_to_string(&mut raw).expect("read response");
    let status: u16 = raw
        .strip_prefix("HTTP/1.1 ")
        .and_then(|r| r.get(..3))
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("malformed response: {raw:?}"));
    let (head, payload) = raw.split_once("\r\n\r\n").unwrap_or((raw.as_str(), ""));
    (status, head.to_owned(), payload.to_owned())
}

/// Submits the shared spec; returns the job id.
fn submit(addr: &str) -> String {
    let (status, _, body) = http(addr, "POST", "/jobs", Some(&spec_json()));
    assert_eq!(status, 202, "submit must be accepted: {body}");
    extract_id(&body)
}

fn extract_id(body: &str) -> String {
    let rest = body.split("\"id\":\"").nth(1).unwrap_or_else(|| panic!("no id in {body}"));
    rest.split('"').next().expect("terminated id").to_owned()
}

fn job_state(addr: &str, id: &str) -> String {
    let (status, _, body) = http(addr, "GET", &format!("/jobs/{id}"), None);
    assert_eq!(status, 200, "job lookup failed: {body}");
    let rest = body.split("\"state\":\"").nth(1).unwrap_or_else(|| panic!("no state in {body}"));
    rest.split('"').next().expect("terminated state").to_owned()
}

/// Polls until the job reaches `want`, failing on any other terminal
/// state.
fn wait_for_state(addr: &str, id: &str, want: &str, timeout: Duration) {
    let deadline = Instant::now() + timeout;
    loop {
        let state = job_state(addr, id);
        if state == want {
            return;
        }
        if ["done", "failed", "cancelled", "quarantined", "deadline_exceeded"]
            .contains(&state.as_str())
        {
            let (_, _, body) = http(addr, "GET", &format!("/jobs/{id}"), None);
            panic!("job {id} reached terminal state '{state}' while waiting for '{want}': {body}");
        }
        assert!(Instant::now() < deadline, "timed out waiting for '{want}' (job {id}: {state})");
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// True when the job's `checkpoints/` dir holds a *completed*
/// `ckpt-*.json` file — an atomic-write `.tmp` sibling alone does not
/// count, so a kill landing mid-write is not mistaken for a parked
/// checkpoint.
fn has_checkpoint(job_dir: &Path) -> bool {
    fs::read_dir(job_dir.join("checkpoints"))
        .map(|entries| {
            entries.flatten().any(|entry| {
                let name = entry.file_name();
                let name = name.to_string_lossy();
                name.starts_with("ckpt-") && name.ends_with(".json")
            })
        })
        .unwrap_or(false)
}

/// The artifacts the byte-identical contract covers.
const ARTIFACTS: [&str; 4] = ["trace.csv", "front.csv", "trace.json", "front.json"];

fn assert_artifacts_match(reference: &Path, job_dir: &Path, context: &str) {
    for file in ARTIFACTS {
        assert_eq!(
            read(&reference.join(file)),
            read(&job_dir.join(file)),
            "{file} differs from the reference run after {context}"
        );
    }
}

#[test]
fn served_job_matches_cli_run_byte_for_byte() {
    let reference = reference_run("ref-complete");
    let root = scratch("root-complete");
    let server = ServerProc::start("complete", &root, 2, 4);

    let id = submit(&server.addr);
    wait_for_state(&server.addr, &id, "done", Duration::from_secs(120));

    // The front endpoint serves the finished front.json verbatim.
    let (status, _, body) = http(&server.addr, "GET", &format!("/jobs/{id}/front"), None);
    assert_eq!(status, 200);
    assert_eq!(body.as_bytes(), read(&reference.join("front.json")), "served front differs");
    let (status, _, body) = http(&server.addr, "GET", &format!("/jobs/{id}/trace"), None);
    assert_eq!(status, 200);
    assert_eq!(body.as_bytes(), read(&reference.join("trace.json")), "served trace differs");

    assert_artifacts_match(&reference, &server.root.join(&id), "a served run");

    // The listing and metrics reflect the completed job.
    let (status, _, body) = http(&server.addr, "GET", "/jobs", None);
    assert_eq!(status, 200);
    assert!(body.contains(&id), "listing must include {id}: {body}");
    let (status, _, body) = http(&server.addr, "GET", "/metrics", None);
    assert_eq!(status, 200);
    assert!(body.contains("\"jobs_completed\":1"), "metrics must count the job: {body}");

    server.shutdown();
    let _ = fs::remove_dir_all(&reference);
    let _ = fs::remove_dir_all(&root);
}

/// Counter blocks in `metrics.json` are per-job state, not process
/// state: two identical jobs served back-to-back by the same server
/// process must report byte-identical cache and fault counters, and
/// both must match a fresh one-shot CLI run. This pins the execute-entry
/// counter snapshot — without it, a job's metrics would absorb the
/// normalizer corpus fit and any earlier run sharing the process.
#[test]
fn sequential_jobs_report_isolated_per_job_counters() {
    let reference = reference_run("ref-counters");
    let root = scratch("root-counters");
    let server = ServerProc::start("counters", &root, 1, 4);

    let first = submit(&server.addr);
    wait_for_state(&server.addr, &first, "done", Duration::from_secs(120));
    let second = submit(&server.addr);
    wait_for_state(&server.addr, &second, "done", Duration::from_secs(120));
    server.shutdown();

    // Flat counter objects close at the first `}`, so substring
    // extraction is exact.
    let block = |dir: &Path, key: &str| -> String {
        let metrics = String::from_utf8(read(&dir.join("metrics.json"))).expect("utf-8 metrics");
        let tail = metrics
            .split(&format!("\"{key}\":{{"))
            .nth(1)
            .unwrap_or_else(|| panic!("metrics.json in {} lacks {key}", dir.display()));
        tail.split('}').next().expect("the object closes").to_owned()
    };
    for key in ["cache", "faults"] {
        let a = block(&root.join(&first), key);
        let b = block(&root.join(&second), key);
        assert_eq!(a, b, "{key} counters differ between identical sequential jobs");
        let r = block(&reference, key);
        assert_eq!(a, r, "served {key} counters differ from the one-shot CLI run's");
    }
    let _ = fs::remove_dir_all(&reference);
    let _ = fs::remove_dir_all(&root);
}

#[test]
fn full_queue_returns_429_with_retry_after() {
    let root = scratch("root-saturate");
    let server = ServerProc::start("saturate", &root, 1, 1);

    // One job occupies the single worker, one fills the single queue
    // slot; the third must be refused with backpressure.
    let first = submit(&server.addr);
    wait_for_state(&server.addr, &first, "running", Duration::from_secs(30));
    let _second = submit(&server.addr);
    let (status, head, body) = http(&server.addr, "POST", "/jobs", Some(&spec_json()));
    assert_eq!(status, 429, "a full queue must refuse: {body}");
    assert!(head.contains("Retry-After: 1"), "429 must carry Retry-After: {head}");
    assert!(body.contains("queue_full"), "{body}");

    server.shutdown();
    let _ = fs::remove_dir_all(&root);
}

#[test]
fn cancelled_job_leaves_a_resumable_run_store() {
    let reference = reference_run("ref-cancel");
    let root = scratch("root-cancel");
    let server = ServerProc::start("cancel", &root, 1, 4);

    let id = submit(&server.addr);
    wait_for_state(&server.addr, &id, "running", Duration::from_secs(30));
    let (status, _, body) = http(&server.addr, "DELETE", &format!("/jobs/{id}"), None);
    assert_eq!(status, 200, "cancel must be accepted: {body}");
    let deadline = Instant::now() + Duration::from_secs(60);
    while job_state(&server.addr, &id) != "cancelled" {
        assert!(Instant::now() < deadline, "job never reached cancelled");
        std::thread::sleep(Duration::from_millis(10));
    }
    // An unfinished front is a 409, not a panic or a stale file.
    let (status, _, body) = http(&server.addr, "GET", &format!("/jobs/{id}/front"), None);
    assert_eq!(status, 409, "cancelled jobs have no front yet: {body}");
    server.shutdown();

    // The parked run store resumes to the exact bytes of an
    // uninterrupted run.
    let job_dir = root.join(&id);
    assert!(job_dir.join("manifest.json").is_file(), "cancel must leave the manifest");
    assert!(has_checkpoint(&job_dir), "cancel must park at a written checkpoint");
    let out = moela_dse(&["resume", job_dir.to_str().expect("utf-8 path")]);
    assert!(
        out.status.success(),
        "resume of a cancelled job failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert_artifacts_match(&reference, &job_dir, "cancel + resume");
    let _ = fs::remove_dir_all(&reference);
    let _ = fs::remove_dir_all(&root);
}

#[test]
fn killed_server_resumes_the_job_on_restart_byte_identically() {
    let reference = reference_run("ref-kill");
    let root = scratch("root-kill");
    let server = ServerProc::start("kill", &root, 1, 4);

    let id = submit(&server.addr);
    wait_for_state(&server.addr, &id, "running", Duration::from_secs(30));
    // Wait for a real checkpoint so the restart exercises resume rather
    // than a fresh start.
    let job_dir = root.join(&id);
    let deadline = Instant::now() + Duration::from_secs(60);
    while !has_checkpoint(&job_dir) {
        assert!(Instant::now() < deadline, "no checkpoint appeared before the kill");
        std::thread::sleep(Duration::from_millis(5));
    }
    server.kill();

    let server = ServerProc::start("kill-restart", &root, 1, 4);
    let (status, _, body) = http(&server.addr, "GET", "/metrics", None);
    assert_eq!(status, 200);
    assert!(body.contains("\"jobs_recovered\":1"), "restart must rediscover the job: {body}");
    wait_for_state(&server.addr, &id, "done", Duration::from_secs(120));
    assert_artifacts_match(&reference, &job_dir, "a SIGKILL + restart");
    server.shutdown();
    let _ = fs::remove_dir_all(&reference);
    let _ = fs::remove_dir_all(&root);
}

#[test]
fn graceful_drain_parks_jobs_and_restart_finishes_them() {
    let reference = reference_run("ref-drain");
    let root = scratch("root-drain");
    let server = ServerProc::start("drain", &root, 1, 4);

    let id = submit(&server.addr);
    wait_for_state(&server.addr, &id, "running", Duration::from_secs(30));
    server.shutdown();

    // Drain checkpointed the run and recorded it as interrupted, not
    // cancelled: the client never asked for it to stop.
    let job_dir = root.join(&id);
    let job_json = String::from_utf8(read(&job_dir.join("job.json"))).expect("utf-8 job.json");
    assert!(job_json.contains("\"state\":\"interrupted\""), "drain must park the job: {job_json}");

    let server = ServerProc::start("drain-restart", &root, 1, 4);
    wait_for_state(&server.addr, &id, "done", Duration::from_secs(120));
    assert_artifacts_match(&reference, &job_dir, "a drain + restart");
    server.shutdown();
    let _ = fs::remove_dir_all(&reference);
    let _ = fs::remove_dir_all(&root);
}

/// A queued job whose `job.json` was written by an earlier build, with
/// the retired `"eval_cache":true` in its normalized spec, still runs
/// when a restarted server rediscovers it, and matches the CLI run.
#[test]
fn an_earlier_job_json_with_eval_cache_restores_on_restart() {
    let reference = reference_run("ref-earlier-job");
    let root = scratch("root-earlier-job");
    let job_dir = root.join("job-000000");
    fs::create_dir_all(&job_dir).expect("create the job dir");
    let job_json = format!(
        "{{\"format\":2,\"id\":\"job-000000\",\"seq\":0,\"state\":\"queued\",\"attempts\":0,\
         \"spec\":{{\"app\":\"BFS\",\"objectives\":3,\"algorithm\":\"{ALGORITHM}\",\
         \"budget\":{BUDGET},\"population\":{POPULATION},\"seed\":{SEED},\"threads\":1,\
         \"time_guard_secs\":600,\"checkpoint_every\":1,\"fault_policy\":\"fail\",\
         \"eval_retries\":0,\"eval_cache\":true,\"chaos\":\"{CHAOS}\",\
         \"chaos_seed\":{CHAOS_SEED}}},\"history\":[]}}"
    );
    fs::write(job_dir.join("job.json"), job_json).expect("write job.json");

    let server = ServerProc::start("earlier-job", &root, 1, 4);
    wait_for_state(&server.addr, "job-000000", "done", Duration::from_secs(120));
    assert_artifacts_match(&reference, &job_dir, "restoring an earlier job.json");
    server.shutdown();
    let _ = fs::remove_dir_all(&reference);
    let _ = fs::remove_dir_all(&root);
}
