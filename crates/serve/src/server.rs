//! The HTTP front end: a nonblocking accept loop, a small pool of
//! connection threads, routing, and the graceful-drain protocol.
//!
//! ```text
//! POST   /jobs              submit a job spec            202 | 400 | 429 | 503
//! GET    /jobs              list all jobs                200
//! GET    /jobs/{id}         state + live phase metrics   200 | 404
//! GET    /jobs/{id}/front   final front (JSON)           200 | 404 | 409
//! GET    /jobs/{id}/trace   convergence trace (JSON)     200 | 404 | 409
//! GET    /jobs/{id}/events  telemetry JSONL stream       200 | 404
//! GET    /jobs/{id}/report  run-analysis report (JSON)   200 | 404 | 409 | 501
//! DELETE /jobs/{id}         cancel                       200 | 404 | 409
//! GET    /healthz           liveness probe (always 200)  200
//! GET    /readyz            readiness probe              200 | 503
//! GET    /metrics           server counters (JSON, or
//!                           Prometheus text with
//!                           ?format=prometheus or
//!                           Accept: text/plain)          200
//! POST   /shutdown          graceful drain, then exit 0  200
//! ```
//!
//! Liveness and readiness are deliberately split: `/healthz` answers
//! 200 as long as the process can serve HTTP at all (its body reports
//! `ready`/`disk_degraded` for observers), while `/readyz` turns 503
//! when the server is draining or the disk-health latch is set — a load
//! balancer should stop routing new submissions, but the process should
//! not be killed while it is still retrying jobs and serving reads.
//!
//! Every response carries `Connection: close`; every socket gets read
//! and write timeouts before a byte is parsed, so a stalled client can
//! never pin a connection thread. When all connection threads are busy
//! the accept loop answers a canned 503 inline instead of queueing
//! sockets without bound.

use std::io::ErrorKind;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender, TrySendError};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use moela_persist::{decode, Value};

use crate::error::ApiError;
use crate::http::{read_request, HttpError, Request, Response};
use crate::job::{JobRecord, JobState};
use crate::lock::lock;
use crate::manager::JobManager;
use crate::metrics::ServerMetrics;
use crate::runner::JobRunner;
use crate::supervise::SupervisePolicy;

/// Builds the run-analysis report for one finished job's run directory
/// (the `GET /jobs/{id}/report` body). Injected by the embedding binary
/// — the analysis lives above this crate — so the server stays free of
/// optimizer knowledge. Returns `Err` with a human-readable reason when
/// the run is not analyzable yet (mapped to 409).
#[derive(Clone)]
pub struct ReportBuilder(Arc<ReportFn>);

/// The closure shape behind [`ReportBuilder`].
type ReportFn = dyn Fn(&std::path::Path) -> Result<Value, String> + Send + Sync;

impl ReportBuilder {
    /// Wraps a report-building closure.
    pub fn new(
        f: impl Fn(&std::path::Path) -> Result<Value, String> + Send + Sync + 'static,
    ) -> Self {
        ReportBuilder(Arc::new(f))
    }

    /// Builds the report for `dir`.
    pub fn build(&self, dir: &std::path::Path) -> Result<Value, String> {
        (self.0)(dir)
    }
}

impl std::fmt::Debug for ReportBuilder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("ReportBuilder(..)")
    }
}

/// Server tunables; every field has a sensible default via
/// [`ServeConfig::new`].
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Listen address, e.g. `127.0.0.1:7774` (port 0 for ephemeral).
    pub addr: String,
    /// Run-worker pool size (concurrent optimizer runs).
    pub workers: usize,
    /// Bounded submission-queue depth; beyond it, submissions get 429.
    pub queue_depth: usize,
    /// Directory that holds one `RunStore` per job.
    pub run_root: PathBuf,
    /// Connection-thread pool size.
    pub http_threads: usize,
    /// Socket read timeout (covers request parsing).
    pub read_timeout: Duration,
    /// Socket write timeout (covers response delivery).
    pub write_timeout: Duration,
    /// Request-body cap in bytes.
    pub max_body: usize,
    /// Job supervision: retry budget/backoff, stall detection, deadlines.
    pub supervise: SupervisePolicy,
    /// Optional run-analysis hook behind `GET /jobs/{id}/report`
    /// (absent → 501).
    pub report_builder: Option<ReportBuilder>,
}

impl ServeConfig {
    /// Defaults for everything except the address and run root.
    pub fn new(addr: impl Into<String>, run_root: impl Into<PathBuf>) -> Self {
        ServeConfig {
            addr: addr.into(),
            workers: 2,
            queue_depth: 16,
            run_root: run_root.into(),
            http_threads: 4,
            read_timeout: Duration::from_secs(10),
            write_timeout: Duration::from_secs(10),
            max_body: 256 * 1024,
            supervise: SupervisePolicy::default(),
            report_builder: None,
        }
    }
}

/// Shared state every connection thread sees.
struct ServerState {
    manager: Arc<JobManager>,
    metrics: Arc<ServerMetrics>,
    shutdown: AtomicBool,
    config: ServeConfig,
}

/// A bound, not-yet-serving job server.
pub struct Server {
    listener: TcpListener,
    state: Arc<ServerState>,
}

impl Server {
    /// Binds the listener, recovers jobs left in `run_root`, and starts
    /// the run-worker pool. No HTTP traffic is served until
    /// [`Server::run`].
    pub fn bind(config: ServeConfig, runner: Arc<dyn JobRunner>) -> std::io::Result<Self> {
        let listener = TcpListener::bind(&config.addr)?;
        let metrics = Arc::new(ServerMetrics::new());
        let manager = JobManager::start(
            config.run_root.clone(),
            config.queue_depth,
            config.workers,
            config.supervise.clone(),
            runner,
            Arc::clone(&metrics),
        )?;
        Ok(Server {
            listener,
            state: Arc::new(ServerState {
                manager,
                metrics,
                shutdown: AtomicBool::new(false),
                config,
            }),
        })
    }

    /// The bound address (the real port when the config asked for 0).
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Serves until a `POST /shutdown` drain completes. On return every
    /// running job has been parked at a checkpoint and the run-worker
    /// pool has exited; the caller can exit 0.
    pub fn run(self) -> std::io::Result<()> {
        self.listener.set_nonblocking(true)?;
        let pool_size = self.state.config.http_threads.max(1);
        let (tx, handles) = spawn_http_pool(Arc::clone(&self.state), pool_size);

        while !self.state.shutdown.load(Ordering::SeqCst) {
            match self.listener.accept() {
                Ok((stream, _)) => match tx.try_send(stream) {
                    Ok(()) => {}
                    Err(TrySendError::Full(mut stream)) => {
                        // All connection threads busy: refuse inline so
                        // pending sockets never accumulate.
                        ServerMetrics::bump(&self.state.metrics.http_rejected);
                        let _ = stream.set_write_timeout(Some(Duration::from_secs(1)));
                        let _ = ApiError::new(503, "busy", "all connection threads busy")
                            .response()
                            .with_header("Retry-After", "1".into())
                            .write_to(&mut stream);
                    }
                    Err(TrySendError::Disconnected(_)) => break,
                },
                Err(e) if e.kind() == ErrorKind::WouldBlock => {
                    std::thread::sleep(Duration::from_millis(25));
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }

        // Stop accepting, let in-flight connections finish, then drain
        // the run workers (parking every running job at a checkpoint).
        drop(tx);
        for handle in handles {
            let _ = handle.join();
        }
        self.state.manager.drain();
        Ok(())
    }
}

/// Starts the connection-thread pool over a bounded channel; the bound
/// is what turns an overloaded pool into inline 503s.
fn spawn_http_pool(
    state: Arc<ServerState>,
    pool_size: usize,
) -> (SyncSender<TcpStream>, Vec<std::thread::JoinHandle<()>>) {
    let (tx, rx) = sync_channel::<TcpStream>(pool_size);
    let rx = Arc::new(Mutex::new(rx));
    let mut handles = Vec::with_capacity(pool_size);
    for n in 0..pool_size {
        let rx = Arc::clone(&rx);
        let state = Arc::clone(&state);
        handles.push(
            std::thread::Builder::new()
                .name(format!("moela-http-{n}"))
                .spawn(move || loop {
                    let stream = {
                        let guard: std::sync::MutexGuard<'_, Receiver<TcpStream>> = lock(&rx);
                        guard.recv()
                    };
                    match stream {
                        Ok(stream) => handle_connection(&state, stream),
                        Err(_) => return,
                    }
                })
                .expect("spawn http worker"),
        );
    }
    (tx, handles)
}

/// Parses one request off `stream`, routes it, writes the response.
fn handle_connection(state: &ServerState, mut stream: TcpStream) {
    let _ = stream.set_read_timeout(Some(state.config.read_timeout));
    let _ = stream.set_write_timeout(Some(state.config.write_timeout));
    let response = match read_request(&mut stream, state.config.max_body) {
        Ok(request) => {
            ServerMetrics::bump(&state.metrics.http_requests);
            if request.method == "GET"
                && request.path.starts_with("/jobs/")
                && request.path.ends_with("/events")
            {
                stream_events(state, &request, &mut stream);
                return;
            }
            route(state, &request).unwrap_or_else(|e| e.response())
        }
        Err(HttpError::Disconnected) => return,
        Err(e) => {
            ServerMetrics::bump(&state.metrics.http_rejected);
            match e {
                HttpError::Timeout => {
                    ApiError::new(408, "timeout", "request not received in time").response()
                }
                HttpError::TooLarge(msg) => ApiError::new(413, "too_large", msg).response(),
                HttpError::Malformed(msg) => ApiError::new(400, "malformed", msg).response(),
                HttpError::Disconnected => unreachable!("handled above"),
            }
        }
    };
    let _ = response.write_to(&mut stream);
}

/// Dispatches one parsed request.
fn route(state: &ServerState, req: &Request) -> Result<Response, ApiError> {
    let segments: Vec<&str> = req.path.split('/').filter(|s| !s.is_empty()).collect();
    match (req.method.as_str(), segments.as_slice()) {
        // Liveness: always 200 while the process can answer HTTP; the
        // body carries the readiness detail for observers.
        ("GET", ["healthz"]) => {
            let draining = state.shutdown.load(Ordering::SeqCst);
            let degraded = state.metrics.is_disk_degraded();
            Ok(Response::json(
                200,
                &Value::object(vec![
                    ("ok", Value::Bool(!draining && !degraded)),
                    ("live", Value::Bool(true)),
                    ("ready", Value::Bool(!draining && !degraded)),
                    ("draining", Value::Bool(draining)),
                    ("disk_degraded", Value::Bool(degraded)),
                ]),
            ))
        }
        // Readiness: 503 while draining or disk-degraded so a load
        // balancer stops sending new work — without killing the process.
        ("GET", ["readyz"]) => {
            let draining = state.shutdown.load(Ordering::SeqCst);
            let degraded = state.metrics.is_disk_degraded();
            let ready = !draining && !degraded;
            Ok(Response::json(
                if ready { 200 } else { 503 },
                &Value::object(vec![
                    ("ready", Value::Bool(ready)),
                    ("draining", Value::Bool(draining)),
                    ("disk_degraded", Value::Bool(degraded)),
                ]),
            ))
        }
        ("GET", ["metrics"]) => {
            // Content negotiation: JSON stays the default so existing
            // scrapers are untouched; `?format=prometheus` (or an
            // `Accept: text/plain` scraper) gets the text exposition.
            let wants_text = req.query_param("format") == Some("prometheus")
                || req.header("accept").is_some_and(|a| a.contains("text/plain"));
            if wants_text {
                Ok(Response::prometheus(200, state.metrics.to_prometheus()))
            } else {
                Ok(Response::json(200, &state.metrics.to_value()))
            }
        }
        ("POST", ["shutdown"]) => {
            state.shutdown.store(true, Ordering::SeqCst);
            Ok(Response::json(200, &Value::object(vec![("draining", Value::Bool(true))])))
        }
        ("POST", ["jobs"]) => {
            let spec = decode_body(&req.body)?;
            match state.manager.submit(&spec) {
                Ok(record) => Ok(Response::json(202, &record.to_value(true))),
                // A full queue is transient: tell the client when to retry.
                Err(e) if e.status == 429 => {
                    Ok(e.response().with_header("Retry-After", "1".into()))
                }
                Err(e) => Err(e),
            }
        }
        ("GET", ["jobs"]) => {
            let jobs: Vec<Value> = state.manager.list().iter().map(|r| r.to_value(false)).collect();
            Ok(Response::json(200, &Value::object(vec![("jobs", Value::Array(jobs))])))
        }
        ("GET", ["jobs", id]) => {
            let record = lookup(state, id)?;
            Ok(Response::json(200, &record.to_value(true)))
        }
        ("DELETE", ["jobs", id]) => {
            let record = state.manager.cancel(id)?;
            Ok(Response::json(200, &record.to_value(true)))
        }
        ("GET", ["jobs", id, "front"]) => artifact(state, id, "front.json"),
        ("GET", ["jobs", id, "trace"]) => artifact(state, id, "trace.json"),
        ("GET", ["jobs", id, "report"]) => {
            let record = lookup(state, id)?;
            let Some(builder) = &state.config.report_builder else {
                return Err(ApiError::new(
                    501,
                    "not_implemented",
                    "this server was started without a report builder",
                ));
            };
            match builder.build(&record.dir) {
                Ok(report) => Ok(Response::json(200, &report)),
                // The run is still producing artifacts (or crashed
                // before finishing): same contract as /front and /trace.
                Err(reason) => Err(ApiError::new(
                    409,
                    "not_ready",
                    format!("job {id} is {}; {reason}", record.state().name()),
                )),
            }
        }
        (_, ["healthz" | "readyz" | "metrics" | "shutdown" | "jobs", ..]) => Err(ApiError::new(
            405,
            "method_not_allowed",
            format!("{} is not supported on {}", req.method, req.path),
        )),
        _ => Err(ApiError::not_found(format!("no route for {}", req.path))),
    }
}

/// Looks up a job or 404s.
fn lookup(state: &ServerState, id: &str) -> Result<Arc<JobRecord>, ApiError> {
    state.manager.get(id).ok_or_else(|| ApiError::not_found(format!("no job {id}")))
}

/// Serves a finished job's JSON artifact straight off disk.
fn artifact(state: &ServerState, id: &str, file: &str) -> Result<Response, ApiError> {
    let record = lookup(state, id)?;
    let path = record.dir.join(file);
    match std::fs::read(&path) {
        Ok(bytes) => Ok(Response::json_bytes(200, bytes)),
        Err(_) => Err(ApiError::new(
            409,
            "not_ready",
            format!("job {id} is {}; {file} is not available yet", record.state().name()),
        )),
    }
}

/// Parses a request body as JSON.
fn decode_body(body: &[u8]) -> Result<Value, ApiError> {
    let text = std::str::from_utf8(body)
        .map_err(|_| ApiError::bad_request("request body is not UTF-8"))?;
    decode::from_str(text).map_err(|e| ApiError::bad_request(format!("invalid JSON body: {e}")))
}

/// Streams `events.jsonl` as newline-delimited JSON, following the file
/// until the job leaves the queued/running states (or the server starts
/// draining). The body is close-delimited — no `Content-Length` — which
/// is the one legal way to stream without chunked encoding.
fn stream_events(state: &ServerState, req: &Request, stream: &mut TcpStream) {
    use std::io::Write;

    let segments: Vec<&str> = req.path.split('/').filter(|s| !s.is_empty()).collect();
    let id = segments.get(1).copied().unwrap_or_default();
    let record = match state.manager.get(id) {
        Some(record) => record,
        None => {
            let _ = ApiError::not_found(format!("no job {id}")).response().write_to(stream);
            return;
        }
    };
    let head = "HTTP/1.1 200 OK\r\nContent-Type: application/x-ndjson\r\nConnection: close\r\n\r\n";
    if stream.write_all(head.as_bytes()).is_err() {
        return;
    }
    let path = record.dir.join("events.jsonl");
    let mut offset: u64 = 0;
    loop {
        if let Ok(bytes) = std::fs::read(&path) {
            if (bytes.len() as u64) > offset {
                let fresh = &bytes[offset as usize..];
                if stream.write_all(fresh).is_err() {
                    return; // client went away
                }
                let _ = stream.flush();
                offset = bytes.len() as u64;
            }
        }
        let live =
            matches!(record.state(), JobState::Queued | JobState::Running | JobState::Stalled);
        if !live || state.shutdown.load(Ordering::SeqCst) {
            return;
        }
        std::thread::sleep(Duration::from_millis(50));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::{JobContext, RunError, RunOutcome};
    use moela_persist::RunStore;
    use std::io::{Read, Write};

    /// A runner that writes a front.json + an events line, then polls
    /// its cancel token for `steps` ticks (beating the heartbeat).
    struct StubRunner {
        steps: u64,
    }

    impl JobRunner for StubRunner {
        fn validate(&self, spec: &Value) -> Result<Value, String> {
            if spec.field_opt("algorithm").is_none() {
                return Err("spec needs an algorithm".into());
            }
            Ok(spec.clone())
        }

        fn run(&self, ctx: JobContext<'_>) -> Result<RunOutcome, RunError> {
            let store = RunStore::create(ctx.dir).map_err(|e| RunError::disk(e.to_string()))?;
            std::fs::write(store.events_path(), "{\"event\":\"started\"}\n")
                .map_err(|e| RunError::disk(e.to_string()))?;
            for _ in 0..self.steps {
                ctx.heartbeat.beat();
                if ctx.cancel.is_cancelled() {
                    return Ok(RunOutcome::Interrupted);
                }
                std::thread::sleep(Duration::from_millis(5));
            }
            let front = Value::object(vec![(
                "objectives",
                Value::Array(vec![Value::Array(vec![Value::F64(1.0), Value::F64(2.0)])]),
            )]);
            std::fs::write(store.front_json_path(), moela_persist::encode::to_string(&front))
                .map_err(|e| RunError::disk(e.to_string()))?;
            Ok(RunOutcome::Completed {
                summary: Value::object(vec![("evaluations", Value::U64(42))]),
            })
        }
    }

    /// Spawns a server on an ephemeral port; returns its address and the
    /// thread driving `run()`.
    fn serve(tag: &str, steps: u64, workers: usize, depth: usize) -> TestServer {
        let root =
            std::env::temp_dir().join(format!("moela-serve-http-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let mut config = ServeConfig::new("127.0.0.1:0", &root);
        config.workers = workers;
        config.queue_depth = depth;
        let server = Server::bind(config, Arc::new(StubRunner { steps })).expect("bind");
        let addr = server.local_addr().expect("addr");
        let handle = std::thread::spawn(move || server.run());
        TestServer { addr, handle, root }
    }

    struct TestServer {
        addr: SocketAddr,
        handle: std::thread::JoinHandle<std::io::Result<()>>,
        root: PathBuf,
    }

    impl TestServer {
        /// Sends one request, returns (status, body).
        fn call(&self, method: &str, path: &str, body: &str) -> (u16, String) {
            let mut stream = TcpStream::connect(self.addr).expect("connect");
            stream.set_read_timeout(Some(Duration::from_secs(10))).expect("timeout");
            let req = format!(
                "{method} {path} HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n{body}",
                body.len()
            );
            // The server may respond and close before the whole body is
            // written (oversized-body rejection), which surfaces here as
            // a broken pipe / reset; the response is still readable.
            let _ = stream.write_all(req.as_bytes());
            let mut raw = String::new();
            let mut buf = [0u8; 4096];
            loop {
                match stream.read(&mut buf) {
                    Ok(0) => break,
                    Ok(n) => raw.push_str(&String::from_utf8_lossy(&buf[..n])),
                    Err(_) if !raw.is_empty() => break,
                    Err(e) => panic!("recv: {e}"),
                }
            }
            let status: u16 = raw.split(' ').nth(1).and_then(|s| s.parse().ok()).expect("status");
            let body = raw.split("\r\n\r\n").nth(1).unwrap_or_default().to_owned();
            (status, body)
        }

        fn poll_until(&self, id: &str, state: &str) -> String {
            for _ in 0..600 {
                let (status, body) = self.call("GET", &format!("/jobs/{id}"), "");
                assert_eq!(status, 200, "{body}");
                if body.contains(&format!("\"state\":\"{state}\"")) {
                    return body;
                }
                std::thread::sleep(Duration::from_millis(5));
            }
            panic!("job {id} never reached {state}");
        }

        fn shutdown(self) {
            let (status, _) = self.call("POST", "/shutdown", "");
            assert_eq!(status, 200);
            self.handle.join().expect("server thread").expect("clean exit");
        }
    }

    #[test]
    fn health_metrics_and_unknown_routes() {
        let server = serve("basic", 1, 1, 4);
        let (status, body) = server.call("GET", "/healthz", "");
        assert_eq!(status, 200);
        assert!(body.contains("\"ok\":true"), "{body}");
        assert!(body.contains("\"live\":true"), "{body}");
        assert!(body.contains("\"disk_degraded\":false"), "{body}");
        let (status, body) = server.call("GET", "/readyz", "");
        assert_eq!(status, 200);
        assert!(body.contains("\"ready\":true"), "{body}");
        let (status, body) = server.call("GET", "/metrics", "");
        assert_eq!(status, 200);
        assert!(body.contains("\"jobs_submitted\":0"), "{body}");
        assert!(body.contains("\"jobs_quarantined\":0"), "{body}");
        let (status, body) = server.call("GET", "/nope", "");
        assert_eq!(status, 404);
        assert!(body.contains("\"code\":\"not_found\""), "{body}");
        let (status, body) = server.call("PUT", "/jobs", "");
        assert_eq!(status, 405, "{body}");
        server.shutdown();
    }

    #[test]
    fn metrics_exposes_prometheus_text_on_request() {
        let server = serve("prom", 1, 1, 4);
        let (status, body) = server.call("GET", "/metrics?format=prometheus", "");
        assert_eq!(status, 200);
        assert!(body.contains("# TYPE moela_serve_http_requests counter"), "{body}");
        assert!(body.contains("moela_serve_jobs_submitted 0"), "{body}");
        assert!(body.contains("moela_serve_disk_degraded 0"), "{body}");
        // The JSON default is untouched for existing scrapers.
        let (status, body) = server.call("GET", "/metrics", "");
        assert_eq!(status, 200);
        assert!(body.starts_with('{'), "{body}");
        assert!(body.contains("\"jobs_submitted\""), "{body}");
        server.shutdown();
    }

    #[test]
    fn report_route_uses_the_injected_builder() {
        let root =
            std::env::temp_dir().join(format!("moela-serve-http-report-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let mut config = ServeConfig::new("127.0.0.1:0", &root);
        config.workers = 1;
        config.report_builder = Some(ReportBuilder::new(|dir| {
            if dir.join("front.json").is_file() {
                Ok(Value::object(vec![("report", Value::Bool(true))]))
            } else {
                Err("the run has not finished".into())
            }
        }));
        let server = Server::bind(config, Arc::new(StubRunner { steps: 200 })).expect("bind");
        let addr = server.local_addr().expect("addr");
        let handle = std::thread::spawn(move || server.run());
        let server = TestServer { addr, handle, root };
        let (status, _) = server.call("POST", "/jobs", "{\"algorithm\":\"stub\"}");
        assert_eq!(status, 202);
        // ~1s of stub steps remain, so the report cannot be ready yet.
        let (status, body) = server.call("GET", "/jobs/job-000000/report", "");
        assert_eq!(status, 409, "{body}");
        assert!(body.contains("\"code\":\"not_ready\""), "{body}");
        server.poll_until("job-000000", "done");
        let (status, body) = server.call("GET", "/jobs/job-000000/report", "");
        assert_eq!(status, 200, "{body}");
        assert!(body.contains("\"report\":true"), "{body}");
        let (status, _) = server.call("GET", "/jobs/job-999999/report", "");
        assert_eq!(status, 404);
        server.shutdown();
    }

    #[test]
    fn report_route_without_a_builder_is_501() {
        let server = serve("noreport", 1, 1, 4);
        let (status, _) = server.call("POST", "/jobs", "{\"algorithm\":\"stub\"}");
        assert_eq!(status, 202);
        server.poll_until("job-000000", "done");
        let (status, body) = server.call("GET", "/jobs/job-000000/report", "");
        assert_eq!(status, 501, "{body}");
        assert!(body.contains("\"code\":\"not_implemented\""), "{body}");
        server.shutdown();
    }

    #[test]
    fn submit_poll_and_fetch_artifacts() {
        let server = serve("lifecycle", 2, 1, 4);
        let (status, body) = server.call("POST", "/jobs", "{\"algorithm\":\"stub\"}");
        assert_eq!(status, 202, "{body}");
        assert!(body.contains("\"id\":\"job-000000\""), "{body}");
        // The artifact is not there until the run completes.
        let (status, body) = server.call("GET", "/jobs/job-000000/front", "");
        if status != 200 {
            assert_eq!(status, 409, "{body}");
        }
        let body = server.poll_until("job-000000", "done");
        assert!(body.contains("\"summary\":{\"evaluations\":42}"), "{body}");
        let (status, body) = server.call("GET", "/jobs/job-000000/front", "");
        assert_eq!(status, 200);
        assert!(body.contains("\"objectives\":[[1.0,2.0]]"), "{body}");
        let (status, body) = server.call("GET", "/jobs/job-000000/events", "");
        assert_eq!(status, 200);
        assert!(body.contains("\"event\":\"started\""), "{body}");
        let (status, body) = server.call("GET", "/jobs", "");
        assert_eq!(status, 200);
        assert!(body.contains("\"jobs\":[{"), "{body}");
        let (status, _) = server.call("GET", "/jobs/job-999999", "");
        assert_eq!(status, 404);
        server.shutdown();
    }

    #[test]
    fn bad_specs_and_bodies_are_rejected() {
        let server = serve("reject", 1, 1, 4);
        let (status, body) = server.call("POST", "/jobs", "{\"population\":8}");
        assert_eq!(status, 400);
        assert!(body.contains("\"code\":\"invalid_spec\""), "{body}");
        let (status, body) = server.call("POST", "/jobs", "not json");
        assert_eq!(status, 400, "{body}");
        let huge = "x".repeat(300 * 1024);
        let (status, body) = server.call("POST", "/jobs", &huge);
        assert_eq!(status, 413, "{body}");
        server.shutdown();
    }

    #[test]
    fn full_queue_returns_429_with_retry_after() {
        let server = serve("backpressure", 100_000, 1, 1);
        let (status, _) = server.call("POST", "/jobs", "{\"algorithm\":\"stub\"}");
        assert_eq!(status, 202);
        server.poll_until("job-000000", "running");
        let (status, _) = server.call("POST", "/jobs", "{\"algorithm\":\"stub\"}");
        assert_eq!(status, 202);
        let mut stream = TcpStream::connect(server.addr).expect("connect");
        stream.set_read_timeout(Some(Duration::from_secs(10))).expect("timeout");
        let body = "{\"algorithm\":\"stub\"}";
        stream
            .write_all(
                format!(
                    "POST /jobs HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n{body}",
                    body.len()
                )
                .as_bytes(),
            )
            .expect("send");
        let mut raw = String::new();
        stream.read_to_string(&mut raw).expect("recv");
        assert!(raw.starts_with("HTTP/1.1 429 "), "{raw}");
        assert!(raw.contains("Retry-After: 1\r\n"), "{raw}");
        assert!(raw.contains("\"code\":\"queue_full\""), "{raw}");
        // Cancel the running job so shutdown is prompt.
        let (status, _) = server.call("DELETE", "/jobs/job-000000", "");
        assert_eq!(status, 200);
        server.poll_until("job-000000", "cancelled");
        server.shutdown();
    }

    #[test]
    fn shutdown_drains_running_jobs_to_interrupted() {
        let server = serve("drain", 100_000, 1, 4);
        let (status, _) = server.call("POST", "/jobs", "{\"algorithm\":\"stub\"}");
        assert_eq!(status, 202);
        server.poll_until("job-000000", "running");
        let root = server.root.clone();
        server.shutdown();
        let manifest = std::fs::read_to_string(root.join("job-000000").join("job.json"))
            .expect("job.json survives the drain");
        assert!(manifest.contains("\"state\":\"interrupted\""), "{manifest}");
    }
}
