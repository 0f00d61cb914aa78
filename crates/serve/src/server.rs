//! The `bbgnn-serve` server proper: accept loop, per-connection request
//! threads, and the worker pool that runs jobs on the scenario stack.
//!
//! ## Threading model
//!
//! * the **accept** thread hands each connection to its own short-lived
//!   connection thread, so a slow reader (or a long-lived SSE stream)
//!   never blocks other clients;
//! * each **connection** thread serves HTTP/1.1 requests back-to-back on
//!   one socket (keep-alive) until the client sends `Connection: close`,
//!   goes quiet past the read timeout, or the server drains;
//! * a **worker pool** of `--workers N` threads pops the FIFO queue and
//!   runs jobs concurrently. The pool splits the cores: a job's kernels
//!   run at `job_threads` — the spec's `threads` capped at the process
//!   thread count ([`env_threads`], i.e. `BBGNN_THREADS` or available
//!   parallelism), or for `threads: 0` the process count divided by
//!   `N`, at least 1 — so `N` concurrent jobs do not oversubscribe the
//!   cores. `GET /jobs/:id` reports the width a cold job ran at.
//!
//! [`env_threads`]: bbgnn_linalg::kernels::env_threads
//!
//! ## Per-job supervision
//!
//! Concurrency is safe because supervision is **scoped**: every job runs
//! inside its own [`SupervisionScope`](bbgnn_supervise::SupervisionScope)
//! (entered by `Job::run`, which also installs the spec's budget into
//! it), so `DELETE /jobs/:id`, a deadline, or an exhausted budget stops
//! exactly one job. The process-default supervision domain is left alone
//! — a SIGINT/SIGTERM through the shared handler still reaches every
//! running job and drains the whole server.

use crate::http::{self, ReadError, Request};
use crate::state::{JobPhase, JobRecord, Popped, Refused, ServerState};
use bbgnn_linalg::kernels::env_threads;
use bbgnn_linalg::ExecContext;
use bbgnn_scenario::job::{CellResult, Job, JobSpec};
use bbgnn_scenario::json::Json;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// How long a worker waits on the queue before re-checking for
/// drain/cancel conditions.
const WORKER_WAIT: Duration = Duration::from_millis(200);
/// Per-connection read timeout: a stalled client is dropped, the
/// connection thread exits. Doubles as the keep-alive idle timeout.
const READ_TIMEOUT: Duration = Duration::from_secs(10);
/// SSE tick: how often `/jobs/:id/events` re-snapshots the job.
const SSE_TICK: Duration = Duration::from_millis(150);

/// A running server: owns the accept thread and the worker pool.
///
/// Dropping the handle drains and joins the threads
/// ([`shutdown`](Server::shutdown) semantics), so a test that panics still
/// tears the server down.
pub struct Server {
    addr: SocketAddr,
    state: Arc<ServerState>,
    accept: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl Server {
    /// Binds `addr` (e.g. `127.0.0.1:8787`; port `0` picks a free port —
    /// read it back from [`addr`](Self::addr)) with a pool of `workers` job
    /// runners (clamped to ≥ 1). The queue admits at most `capacity`
    /// pending jobs.
    pub fn start(addr: &str, capacity: usize, workers: usize) -> std::io::Result<Server> {
        let workers = workers.max(1);
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let state = Arc::new(ServerState::new(capacity, workers));
        let pool = (0..workers)
            .map(|_| {
                let state = Arc::clone(&state);
                std::thread::spawn(move || worker_loop(&state))
            })
            .collect();
        let accept_state = Arc::clone(&state);
        let accept = std::thread::spawn(move || accept_loop(&listener, &accept_state));
        Ok(Server {
            addr,
            state,
            accept: Some(accept),
            workers: pool,
        })
    }

    /// The bound address (resolves port `0`).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Drains and joins: no new submissions, running jobs finish
    /// (shutdown is graceful, not lossy), queued jobs stay queued forever.
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    /// Blocks until the server stops on its own (`POST /shutdown`, or a
    /// SIGINT/SIGTERM routed through the supervision layer), then joins.
    pub fn wait(mut self) {
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
        self.stop_and_join();
    }

    fn stop_and_join(&mut self) {
        self.state.stop();
        // The accept thread may be parked in `accept`; a throwaway
        // connection wakes it so it can observe the drain flag.
        let _ = TcpStream::connect(self.addr);
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

fn accept_loop(listener: &TcpListener, state: &Arc<ServerState>) {
    for conn in listener.incoming() {
        let Ok(stream) = conn else { continue };
        if state.stopping() {
            break; // woken by the shutdown self-connect
        }
        let _ = stream.set_read_timeout(Some(READ_TIMEOUT));
        // Responses are single writes (`http::write_response`); without
        // NODELAY, Nagle's algorithm could still hold one back until the
        // client's delayed ACK on a keep-alive connection.
        let _ = stream.set_nodelay(true);
        let state = Arc::clone(state);
        // Detached: the thread exits with its connection (bounded by the
        // read timeout), and on drain every keep-alive loop closes after
        // the in-flight response.
        std::thread::spawn(move || serve_connection(stream, &state));
    }
}

/// Serves one socket until it closes: requests are answered in order on
/// the same connection (HTTP/1.1 keep-alive) unless the client asked to
/// close, the request was malformed, or the server is draining. An SSE
/// subscription takes the connection over and ends it.
fn serve_connection(mut stream: TcpStream, state: &Arc<ServerState>) {
    loop {
        let request = match http::read_request(&mut stream) {
            Ok(r) => r,
            Err(ReadError::Closed) => return,
            Err(e @ ReadError::TooLarge) => {
                return http::write_response(&mut stream, 413, &error_body(&e.to_string()), false);
            }
            Err(e) => {
                return http::write_response(&mut stream, 400, &error_body(&e.to_string()), false);
            }
        };
        let _span = bbgnn_obs::span!(
            "serve/request",
            method = request.method.as_str(),
            path = request.path.as_str()
        );
        let shutdown = request.method == "POST" && request.path == "/shutdown";
        let keep = !request.close && !shutdown && !state.stopping();
        if let Some(id) = sse_target(&request) {
            if state.job_phase(id).is_some() {
                drop(_span);
                return stream_events(&mut stream, state, id);
            }
            http::write_response(&mut stream, 404, &error_body(&format!("no job {id}")), keep);
        } else {
            let (status, body) = route(state, &request);
            http::write_response(&mut stream, status, &body, keep);
        }
        if shutdown {
            // Only now, with the reply written: stopping lets the process
            // drain and exit, which would kill this detached thread
            // before a reply it had not yet written.
            state.stop();
        }
        if !keep {
            return;
        }
    }
}

/// `GET /jobs/:id/events` → the job id, anything else → `None`.
fn sse_target(request: &Request) -> Option<u64> {
    if request.method != "GET" {
        return None;
    }
    request
        .path
        .strip_prefix("/jobs/")?
        .strip_suffix("/events")?
        .parse()
        .ok()
}

/// Streams a job's lifecycle as Server-Sent Events: one event per tick
/// named after the phase (`queued`/`progress`/`done`/`cancelled`), with
/// the `GET /jobs/:id` snapshot as compact-JSON data. The stream ends —
/// by connection close, as SSE specifies — after the terminal event, on
/// server drain, or when the client goes away.
fn stream_events(stream: &mut TcpStream, state: &ServerState, id: u64) {
    bbgnn_obs::counter("serve/sse_streams", 1);
    if http::write_sse_header(stream).is_err() {
        return;
    }
    loop {
        let Some((phase, doc)) = state.job_event(id) else {
            return;
        };
        let name = match phase {
            JobPhase::Queued => "queued",
            JobPhase::Running => "progress",
            JobPhase::Done => "done",
            JobPhase::Cancelled => "cancelled",
        };
        if http::write_sse_event(stream, name, &doc.to_compact()).is_err() {
            return; // client went away
        }
        if matches!(phase, JobPhase::Done | JobPhase::Cancelled) || state.stopping() {
            return;
        }
        // lint: allow(clock) reason=SSE poll interval for live progress streaming, not experiment code
        std::thread::sleep(SSE_TICK);
    }
}

fn error_body(message: &str) -> String {
    Json::object([("error".to_string(), Json::string(message))]).to_pretty()
}

/// Routes one request to its handler; returns `(status, json body)`.
fn route(state: &Arc<ServerState>, request: &Request) -> (u16, String) {
    match (request.method.as_str(), request.path.as_str()) {
        ("GET", "/health") => (
            200,
            Json::object([
                ("ok".to_string(), Json::Bool(true)),
                (
                    "queue_depth".to_string(),
                    Json::number_usize(state.queue_depth()),
                ),
                ("capacity".to_string(), Json::number_usize(state.capacity())),
                ("workers".to_string(), Json::number_usize(state.workers())),
                ("running".to_string(), Json::number_usize(state.running())),
            ])
            .to_pretty(),
        ),
        ("GET", "/jobs") => (200, state.jobs_json().to_pretty()),
        ("POST", "/jobs") => submit(state, &request.body),
        // The connection loop stops the server once this reply is out.
        ("POST", "/shutdown") => (
            200,
            Json::object([("ok".to_string(), Json::Bool(true))]).to_pretty(),
        ),
        (method, path) => match (method, path.strip_prefix("/jobs/")) {
            (_, None) => (404, error_body(&format!("no such endpoint {path}"))),
            (method, Some(tail)) => match tail.parse::<u64>() {
                Err(_) => (404, error_body(&format!("bad job id {tail:?}"))),
                Ok(id) => match method {
                    "GET" => match state.job_json(id) {
                        Some(doc) => (200, doc.to_pretty()),
                        None => (404, error_body(&format!("no job {id}"))),
                    },
                    "DELETE" => match state.cancel(id) {
                        Some(new_state) => (
                            200,
                            Json::object([
                                ("id".to_string(), Json::number_u64(id)),
                                ("state".to_string(), Json::string(new_state)),
                            ])
                            .to_pretty(),
                        ),
                        None => (404, error_body(&format!("no job {id}"))),
                    },
                    _ => (405, error_body("use GET or DELETE on /jobs/:id")),
                },
            },
        },
    }
}

fn submit(state: &Arc<ServerState>, body: &str) -> (u16, String) {
    let spec = match JobSpec::parse(body) {
        Ok(spec) => spec,
        Err(e) => return (400, error_body(&e.to_string())),
    };
    match state.submit(spec.clone()) {
        Ok(id) => (
            200,
            Json::object([
                ("id".to_string(), Json::number_u64(id)),
                ("key".to_string(), Json::string(spec.cell_key())),
                ("fingerprint".to_string(), Json::string(spec.fingerprint())),
            ])
            .to_pretty(),
        ),
        Err(Refused::Invalid(message)) => (400, error_body(&message)),
        Err(Refused::QueueFull) => {
            bbgnn_obs::counter("serve/jobs_rejected", 1);
            (
                429,
                error_body(&format!(
                    "queue full ({} pending); retry after a job finishes",
                    state.capacity()
                )),
            )
        }
        Err(Refused::Stopping) => {
            bbgnn_obs::counter("serve/jobs_rejected", 1);
            (503, error_body("server is draining"))
        }
    }
}

/// The kernel width one job runs at on a `workers`-job pool in a process
/// of `process` threads: the spec's `requested` count capped at the
/// process count, or for `0` the worker's share of it, at least 1.
fn job_threads(requested: usize, process: usize, workers: usize) -> usize {
    match requested {
        0 => (process / workers.max(1)).max(1),
        n => n.min(process),
    }
}

fn worker_loop(state: &Arc<ServerState>) {
    loop {
        // A process-global cancel is never raised by a DELETE any more
        // (those cancel the job's own scope): it is the shared
        // SIGINT/SIGTERM handler, so drain the server.
        if bbgnn_supervise::cancel_requested() {
            state.stop();
        }
        match state.next_job(WORKER_WAIT) {
            Popped::Stop => break,
            Popped::Idle => continue,
            Popped::Work(id, job) => run_one(state, id, *job),
        }
    }
}

/// Runs one job: store-warm replay when an identical completed spec is
/// recorded, otherwise a full [`Job::run`] at the job's [`job_threads`]
/// width — which enters the job's own supervision scope and installs its
/// budget and width there, so nothing global needs resetting between
/// tenants.
fn run_one(state: &ServerState, id: u64, job: Job) {
    let spec = job.spec().clone();
    let warm = replay(&spec, &job);
    let (result, warm) = match warm {
        Some(result) => (result, true),
        None => {
            let threads = job_threads(spec.threads, env_threads(), state.workers());
            let result = job.run(&ExecContext::new(threads));
            if let Some(record) = JobRecord::from_result(&result) {
                bbgnn_store::publish(&JobRecord::key_for(&spec), &record);
            }
            (result, false)
        }
    };
    state.finish(id, result, warm);
    // Push this worker's counter aggregates to the trace sink (CI greps
    // it); without a sink this is one relaxed load.
    bbgnn_obs::flush();
}

/// Store-warm path: a recorded result for this exact fingerprint, if the
/// replay rules admit it (see [`JobRecord::replayable_for`]).
fn replay(spec: &JobSpec, job: &Job) -> Option<CellResult> {
    let record: JobRecord = bbgnn_store::lookup(&JobRecord::key_for(spec))?;
    if !record.replayable_for(spec) {
        return None;
    }
    Some(CellResult {
        key: job.key().to_string(),
        value: record.value.clone(),
        outcome: record.outcome_enum(),
        attempts: record.attempts as usize,
        detail: None,
        artifacts: record.artifacts,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{BufRead, BufReader, Read, Write};

    /// These tests mutate process-global state (supervision slates, the
    /// store); serialize them.
    static SERVE_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

    fn locked() -> std::sync::MutexGuard<'static, ()> {
        let guard = SERVE_LOCK
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        bbgnn_supervise::shutdown();
        guard
    }

    /// Minimal HTTP client: one request, one response, connection closed
    /// (the server honors `Connection: close`, so `read_to_string` sees
    /// EOF instead of waiting out the keep-alive idle timeout).
    fn call(addr: SocketAddr, method: &str, path: &str, body: &str) -> (u16, String) {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(120)))
            .unwrap();
        write!(
            stream,
            "{method} {path} HTTP/1.1\r\nHost: t\r\nConnection: close\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        )
        .unwrap();
        let mut raw = String::new();
        stream.read_to_string(&mut raw).unwrap();
        let status: u16 = raw
            .split(' ')
            .nth(1)
            .and_then(|s| s.parse().ok())
            .unwrap_or_else(|| panic!("bad response: {raw:?}"));
        let body = raw
            .split_once("\r\n\r\n")
            .map(|(_, b)| b.to_string())
            .unwrap_or_default();
        (status, body)
    }

    fn get_field<'a>(body: &'a str, field: &str) -> &'a str {
        let marker = format!("\"{field}\": ");
        let start = body
            .find(&marker)
            .unwrap_or_else(|| panic!("no {field} in {body}"))
            + marker.len();
        let rest = &body[start..];
        let rest = rest.strip_prefix('"').unwrap_or(rest);
        let end = rest.find(['"', ',', '\n']).unwrap_or(rest.len());
        &rest[..end]
    }

    fn poll_until(addr: SocketAddr, id: &str, states: &[&str]) -> String {
        poll_for(addr, id, |body| states.contains(&get_field(body, "state")))
    }

    /// Polls `GET /jobs/:id` until `done` accepts the body, and returns it.
    fn poll_for(addr: SocketAddr, id: &str, done: impl Fn(&str) -> bool) -> String {
        for _ in 0..2400 {
            let (status, body) = call(addr, "GET", &format!("/jobs/{id}"), "");
            assert_eq!(status, 200, "{body}");
            if done(&body) {
                return body;
            }
            // lint: allow(clock) reason=test poll interval against a live server, not experiment code
            std::thread::sleep(Duration::from_millis(50));
        }
        panic!("job {id} never reached the polled state");
    }

    const SMALL: &str =
        r#"{"dataset": "cora", "eval": {"kind": "accuracy", "runs": 1, "scale": 0.05}}"#;
    /// A deliberately heavy job, so a request lands while it runs.
    const HEAVY: &str =
        r#"{"dataset": "cora", "defense": "Pro-GNN", "eval": {"runs": 3, "scale": 0.3}}"#;

    #[test]
    fn end_to_end_submit_poll_warm_replay_and_errors() {
        let _guard = locked();
        let store_dir = std::env::temp_dir().join("bbgnn_serve_test_store");
        let _ = std::fs::remove_dir_all(&store_dir);
        bbgnn_store::init_to_path(store_dir.to_str().unwrap()).unwrap();
        let server = Server::start("127.0.0.1:0", 4, 1).unwrap();
        let addr = server.addr();

        // The CLI-equivalent expected value, computed in-process.
        let expected = Job::new(JobSpec::parse(SMALL).unwrap())
            .unwrap()
            .run(&ExecContext::from_env());
        assert_eq!(expected.key, "cora/Clean/GCN");

        // Malformed and invalid submissions bounce with named errors.
        let (status, body) = call(addr, "POST", "/jobs", "{not json");
        assert_eq!(status, 400, "{body}");
        let (status, body) = call(
            addr,
            "POST",
            "/jobs",
            r#"{"dataset": "cora", "defense": "Vaccine"}"#,
        );
        assert_eq!(status, 400);
        assert!(body.contains("defense"), "{body}");
        let (status, _) = call(addr, "GET", "/jobs/999", "");
        assert_eq!(status, 404);
        let (status, _) = call(addr, "PUT", "/jobs/1", "");
        assert_eq!(status, 405);

        // Cold run over HTTP matches the in-process run byte for byte.
        let (status, body) = call(addr, "POST", "/jobs", SMALL);
        assert_eq!(status, 200, "{body}");
        let id = get_field(&body, "id").to_string();
        let done = poll_until(addr, &id, &["done"]);
        assert_eq!(get_field(&done, "value"), expected.value);
        assert_eq!(get_field(&done, "warm"), "false");

        // Identical resubmission replays from the store: no training run.
        let (status, body) = call(addr, "POST", "/jobs", SMALL);
        assert_eq!(status, 200, "{body}");
        let id2 = get_field(&body, "id").to_string();
        assert_ne!(id2, id);
        let done2 = poll_until(addr, &id2, &["done"]);
        assert_eq!(get_field(&done2, "value"), expected.value);
        assert_eq!(get_field(&done2, "warm"), "true", "{done2}");

        let (status, body) = call(addr, "GET", "/health", "");
        assert_eq!(status, 200);
        assert!(body.contains("\"ok\": true"), "{body}");
        server.shutdown();
        bbgnn_store::shutdown();
        let _ = std::fs::remove_dir_all(&store_dir);
    }

    #[test]
    fn delete_cancels_a_running_job_and_the_server_survives() {
        let _guard = locked();
        let server = Server::start("127.0.0.1:0", 1, 1).unwrap();
        let addr = server.addr();

        let (status, body) = call(addr, "POST", "/jobs", HEAVY);
        assert_eq!(status, 200, "{body}");
        let heavy_id = get_field(&body, "id").to_string();
        poll_until(addr, &heavy_id, &["running"]);

        // With the worker busy and capacity 1, a second job queues and a
        // third is refused.
        let (status, body) = call(addr, "POST", "/jobs", SMALL);
        assert_eq!(status, 200, "{body}");
        let queued_id = get_field(&body, "id").to_string();
        let (status, body) = call(addr, "POST", "/jobs", SMALL);
        assert_eq!(status, 429, "{body}");

        // DELETE the running job: acknowledged as `cancelling`, resolves
        // to `cancelled`, and the queued job still runs to completion —
        // the cancel lives in the deleted job's own scope and must not
        // leak into its successor.
        let (status, body) = call(addr, "DELETE", &format!("/jobs/{heavy_id}"), "");
        assert_eq!(status, 200);
        assert_eq!(get_field(&body, "state"), "cancelling", "{body}");
        let gone = poll_until(addr, &heavy_id, &["cancelled"]);
        assert_eq!(get_field(&gone, "value"), bbgnn_scenario::job::FAILED_CELL);
        let done = poll_until(addr, &queued_id, &["done"]);
        assert_eq!(get_field(&done, "outcome"), "ok", "{done}");
        server.shutdown();
    }

    /// Only a trace sink turns tracing on: a server without one never
    /// formats a record, and a running job's progress is what its own
    /// supervision scope recorded, with no process-wide totals mixed in.
    #[test]
    fn serving_without_a_sink_leaves_tracing_off_and_progress_per_job() {
        let _guard = locked();
        bbgnn_obs::shutdown();
        let server = Server::start("127.0.0.1:0", 1, 1).unwrap();
        let addr = server.addr();
        assert!(!bbgnn_obs::enabled(), "starting a server turned tracing on");

        let (status, body) = call(addr, "POST", "/jobs", HEAVY);
        assert_eq!(status, 200, "{body}");
        let id = get_field(&body, "id").to_string();
        // The job's `progress` object; empty unless it is running.
        let progress = |body: &str| {
            let doc = Json::parse(body).unwrap();
            let progress = doc.as_object().and_then(|d| d.get("progress"));
            progress
                .and_then(Json::as_object)
                .cloned()
                .unwrap_or_default()
        };
        let body = poll_for(addr, &id, |body| {
            let epochs = progress(body).get("epochs").and_then(Json::as_u64);
            epochs.is_some_and(|e| e > 0)
        });
        assert!(!bbgnn_obs::enabled(), "a running job turned tracing on");
        // The job records its width before its first epoch.
        let keys: Vec<String> = progress(&body).into_keys().collect();
        assert_eq!(keys, ["epochs", "peak_bytes", "queries", "threads"]);

        let (status, body) = call(addr, "DELETE", &format!("/jobs/{id}"), "");
        assert_eq!(status, 200, "{body}");
        poll_until(addr, &id, &["cancelled"]);
        server.shutdown();
        assert!(!bbgnn_obs::enabled(), "tracing is on after shutdown");
    }

    /// A deeply nested body is a 400, not a stack overflow that takes the
    /// whole process down with it.
    #[test]
    fn deeply_nested_body_is_rejected_and_the_server_survives() {
        let _guard = locked();
        let server = Server::start("127.0.0.1:0", 1, 1).unwrap();
        let addr = server.addr();
        let (status, body) = call(addr, "POST", "/jobs", &"[".repeat(100_000));
        assert_eq!(status, 400, "{body}");
        assert!(body.contains("nesting"), "{body}");
        let (status, body) = call(addr, "GET", "/health", "");
        assert_eq!(status, 200);
        assert!(body.contains("\"ok\": true"), "{body}");
        server.shutdown();
    }

    #[test]
    fn shutdown_endpoint_drains() {
        let _guard = locked();
        let server = Server::start("127.0.0.1:0", 2, 1).unwrap();
        let addr = server.addr();
        let (status, _) = call(addr, "POST", "/shutdown", "");
        assert_eq!(status, 200);
        server.wait();
    }

    #[test]
    fn keepalive_serves_sequential_requests_on_one_socket() {
        let _guard = locked();
        let server = Server::start("127.0.0.1:0", 2, 1).unwrap();
        let addr = server.addr();
        let stream = TcpStream::connect(addr).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        for i in 0..3 {
            write!(
                reader.get_mut(),
                "GET /health HTTP/1.1\r\nHost: t\r\nContent-Length: 0\r\n\r\n"
            )
            .unwrap();
            let (status, headers) = read_head(&mut reader);
            assert_eq!(status, 200, "request {i}");
            let len: usize = header_value(&headers, "content-length").parse().unwrap();
            let mut body = vec![0u8; len];
            reader.read_exact(&mut body).unwrap();
            assert!(String::from_utf8(body).unwrap().contains("\"ok\": true"));
            assert!(
                header_value(&headers, "connection").contains("keep-alive"),
                "request {i}: {headers}"
            );
        }
        // An explicit close is honored: the server answers and hangs up.
        write!(
            reader.get_mut(),
            "GET /health HTTP/1.1\r\nHost: t\r\nConnection: close\r\nContent-Length: 0\r\n\r\n"
        )
        .unwrap();
        let mut rest = String::new();
        reader.read_to_string(&mut rest).unwrap(); // EOF = server closed
        assert!(rest.starts_with("HTTP/1.1 200"), "{rest}");
        server.shutdown();
    }

    /// Reads one response head off a keep-alive socket: `(status, headers)`.
    fn read_head(reader: &mut BufReader<TcpStream>) -> (u16, String) {
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        let status: u16 = line.split(' ').nth(1).unwrap().parse().unwrap();
        let mut headers = String::new();
        loop {
            let mut h = String::new();
            reader.read_line(&mut h).unwrap();
            if h == "\r\n" {
                return (status, headers);
            }
            headers.push_str(&h);
        }
    }

    fn header_value(headers: &str, name: &str) -> String {
        headers
            .lines()
            .find_map(|l| {
                let (k, v) = l.split_once(':')?;
                k.eq_ignore_ascii_case(name).then(|| v.trim().to_string())
            })
            .unwrap_or_default()
    }

    #[test]
    fn two_workers_run_concurrent_jobs_byte_identical_to_sequential() {
        let _guard = locked();
        let server = Server::start("127.0.0.1:0", 4, 2).unwrap();
        let addr = server.addr();

        // Two different specs, expected values computed sequentially
        // in-process at the process width. Byte-identity is the §7
        // determinism contract: the pool splits the cores between the two
        // jobs, and thread count never changes results.
        let spec_a = SMALL;
        let spec_b =
            r#"{"dataset": "cora", "eval": {"kind": "accuracy", "runs": 1, "scale": 0.1}}"#;
        let expected_a = Job::new(JobSpec::parse(spec_a).unwrap())
            .unwrap()
            .run(&ExecContext::from_env());
        let expected_b = Job::new(JobSpec::parse(spec_b).unwrap())
            .unwrap()
            .run(&ExecContext::from_env());
        assert_ne!(expected_a.value, expected_b.value);

        let (status, body) = call(addr, "POST", "/jobs", spec_a);
        assert_eq!(status, 200, "{body}");
        let id_a = get_field(&body, "id").to_string();
        let (status, body) = call(addr, "POST", "/jobs", spec_b);
        assert_eq!(status, 200, "{body}");
        let id_b = get_field(&body, "id").to_string();

        let done_a = poll_until(addr, &id_a, &["done"]);
        let done_b = poll_until(addr, &id_b, &["done"]);
        assert_eq!(get_field(&done_a, "value"), expected_a.value);
        assert_eq!(get_field(&done_b, "value"), expected_b.value);
        server.shutdown();
    }

    #[test]
    fn job_width_is_the_capped_request_or_the_workers_share() {
        // `threads: 0` splits the process width evenly, never below 1.
        assert_eq!(job_threads(0, 8, 2), 4);
        assert_eq!(job_threads(0, 7, 2), 3);
        assert_eq!(job_threads(0, 2, 2), 1);
        assert_eq!(job_threads(0, 1, 4), 1);
        assert_eq!(job_threads(0, 4, 1), 4);
        // An explicit request is honored up to the process width.
        assert_eq!(job_threads(1, 8, 2), 1);
        assert_eq!(job_threads(6, 8, 2), 6);
        assert_eq!(job_threads(64, 8, 2), 8);
        assert_eq!(job_threads(3, 2, 1), 2);
    }

    #[test]
    fn deleting_one_concurrent_job_leaves_its_sibling_running() {
        let _guard = locked();
        let server = Server::start("127.0.0.1:0", 4, 2).unwrap();
        let addr = server.addr();

        // Two heavy jobs so both are mid-run when the DELETE lands.
        let heavy2 =
            r#"{"dataset": "cora", "defense": "Pro-GNN", "eval": {"runs": 3, "scale": 0.25}}"#;
        let (status, body) = call(addr, "POST", "/jobs", HEAVY);
        assert_eq!(status, 200, "{body}");
        let victim = get_field(&body, "id").to_string();
        let (status, body) = call(addr, "POST", "/jobs", heavy2);
        assert_eq!(status, 200, "{body}");
        let survivor = get_field(&body, "id").to_string();
        poll_until(addr, &victim, &["running"]);
        poll_until(addr, &survivor, &["running"]);

        // Cancel the first: only its own scope stops. The sibling — and
        // the server — keep going to a clean result.
        let (status, body) = call(addr, "DELETE", &format!("/jobs/{victim}"), "");
        assert_eq!(status, 200);
        assert_eq!(get_field(&body, "state"), "cancelling", "{body}");
        let gone = poll_until(addr, &victim, &["cancelled"]);
        assert_eq!(get_field(&gone, "value"), bbgnn_scenario::job::FAILED_CELL);
        let done = poll_until(addr, &survivor, &["done"]);
        assert_eq!(get_field(&done, "outcome"), "ok", "{done}");
        server.shutdown();
    }

    #[test]
    fn sse_stream_follows_a_job_to_its_terminal_event() {
        let _guard = locked();
        let server = Server::start("127.0.0.1:0", 2, 1).unwrap();
        let addr = server.addr();

        // Unknown job: plain 404, not a stream.
        let (status, _) = call(addr, "GET", "/jobs/999/events", "");
        assert_eq!(status, 404);

        let (status, body) = call(addr, "POST", "/jobs", SMALL);
        assert_eq!(status, 200, "{body}");
        let id = get_field(&body, "id").to_string();

        let mut stream = TcpStream::connect(addr).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(120)))
            .unwrap();
        write!(
            stream,
            "GET /jobs/{id}/events HTTP/1.1\r\nHost: t\r\nContent-Length: 0\r\n\r\n"
        )
        .unwrap();
        let mut raw = String::new();
        stream.read_to_string(&mut raw).unwrap(); // server closes after terminal event
        let (head, frames) = raw.split_once("\r\n\r\n").unwrap();
        assert!(head.starts_with("HTTP/1.1 200"), "{head}");
        assert!(head.contains("text/event-stream"), "{head}");

        // Every frame is `event:` + single-line `data:` + blank line, and
        // the stream ends with exactly one terminal event.
        let events: Vec<(&str, &str)> = frames
            .split("\n\n")
            .filter(|f| !f.trim().is_empty())
            .map(|f| {
                let mut lines = f.lines();
                let event = lines.next().unwrap().strip_prefix("event: ").unwrap();
                let data = lines.next().unwrap().strip_prefix("data: ").unwrap();
                assert_eq!(lines.next(), None, "multi-line frame: {f:?}");
                (event, data)
            })
            .collect();
        assert!(!events.is_empty());
        let (last_event, last_data) = events[events.len() - 1];
        assert_eq!(last_event, "done", "{events:?}");
        assert!(last_data.contains("\"state\":\"done\""), "{last_data}");
        assert!(
            events[..events.len() - 1]
                .iter()
                .all(|(e, _)| matches!(*e, "queued" | "progress")),
            "{events:?}"
        );
        server.shutdown();
    }
}
