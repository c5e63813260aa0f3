//! The long-running HTTP solve server: accept loop, admission control,
//! load shedding, per-request deadlines, and graceful drain.
//!
//! ## Request lifecycle
//!
//! ```text
//! accept ──► parse ──► route
//!                       │ cache probe (hit answers immediately, no permit)
//!                       ▼
//!                  admission control
//!                  │        │        │
//!               permit    queue     shed ──► 429 + Retry-After
//!                  │     (bounded,  draining ──► 503
//!                  │      deadline-aware)
//!                  ▼
//!           SolveService::serve_with(request, budget)
//!                  │  budget = per-request deadline + cancel flag;
//!                  │  cancelled on client disconnect / server drain
//!                  ▼
//!           ServeOutcome JSON (or chunked incumbent stream)
//! ```
//!
//! ## Drain state machine
//!
//! `Running ──shutdown()──► Draining ──(in-flight done | budget up)──► Stopped`
//!
//! Draining stops accepting, answers queued waiters and new requests with
//! 503, and gives in-flight solves [`HttpdConfig::drain_budget`] to
//! finish. Past the budget every registered request [`Budget`] is
//! cancelled — the solver unwinds its degradation ladder and the request
//! still gets a correct (degraded) answer. Once idle, the cache is
//! persisted and [`Server::run`] returns.

use crate::http::{read_request, write_response, ChunkedWriter, HttpError, Request};
use crate::json::{self, Json};
use gomil_arith::PpgKind;
use gomil_budget::{parse_deadline_ms, Budget};
use gomil_ilp::{BranchConfig, Model, Solution as IlpSolution, SolveError as IlpSolveError};
use gomil_serve::{
    json_string, RungLatency, ServeError, ServeOutcome, SolveKey, SolveRequest, SolveService,
};
use std::collections::HashMap;
use std::io::{self, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Tuning knobs of the HTTP layer (the solve pipeline itself is
/// configured on the injected [`SolveService`]).
#[derive(Debug, Clone)]
pub struct HttpdConfig {
    /// Solves allowed to run concurrently (admission permits).
    pub max_inflight: usize,
    /// Requests allowed to wait for a permit beyond `max_inflight`;
    /// arrivals past this bound are shed with 429.
    pub max_queue: usize,
    /// Deadline applied to requests that do not carry their own
    /// (`X-Gomil-Deadline-Ms` header or `budget_ms` body field).
    pub default_deadline: Option<Duration>,
    /// How long a drain waits for in-flight work before cancelling it.
    pub drain_budget: Duration,
}

impl Default for HttpdConfig {
    fn default() -> HttpdConfig {
        HttpdConfig {
            max_inflight: 4,
            max_queue: 16,
            default_deadline: None,
            drain_budget: Duration::from_secs(5),
        }
    }
}

/// What admission control decided for one solve request.
enum Ticket {
    /// Run now; the caller must call [`Admission::release`] afterwards.
    Admitted,
    /// Queue and in-flight capacity are exhausted (or the request's own
    /// deadline would pass before a permit frees up): shed.
    Shed,
    /// The server is draining: no new work.
    Draining,
}

#[derive(Default)]
struct AdmissionState {
    inflight: usize,
    waiting: usize,
    draining: bool,
}

/// Permits + bounded waiting room. A classic counting semaphore except
/// that waiters are deadline-aware (a queued request sheds itself once
/// its own deadline means it could never finish) and drain-aware (drain
/// wakes every waiter with [`Ticket::Draining`]).
struct Admission {
    state: Mutex<AdmissionState>,
    changed: Condvar,
}

impl Admission {
    fn new() -> Admission {
        Admission {
            state: Mutex::new(AdmissionState::default()),
            changed: Condvar::new(),
        }
    }

    fn acquire(&self, max_inflight: usize, max_queue: usize, deadline: Option<Instant>) -> Ticket {
        let mut s = self.state.lock().unwrap_or_else(|p| p.into_inner());
        if s.draining {
            return Ticket::Draining;
        }
        if s.inflight < max_inflight {
            s.inflight += 1;
            return Ticket::Admitted;
        }
        if s.waiting >= max_queue {
            return Ticket::Shed;
        }
        s.waiting += 1;
        loop {
            if s.draining {
                s.waiting -= 1;
                return Ticket::Draining;
            }
            if s.inflight < max_inflight {
                s.inflight += 1;
                s.waiting -= 1;
                return Ticket::Admitted;
            }
            if let Some(d) = deadline {
                if Instant::now() >= d {
                    // Deadline pressure: this request could not finish in
                    // time even if it started now, so free its queue slot
                    // for one that can.
                    s.waiting -= 1;
                    return Ticket::Shed;
                }
            }
            let (guard, _) = self
                .changed
                .wait_timeout(s, Duration::from_millis(100))
                .unwrap_or_else(|p| p.into_inner());
            s = guard;
        }
    }

    fn release(&self) {
        let mut s = self.state.lock().unwrap_or_else(|p| p.into_inner());
        s.inflight = s.inflight.saturating_sub(1);
        drop(s);
        self.changed.notify_all();
    }

    fn start_drain(&self) {
        self.state
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .draining = true;
        self.changed.notify_all();
    }

    fn snapshot(&self) -> (usize, usize, bool) {
        let s = self.state.lock().unwrap_or_else(|p| p.into_inner());
        (s.inflight, s.waiting, s.draining)
    }
}

/// State shared by the accept loop, every connection thread, and
/// [`ServerHandle`]s.
struct Shared {
    service: Arc<SolveService>,
    cfg: HttpdConfig,
    admission: Admission,
    shutdown: AtomicBool,
    open_conns: AtomicUsize,
    /// Budgets of in-flight requests, cancelled wholesale when the drain
    /// budget runs out (and individually on client disconnect).
    budgets: Mutex<HashMap<u64, Budget>>,
    budget_seq: AtomicU64,
}

impl Shared {
    fn register_budget(&self, budget: &Budget) -> u64 {
        let id = self.budget_seq.fetch_add(1, Ordering::Relaxed);
        self.budgets
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .insert(id, budget.clone());
        id
    }

    fn unregister_budget(&self, id: u64) {
        self.budgets
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .remove(&id);
    }

    fn cancel_all_budgets(&self) -> usize {
        let budgets = self.budgets.lock().unwrap_or_else(|p| p.into_inner());
        for budget in budgets.values() {
            budget.cancel();
        }
        budgets.len()
    }

    fn draining(&self) -> bool {
        self.shutdown.load(Ordering::Relaxed)
    }

    /// `Retry-After` seconds for a shed reply: the expected time for the
    /// backlog ahead of a retry to clear, from the service's mean solve
    /// latency — clamped to [1, 60] so the header is always sane even
    /// with no latency history yet.
    fn retry_after_secs(&self) -> u64 {
        let (_, waiting, _) = self.admission.snapshot();
        let report = self.service.report();
        let mean_secs = mean_solve_secs(&report.per_rung);
        let backlog = (waiting + 1) as f64 / self.cfg.max_inflight.max(1) as f64;
        (mean_secs * backlog).ceil().clamp(1.0, 60.0) as u64
    }
}

/// Whether a per-rung latency row measures an actual solver run.
/// `cache-hit` and `mart-hit` rows time fast-path lookups and `verify`
/// times per-netlist equivalence checks — averaging any of them into the
/// solve latency would drag the mean down and under-estimate
/// `Retry-After` exactly when the server is overloaded.
fn is_solver_rung(rung: &str) -> bool {
    !matches!(rung, "cache-hit" | "mart-hit" | "verify")
}

/// Mean solve latency in seconds across actual solver rungs (1s when no
/// solver latency history exists yet).
fn mean_solve_secs(per_rung: &[(String, RungLatency)]) -> f64 {
    let (mut total_us, mut count) = (0u64, 0u64);
    for (rung, h) in per_rung {
        if is_solver_rung(rung) {
            total_us += h.total_us;
            count += h.count;
        }
    }
    if count == 0 {
        1.0
    } else {
        (total_us as f64 / count as f64) / 1e6
    }
}

/// A cloneable remote control for a running [`Server`]: triggers drain
/// from another thread (or from the `POST /shutdown` endpoint).
#[derive(Clone)]
pub struct ServerHandle {
    shared: Arc<Shared>,
}

impl ServerHandle {
    /// Initiates graceful drain; idempotent.
    pub fn shutdown(&self) {
        self.shared.shutdown.store(true, Ordering::Relaxed);
        self.shared.admission.start_drain();
    }

    /// Whether drain has been initiated.
    pub fn is_draining(&self) -> bool {
        self.shared.draining()
    }
}

/// The HTTP solve server. [`bind`](Server::bind), then [`run`](Server::run)
/// on a dedicated thread; stop it with a [`ServerHandle`] or
/// `POST /shutdown`.
pub struct Server {
    listener: TcpListener,
    shared: Arc<Shared>,
}

impl Server {
    /// Binds `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port) around
    /// an existing solve service.
    ///
    /// # Errors
    ///
    /// Propagates bind failures.
    pub fn bind(service: Arc<SolveService>, addr: &str, cfg: HttpdConfig) -> io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        Ok(Server {
            listener,
            shared: Arc::new(Shared {
                service,
                cfg,
                admission: Admission::new(),
                shutdown: AtomicBool::new(false),
                open_conns: AtomicUsize::new(0),
                budgets: Mutex::new(HashMap::new()),
                budget_seq: AtomicU64::new(0),
            }),
        })
    }

    /// The bound address (useful with an ephemeral port).
    ///
    /// # Errors
    ///
    /// Propagates `local_addr` failures.
    pub fn local_addr(&self) -> io::Result<std::net::SocketAddr> {
        self.listener.local_addr()
    }

    /// A remote control for this server.
    pub fn handle(&self) -> ServerHandle {
        ServerHandle {
            shared: Arc::clone(&self.shared),
        }
    }

    /// Runs the accept loop until drain completes, then persists the
    /// cache and returns. See the module docs for the drain state
    /// machine.
    ///
    /// # Errors
    ///
    /// Propagates accept-loop transport errors and the final cache
    /// persistence failure (in-flight answers are never lost to either).
    pub fn run(self) -> io::Result<()> {
        while !self.shared.draining() {
            match self.listener.accept() {
                Ok((stream, _peer)) => {
                    let shared = Arc::clone(&self.shared);
                    shared.open_conns.fetch_add(1, Ordering::Relaxed);
                    std::thread::spawn(move || {
                        let _ = handle_connection(&shared, stream);
                        shared.open_conns.fetch_sub(1, Ordering::Relaxed);
                    });
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    std::thread::sleep(Duration::from_millis(10));
                }
                Err(e) => return Err(e),
            }
        }

        // Draining: no new connections; give in-flight work the budget.
        self.shared.admission.start_drain();
        let deadline = Instant::now() + self.shared.cfg.drain_budget;
        while Instant::now() < deadline {
            let (inflight, _, _) = self.shared.admission.snapshot();
            if inflight == 0 && self.shared.open_conns.load(Ordering::Relaxed) == 0 {
                break;
            }
            std::thread::sleep(Duration::from_millis(20));
        }
        // Budget up: cancel stragglers — each unwinds the degradation
        // ladder and still answers its client — then wait briefly for
        // the unwind itself.
        if self.shared.cancel_all_budgets() > 0 {
            let grace = Instant::now() + self.shared.cfg.drain_budget;
            while Instant::now() < grace {
                let (inflight, _, _) = self.shared.admission.snapshot();
                if inflight == 0 && self.shared.open_conns.load(Ordering::Relaxed) == 0 {
                    break;
                }
                std::thread::sleep(Duration::from_millis(20));
            }
        }
        // No lost cache writes: persistence is the last drain step, after
        // every in-flight publish has settled.
        self.shared.service.persist()?;
        Ok(())
    }
}

/// Serves one connection: keep-alive request loop with a drain-aware
/// idle wait.
fn handle_connection(shared: &Shared, stream: TcpStream) -> io::Result<()> {
    stream.set_read_timeout(Some(Duration::from_millis(250)))?;
    stream.set_nodelay(true).ok();
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut stream = stream;
    loop {
        // Idle wait: poll for the next request so a parked keep-alive
        // connection notices drain instead of pinning the server open.
        loop {
            if !reader.buffer().is_empty() {
                break;
            }
            let mut probe = [0u8; 1];
            match reader.get_ref().peek(&mut probe) {
                Ok(0) => return Ok(()), // peer closed
                Ok(_) => break,
                Err(e)
                    if e.kind() == io::ErrorKind::WouldBlock
                        || e.kind() == io::ErrorKind::TimedOut =>
                {
                    if shared.draining() {
                        return Ok(());
                    }
                }
                Err(_) => return Ok(()),
            }
        }
        match read_request(&mut reader) {
            Ok(request) => {
                let close = request.wants_close();
                match route(shared, &mut stream, &request, close) {
                    Ok(()) => {}
                    Err(_) => return Ok(()), // transport gone mid-reply
                }
                if close {
                    return Ok(());
                }
            }
            Err(HttpError::Closed) => return Ok(()),
            Err(e) => {
                let status = e.status();
                if status != 0 {
                    let body = format!("{{\"error\":{}}}\n", json_string(&e.reason()));
                    let _ = write_response(
                        &mut stream,
                        status,
                        "application/json",
                        body.as_bytes(),
                        &[],
                        true,
                    );
                }
                return Ok(());
            }
        }
    }
}

fn reply_json<W: Write>(w: &mut W, status: u16, body: &str, close: bool) -> io::Result<()> {
    write_response(w, status, "application/json", body.as_bytes(), &[], close)
}

fn reply_error<W: Write>(w: &mut W, status: u16, message: &str, close: bool) -> io::Result<()> {
    reply_json(
        w,
        status,
        &format!("{{\"error\":{}}}\n", json_string(message)),
        close,
    )
}

/// Dispatches one parsed request to its endpoint.
fn route(
    shared: &Shared,
    stream: &mut TcpStream,
    request: &Request,
    close: bool,
) -> io::Result<()> {
    match (request.method.as_str(), request.path()) {
        ("GET", "/healthz") => {
            if shared.draining() {
                write_response(stream, 503, "text/plain", b"draining\n", &[], close)
            } else {
                write_response(stream, 200, "text/plain", b"ok\n", &[], close)
            }
        }
        ("GET", "/metrics") => {
            let text = shared.service.report().to_prometheus();
            write_response(
                stream,
                200,
                "text/plain; version=0.0.4",
                text.as_bytes(),
                &[],
                close,
            )
        }
        ("GET", path) if path.starts_with("/design/") => {
            let hex = &path["/design/".len()..];
            let Ok(fingerprint) = u64::from_str_radix(hex, 16) else {
                return reply_error(stream, 400, "fingerprint must be hexadecimal", close);
            };
            match shared.service.lookup_fingerprint(fingerprint) {
                Some((key, outcome)) => reply_json(
                    stream,
                    200,
                    &solve_reply_json(&key, fingerprint, &outcome),
                    close,
                ),
                None => reply_error(stream, 404, "no cached design with that fingerprint", close),
            }
        }
        ("POST", "/shutdown") => {
            shared.shutdown.store(true, Ordering::Relaxed);
            shared.admission.start_drain();
            reply_json(stream, 200, "{\"status\":\"draining\"}\n", close)
        }
        ("POST", "/solve") => handle_solve(shared, stream, request, close),
        ("POST", "/lp") => handle_lp(shared, stream, request, close),
        ("GET", "/solve" | "/lp") | ("POST", "/healthz" | "/metrics") => {
            reply_error(stream, 405, "method not allowed", close)
        }
        _ => reply_error(stream, 404, "unknown endpoint", close),
    }
}

/// The solve reply: the outcome plus the cache fingerprint a client can
/// later `GET /design/{fingerprint}` with — and the full canonical `key`,
/// because the 64-bit fingerprint is not an identity (two keys can
/// collide on it): a client that remembers the key it solved for can
/// compare it against a later `/design` reply and detect a mismatch.
fn solve_reply_json(key: &str, fingerprint: u64, outcome: &ServeOutcome) -> String {
    format!(
        "{{\"fingerprint\":\"{fingerprint:016x}\",\"key\":{},\"outcome\":{}}}\n",
        json_string(key),
        outcome.to_json()
    )
}

/// Decodes the solve configuration body plus the per-request deadline.
fn parse_solve_request(request: &Request) -> Result<(SolveRequest, Option<Duration>), String> {
    let body = std::str::from_utf8(&request.body).map_err(|_| "body is not UTF-8".to_string())?;
    let config = if body.trim().is_empty() {
        Json::Obj(Default::default())
    } else {
        json::parse(body).map_err(|e| format!("invalid JSON body: {e}"))?
    };
    let m = config
        .get("m")
        .ok_or_else(|| "missing required field \"m\"".to_string())?
        .as_u64()
        .ok_or_else(|| "\"m\" must be a nonnegative integer".to_string())?;
    if !(2..=256).contains(&m) {
        return Err(format!("\"m\" must be in 2..=256, got {m}"));
    }
    let ppg = match config.get("ppg") {
        None => PpgKind::And,
        Some(v) => {
            let name = v
                .as_str()
                .ok_or_else(|| "\"ppg\" must be a string".to_string())?;
            PpgKind::from_name(name).ok_or_else(|| format!("unknown ppg {name:?}"))?
        }
    };
    // Deadline precedence: header > body budget_ms (both strict).
    let deadline = match request.header("x-gomil-deadline-ms") {
        Some(value) => Some(
            parse_deadline_ms(value)
                .ok_or_else(|| format!("invalid X-Gomil-Deadline-Ms {value:?}"))?,
        ),
        None => match config.get("budget_ms") {
            Some(v) => {
                let ms = v
                    .as_u64()
                    .ok_or_else(|| "\"budget_ms\" must be a nonnegative integer".to_string())?;
                Some(
                    parse_deadline_ms(&ms.to_string())
                        .ok_or_else(|| format!("\"budget_ms\" {ms} out of range"))?,
                )
            }
            None => None,
        },
    };
    Ok((SolveRequest { m: m as usize, ppg }, deadline))
}

fn serve_error_status(e: &ServeError) -> u16 {
    match e {
        // The pipeline rejected the *request* (bad m/ppg combination) or
        // failed internally; both are this server's fault only in the
        // latter case, but a client can't fix either by retrying, so 500
        // with the message is the honest answer — except verification,
        // which is a hard internal invariant violation.
        ServeError::Solve(_) | ServeError::Verification(_) | ServeError::Panic(_) => 500,
    }
}

/// `POST /solve`: cache fast path → admission → budgeted solve → JSON
/// (or chunked incumbent stream with `?stream=1`).
fn handle_solve(
    shared: &Shared,
    stream: &mut TcpStream,
    request: &Request,
    close: bool,
) -> io::Result<()> {
    let (solve_req, deadline) = match parse_solve_request(request) {
        Ok(parsed) => parsed,
        Err(message) => return reply_error(stream, 400, &message, close),
    };
    let streaming = request.query_flag("stream", "1");
    let key = shared.service.key_for(&solve_req);
    let fingerprint = key.hash64();

    // Precomputed (mart) and cached answers bypass admission control
    // entirely: a full mart or cache must stay servable even while the
    // solve queue sheds.
    if let Some(hit) = shared.service.cached(&solve_req) {
        let body = solve_reply_json(key.canonical(), fingerprint, &hit);
        if streaming {
            let mut cw = ChunkedWriter::start(&mut *stream, 200, "application/x-ndjson")?;
            cw.chunk(done_event(key.canonical(), fingerprint, &hit).as_bytes())?;
            return cw.finish();
        }
        return reply_json(stream, 200, &body, close);
    }

    let budget = match deadline.or(shared.cfg.default_deadline) {
        Some(limit) => Budget::with_limit(limit),
        None => Budget::unlimited(),
    };
    match shared.admission.acquire(
        shared.cfg.max_inflight.max(1),
        shared.cfg.max_queue,
        budget.deadline(),
    ) {
        Ticket::Shed => {
            shared
                .service
                .metrics()
                .shed
                .fetch_add(1, Ordering::Relaxed);
            let retry = shared.retry_after_secs().to_string();
            write_response(
                stream,
                429,
                "application/json",
                b"{\"error\":\"overloaded, retry later\"}\n",
                &[("Retry-After", &retry)],
                close,
            )
        }
        Ticket::Draining => reply_error(stream, 503, "server is draining", close),
        Ticket::Admitted => {
            let result = if streaming {
                stream_solve(shared, stream, &solve_req, &budget, &key)
            } else {
                blocking_solve(shared, stream, &solve_req, &budget, &key, close)
            };
            shared.admission.release();
            if budget.check().is_err() {
                shared
                    .service
                    .metrics()
                    .deadline_cancelled
                    .fetch_add(1, Ordering::Relaxed);
            }
            result
        }
    }
}

fn blocking_solve(
    shared: &Shared,
    stream: &mut TcpStream,
    solve_req: &SolveRequest,
    budget: &Budget,
    key: &SolveKey,
    close: bool,
) -> io::Result<()> {
    let id = shared.register_budget(budget);
    let result = shared.service.serve_with(solve_req, Some(budget));
    shared.unregister_budget(id);
    match result {
        Ok(outcome) => reply_json(
            stream,
            200,
            &solve_reply_json(key.canonical(), key.hash64(), &outcome),
            close,
        ),
        Err(e) => reply_error(stream, serve_error_status(&e), &e.to_string(), close),
    }
}

/// `POST /lp`: solve a raw CPLEX LP-format model uploaded as the request
/// body. Unlike `/solve` there is no cache (arbitrary models have no
/// design identity), but the request goes through the same admission
/// control and honors the same `X-Gomil-Deadline-Ms` header — an
/// uploaded model competes for the same solver permits as a design
/// solve, so a flood of `/lp` posts sheds instead of piling up.
fn handle_lp(
    shared: &Shared,
    stream: &mut TcpStream,
    request: &Request,
    close: bool,
) -> io::Result<()> {
    let Ok(text) = std::str::from_utf8(&request.body) else {
        return reply_error(stream, 400, "body is not UTF-8", close);
    };
    if text.trim().is_empty() {
        return reply_error(
            stream,
            400,
            "empty body: expected an LP-format model",
            close,
        );
    }
    let model = match Model::from_lp_format(text) {
        Ok(m) => m,
        Err(e) => return reply_error(stream, 400, &e.to_string(), close),
    };
    let deadline = match request.header("x-gomil-deadline-ms") {
        Some(value) => match parse_deadline_ms(value) {
            Some(d) => Some(d),
            None => {
                return reply_error(
                    stream,
                    400,
                    &format!("invalid X-Gomil-Deadline-Ms {value:?}"),
                    close,
                )
            }
        },
        None => None,
    };
    let budget = match deadline.or(shared.cfg.default_deadline) {
        Some(limit) => Budget::with_limit(limit),
        None => Budget::unlimited(),
    };
    match shared.admission.acquire(
        shared.cfg.max_inflight.max(1),
        shared.cfg.max_queue,
        budget.deadline(),
    ) {
        Ticket::Shed => {
            shared
                .service
                .metrics()
                .shed
                .fetch_add(1, Ordering::Relaxed);
            let retry = shared.retry_after_secs().to_string();
            write_response(
                stream,
                429,
                "application/json",
                b"{\"error\":\"overloaded, retry later\"}\n",
                &[("Retry-After", &retry)],
                close,
            )
        }
        Ticket::Draining => reply_error(stream, 503, "server is draining", close),
        Ticket::Admitted => {
            let id = shared.register_budget(&budget);
            let cfg = BranchConfig {
                budget: budget.clone(),
                ..BranchConfig::default()
            };
            // An arbitrary uploaded model can trip solver panics the
            // design pipeline never would; contain them to a 500.
            let result =
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| model.solve_with(&cfg)));
            shared.unregister_budget(id);
            shared.admission.release();
            if budget.check().is_err() {
                shared
                    .service
                    .metrics()
                    .deadline_cancelled
                    .fetch_add(1, Ordering::Relaxed);
            }
            match result {
                Ok(solved) => reply_json(stream, 200, &lp_reply_json(&model, &solved), close),
                Err(_) => reply_error(stream, 500, "solver panicked", close),
            }
        }
    }
}

/// The `POST /lp` reply. Model outcomes (infeasible, unbounded, limit)
/// are 200s with a `status` field — they are answers about the uploaded
/// model, not transport failures.
fn lp_reply_json(model: &Model, result: &Result<IlpSolution, IlpSolveError>) -> String {
    match result {
        Ok(sol) => {
            let mut vars = String::new();
            for (i, v) in sol.values().iter().enumerate() {
                if i > 0 {
                    vars.push(',');
                }
                let name = model.var_name(gomil_ilp::Var::from_index(i));
                vars.push_str(&format!("{}:{}", json_string(name), json_number(*v)));
            }
            format!(
                "{{\"status\":{},\"objective\":{},\"gap\":{},\"nodes\":{},\"certified\":{},\"vars\":{{{vars}}}}}\n",
                json_string(if sol.is_optimal() { "optimal" } else { "feasible" }),
                json_number(sol.objective()),
                json_number(sol.gap()),
                sol.nodes(),
                sol.certificate().is_some(),
            )
        }
        Err(IlpSolveError::Infeasible) => "{\"status\":\"infeasible\"}\n".to_string(),
        Err(IlpSolveError::Unbounded) => "{\"status\":\"unbounded\"}\n".to_string(),
        Err(e) => format!(
            "{{\"status\":\"error\",\"error\":{}}}\n",
            json_string(&e.to_string())
        ),
    }
}

/// JSON-safe float rendering: finite values via shortest round-trip,
/// non-finite as null (JSON has no Infinity/NaN literals).
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

fn done_event(key: &str, fingerprint: u64, outcome: &ServeOutcome) -> String {
    format!(
        "{{\"event\":\"done\",\"fingerprint\":\"{fingerprint:016x}\",\"key\":{},\"outcome\":{}}}\n",
        json_string(key),
        outcome.to_json()
    )
}

/// `POST /solve?stream=1`: chunked newline-delimited JSON events. While
/// the solve runs, heartbeats keep the connection demonstrably alive (and
/// detect a vanished client — whose budget is then cancelled so the
/// worker actually stops); on completion the solver's incumbent timeline
/// is replayed as `incumbent` events followed by one `done` event.
fn stream_solve(
    shared: &Shared,
    stream: &mut TcpStream,
    solve_req: &SolveRequest,
    budget: &Budget,
    key: &SolveKey,
) -> io::Result<()> {
    let id = shared.register_budget(budget);
    let (tx, rx) = mpsc::channel();
    let service = Arc::clone(&shared.service);
    let req = solve_req.clone();
    let worker_budget = budget.clone();
    let worker = std::thread::spawn(move || {
        let result = service.serve_with(&req, Some(&worker_budget));
        tx.send(result).ok();
    });

    let mut cw = ChunkedWriter::start(&mut *stream, 200, "application/x-ndjson")?;
    let t0 = Instant::now();
    let outcome = loop {
        match rx.recv_timeout(Duration::from_millis(200)) {
            Ok(result) => break result,
            Err(RecvTimeoutError::Timeout) => {
                let beat = format!(
                    "{{\"event\":\"heartbeat\",\"elapsed_ms\":{}}}\n",
                    t0.elapsed().as_millis()
                );
                if cw.chunk(beat.as_bytes()).is_err() {
                    // Client hung up mid-solve: cancel so the worker
                    // unwinds instead of solving for nobody, then wait
                    // for its (degraded) result to keep singleflight
                    // joiners coherent.
                    budget.cancel();
                    let _ = rx.recv();
                    worker.join().ok();
                    shared.unregister_budget(id);
                    return Err(io::Error::new(
                        io::ErrorKind::BrokenPipe,
                        "client disconnected during stream",
                    ));
                }
            }
            Err(RecvTimeoutError::Disconnected) => {
                break Err(ServeError::Panic("solve worker vanished".into()))
            }
        }
    };
    worker.join().ok();
    shared.unregister_budget(id);

    match outcome {
        Ok(outcome) => {
            for (at_us, objective) in &outcome.improvements {
                let event = format!(
                    "{{\"event\":\"incumbent\",\"at_us\":{at_us},\"objective\":{objective}}}\n"
                );
                cw.chunk(event.as_bytes())?;
            }
            cw.chunk(done_event(key.canonical(), key.hash64(), &outcome).as_bytes())?;
        }
        Err(e) => {
            let event = format!(
                "{{\"event\":\"error\",\"status\":{},\"error\":{}}}\n",
                serve_error_status(&e),
                json_string(&e.to_string())
            );
            cw.chunk(event.as_bytes())?;
        }
    }
    cw.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn admission_permits_queue_and_shed() {
        let adm = Admission::new();
        assert!(matches!(adm.acquire(2, 1, None), Ticket::Admitted));
        assert!(matches!(adm.acquire(2, 1, None), Ticket::Admitted));
        // Queue full ⇒ third concurrent waiter sheds when a fourth asks.
        let expired = Some(Instant::now() - Duration::from_millis(1));
        // With an already-expired deadline the waiter sheds instead of
        // queueing forever.
        assert!(matches!(adm.acquire(2, 1, expired), Ticket::Shed));
        adm.release();
        assert!(matches!(adm.acquire(2, 1, None), Ticket::Admitted));
    }

    #[test]
    fn draining_turns_waiters_away() {
        let adm = Arc::new(Admission::new());
        assert!(matches!(adm.acquire(1, 4, None), Ticket::Admitted));
        let a2 = Arc::clone(&adm);
        let waiter = std::thread::spawn(move || a2.acquire(1, 4, None));
        std::thread::sleep(Duration::from_millis(50));
        adm.start_drain();
        assert!(matches!(waiter.join().unwrap(), Ticket::Draining));
        assert!(matches!(adm.acquire(1, 4, None), Ticket::Draining));
    }

    #[test]
    fn queued_waiter_gets_the_freed_permit() {
        let adm = Arc::new(Admission::new());
        assert!(matches!(adm.acquire(1, 4, None), Ticket::Admitted));
        let a2 = Arc::clone(&adm);
        let waiter = std::thread::spawn(move || a2.acquire(1, 4, None));
        std::thread::sleep(Duration::from_millis(50));
        adm.release();
        assert!(matches!(waiter.join().unwrap(), Ticket::Admitted));
        let (inflight, waiting, _) = adm.snapshot();
        assert_eq!((inflight, waiting), (1, 0));
    }

    /// Regression for the Retry-After under-estimate: the mean solve
    /// latency used to average every per-rung row except `cache-hit`, so
    /// the per-netlist `verify` row (and the `mart-hit` row) dragged the
    /// mean toward zero exactly when the server was overloaded. Only
    /// actual solver rungs may contribute.
    #[test]
    fn retry_after_mean_ignores_fast_path_and_verify_rows() {
        let row = |count: u64, total_us: u64| RungLatency {
            buckets: [count, 0, 0, 0, 0],
            count,
            total_us,
        };
        let per_rung = vec![
            ("cache-hit".to_string(), row(50, 500)),
            ("joint-ilp".to_string(), row(2, 4_000_000)), // mean 2s
            ("mart-hit".to_string(), row(50, 250)),
            ("verify".to_string(), row(2, 3_000)),
        ];
        let mean = mean_solve_secs(&per_rung);
        assert!((mean - 2.0).abs() < 1e-9, "solver rows only, got {mean}s");
        // The buggy filter (everything but cache-hit) would have reported
        // (4_000_000 + 250 + 3_000) / 54 ≈ 0.074s — a 27× under-estimate.
        assert!(
            mean_solve_secs(&per_rung[..1]) == 1.0 && mean_solve_secs(&[]) == 1.0,
            "no solver history falls back to 1s"
        );
        assert!(is_solver_rung("joint-ilp") && is_solver_rung("error"));
        assert!(!is_solver_rung("cache-hit") && !is_solver_rung("mart-hit"));
        assert!(!is_solver_rung("verify"));
    }
}
