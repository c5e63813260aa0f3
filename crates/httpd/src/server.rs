//! The long-running HTTP solve server: accept loop, admission control,
//! load shedding, per-request deadlines, and graceful drain.
//!
//! ## Request lifecycle
//!
//! ```text
//! accept (blocking) ──► parse ──► route
//!                       │ cache probe (hit answers immediately, no slot)
//!                       ▼
//!                  Solves::start (/solve, ?stream=1 and /lp alike)
//!                  │        │        │
//!                 slot     wait      shed ──► 429 + Retry-After
//!                  │     (bounded,  draining ──► 503
//!                  │      deadline-aware)
//!                  ▼
//!           solve-pool worker: SolveService::serve_with(request, budget)
//!                  │  (Model::solve_with for /lp); budget = per-request
//!                  │  deadline + cancel flag, cancelled on client
//!                  │  disconnect / server drain; the slot frees when
//!                  │  the solve returns or panics
//!                  ▼
//!           ServeOutcome JSON (or chunked incumbent stream)
//! ```
//!
//! ## Drain state machine
//!
//! `Running ──shutdown()──► Draining ──(no solve or connection left | budget up)──► Stopped`
//!
//! The accept loop blocks in `accept`. The drain, started by
//! [`ServerHandle::shutdown`] or `POST /shutdown` alike, wakes it with a
//! connection to the listener's own address, which is never served; the
//! loop then closes the listener, so new connections are refused. The
//! drain answers queued waiters and new requests on open connections with
//! 503, and gives running solves [`HttpdConfig::drain_budget`] to finish.
//! Past the budget every running solve's [`Budget`] is cancelled — the
//! solver unwinds its degradation ladder and the request still gets a
//! correct (degraded) answer. Once idle, the cache is persisted and
//! [`Server::run`] returns. Admission, the solve pool, the running
//! budgets and the drain share one state, [`Solves`].

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
use std::net::{Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::Ordering;
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// Tuning knobs of the HTTP layer (the solve pipeline itself is
/// configured on the injected [`SolveService`]).
#[derive(Debug, Clone)]
pub struct HttpdConfig {
    /// Solves allowed to run concurrently (admission slots).
    pub max_inflight: usize,
    /// Requests allowed to wait for a slot beyond `max_inflight`;
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

/// Why [`Solves::start`] turned a solve away.
#[derive(Debug, PartialEq)]
enum Refusal {
    /// Every slot is taken and the waiting room is full, or the request's
    /// own deadline passed while it waited: 429.
    Shed,
    /// The server is draining: 503.
    Draining,
}

/// A solve, boxed for a pool worker.
type Job = Box<dyn FnOnce() + Send>;

/// What [`Solves`] guards.
#[derive(Default)]
struct SolveState {
    /// The running solves' budgets by slot id, one per taken slot; the
    /// drain cancels them.
    running: HashMap<u64, Budget>,
    next_slot: u64,
    /// Requests waiting for a slot.
    waiting: usize,
    draining: bool,
    /// Pool workers with no solve, the most recently idle last.
    idle: Vec<mpsc::Sender<Job>>,
    /// Connections whose threads have not ended.
    open_conns: usize,
}

/// The server's solves as one state under one lock: admission (slots and
/// a bounded, deadline-aware waiting room), the workers that run admitted
/// solves, the running solves' budgets, the draining flag and the open
/// connections. The one condvar wakes the waiters and the drain whenever
/// a slot frees, a connection closes or the drain starts.
///
/// Admitted solves run on long-lived workers, the most recently idle
/// first. Connection threads live for one connection each. glibc's malloc
/// gives every thread an arena, and a wide solve leaves a few MiB
/// resident in the arena that ran it, so solving on connection threads
/// would make the resident set depend on how connection lifetimes
/// happened to overlap. Here a new worker starts only when every worker
/// is busy, so solves run on as many threads as ever solved at once (at
/// most `max_inflight`), and connection threads only parse and reply.
/// Idle workers exit once the state is dropped.
struct Solves {
    max_inflight: usize,
    max_queue: usize,
    state: Mutex<SolveState>,
    changed: Condvar,
}

impl Solves {
    fn new(max_inflight: usize, max_queue: usize) -> Solves {
        Solves {
            max_inflight,
            max_queue,
            state: Mutex::default(),
            changed: Condvar::new(),
        }
    }

    fn lock(&self) -> MutexGuard<'_, SolveState> {
        self.state.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Admits `solve` under `budget` and starts it on the most recently
    /// idle worker (a new one when every worker is busy), or refuses it.
    /// With every slot taken, a request waits if the waiting room has
    /// space, until a slot frees, the drain starts or its budget's
    /// deadline passes; past the deadline it could not finish even if it
    /// started, so it sheds and frees its place for one that can. The
    /// receiver gets the solve's result, or disconnects unanswered when
    /// the solve panics.
    fn start<T: Send + 'static>(
        self: &Arc<Self>,
        budget: &Budget,
        solve: impl FnOnce() -> T + Send + 'static,
    ) -> Result<mpsc::Receiver<T>, Refusal> {
        let full = |s: &mut SolveState| !s.draining && s.running.len() >= self.max_inflight;
        let mut s = self.lock();
        if full(&mut s) {
            if s.waiting >= self.max_queue {
                return Err(Refusal::Shed);
            }
            s.waiting += 1;
            s = match budget.deadline() {
                Some(d) => {
                    let left = d.saturating_duration_since(Instant::now());
                    let waited = self.changed.wait_timeout_while(s, left, full);
                    waited.unwrap_or_else(|p| p.into_inner()).0
                }
                None => self
                    .changed
                    .wait_while(s, full)
                    .unwrap_or_else(|p| p.into_inner()),
            };
            s.waiting -= 1;
            if full(&mut s) {
                return Err(Refusal::Shed);
            }
        }
        if s.draining {
            return Err(Refusal::Draining);
        }
        let id = s.next_slot;
        s.next_slot += 1;
        s.running.insert(id, budget.clone());
        let idle = s.idle.pop();
        drop(s);
        // The guard owns the slot from here, so a failed spawn frees it.
        let mut slot = Slot {
            solves: Arc::clone(self),
            id,
            worker: None,
        };
        let worker = idle.unwrap_or_else(spawn_solve_worker);
        slot.worker = Some(worker.clone());
        let (tx, rx) = mpsc::channel();
        let job: Job = Box::new(move || {
            let tx = tx;
            // Declared after `tx`, so dropped first on a panic too: the
            // slot is free before the requester hears.
            let slot = slot;
            let out = solve();
            // Idle before the answer leaves, so the requester's next
            // solve finds this worker instead of starting another.
            drop(slot);
            tx.send(out).ok();
        });
        // A worker exits only by panicking mid-job, and then it never goes
        // back on the idle stack, so this send cannot fail.
        worker.send(job).ok();
        Ok(rx)
    }

    fn draining(&self) -> bool {
        self.lock().draining
    }

    /// Admits no solve from now on and turns every waiter away;
    /// idempotent.
    fn start_drain(&self) {
        self.lock().draining = true;
        self.changed.notify_all();
    }

    fn open_conn(&self) {
        self.lock().open_conns += 1;
    }

    fn close_conn(&self) {
        self.lock().open_conns -= 1;
        self.changed.notify_all();
    }

    /// Waits, at most `budget`, until no solve runs and no connection is
    /// open. Past the budget it cancels every running solve — each unwinds
    /// its degradation ladder and still answers its client — and waits up
    /// to `budget` more for the unwind.
    fn drain(&self, budget: Duration) {
        let busy = |s: &mut SolveState| !s.running.is_empty() || s.open_conns > 0;
        let waited = self.changed.wait_timeout_while(self.lock(), budget, busy);
        let s = waited.unwrap_or_else(|p| p.into_inner()).0;
        if !s.running.is_empty() {
            for solve in s.running.values() {
                solve.cancel();
            }
            drop(self.changed.wait_timeout_while(s, budget, busy));
        }
    }
}

/// A running solve's slot. Dropping it, when the solve returns or
/// unwinds from a panic, frees the slot, forgets the budget and wakes the
/// waiters; the worker goes back on the idle stack only if the solve did
/// not panic.
struct Slot {
    solves: Arc<Solves>,
    id: u64,
    worker: Option<mpsc::Sender<Job>>,
}

impl Drop for Slot {
    fn drop(&mut self) {
        let mut s = self.solves.lock();
        s.running.remove(&self.id);
        if !std::thread::panicking() {
            s.idle.extend(self.worker.take());
        }
        drop(s);
        self.solves.changed.notify_all();
    }
}

fn spawn_solve_worker() -> mpsc::Sender<Job> {
    let (tx, rx) = mpsc::channel::<Job>();
    std::thread::spawn(move || {
        for job in rx {
            job();
        }
    });
    tx
}

/// State shared by the accept loop, every connection thread, and
/// [`ServerHandle`]s.
struct Shared {
    service: Arc<SolveService>,
    cfg: HttpdConfig,
    solves: Arc<Solves>,
    /// Where the drain's wake connects (see [`Shared::shutdown`]).
    wake: SocketAddr,
}

impl Shared {
    /// Starts the drain, for [`ServerHandle::shutdown`] and
    /// `POST /shutdown` alike, then wakes the accept loop out of `accept`
    /// with a connection of its own. A wake that cannot connect finds the
    /// loop already ended.
    fn shutdown(&self) {
        self.solves.start_drain();
        TcpStream::connect(self.wake).ok();
    }

    /// A request's budget: its own deadline, else the configured default,
    /// else none.
    fn budget(&self, deadline: Option<Duration>) -> Budget {
        match deadline.or(self.cfg.default_deadline) {
            Some(limit) => Budget::with_limit(limit),
            None => Budget::unlimited(),
        }
    }

    /// The one way a request reaches a solver: [`Solves::start`], with a
    /// solve whose budget ran out or was cancelled counted in
    /// `gomil_deadline_cancelled_total`.
    fn start<T: Send + 'static>(
        &self,
        budget: &Budget,
        solve: impl FnOnce() -> T + Send + 'static,
    ) -> Result<mpsc::Receiver<T>, Refusal> {
        let (service, spent) = (Arc::clone(&self.service), budget.clone());
        self.solves.start(budget, move || {
            let out = solve();
            if spent.check().is_err() {
                service
                    .metrics()
                    .deadline_cancelled
                    .fetch_add(1, Ordering::Relaxed);
            }
            out
        })
    }

    /// The reply to a refused solve: 429 with `Retry-After`, counted in
    /// `gomil_shed_total`, or 503 while draining.
    fn refuse(&self, stream: &mut TcpStream, refusal: Refusal, close: bool) -> io::Result<()> {
        match refusal {
            Refusal::Shed => {
                self.service.metrics().shed.fetch_add(1, Ordering::Relaxed);
                let retry = self.retry_after_secs().to_string();
                write_response(
                    stream,
                    429,
                    "application/json",
                    b"{\"error\":\"overloaded, retry later\"}\n",
                    &[("Retry-After", &retry)],
                    close,
                )
            }
            Refusal::Draining => reply_error(stream, 503, "server is draining", close),
        }
    }

    /// `Retry-After` seconds for a shed reply: the expected time for the
    /// backlog ahead of a retry to clear, from the service's mean solve
    /// latency — clamped to [1, 60] so the header is always sane even
    /// with no latency history yet.
    fn retry_after_secs(&self) -> u64 {
        let waiting = self.solves.lock().waiting;
        let report = self.service.report();
        let mean_secs = mean_solve_secs(&report.per_rung);
        let backlog = (waiting + 1) as f64 / self.solves.max_inflight as f64;
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
        self.shared.shutdown();
    }

    /// Whether drain has been initiated.
    pub fn is_draining(&self) -> bool {
        self.shared.solves.draining()
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
        // The drain's wake connects to the bound address, or to loopback
        // of the same family when it is a wildcard (`0.0.0.0`, `::`).
        let mut wake = listener.local_addr()?;
        if wake.ip().is_unspecified() {
            wake.set_ip(match wake {
                SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
                SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
            });
        }
        let solves = Arc::new(Solves::new(cfg.max_inflight.max(1), cfg.max_queue));
        Ok(Server {
            listener,
            shared: Arc::new(Shared {
                service,
                cfg,
                solves,
                wake,
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

    /// Runs the accept loop, blocked in `accept`, until the drain starts;
    /// then closes the listener, waits out the drain, persists the cache
    /// and returns. See the module docs for the drain state machine.
    ///
    /// # Errors
    ///
    /// Propagates accept-loop transport errors and the final cache
    /// persistence failure (in-flight answers are never lost to either).
    pub fn run(self) -> io::Result<()> {
        let Server { listener, shared } = self;
        loop {
            let (stream, _peer) = listener.accept()?;
            // The drain's wake, or any connection accepted after it, is
            // dropped unserved.
            if shared.solves.draining() {
                break;
            }
            shared.solves.open_conn();
            let conn = Arc::clone(&shared);
            std::thread::spawn(move || {
                let _ = handle_connection(&conn, stream);
                conn.solves.close_conn();
            });
        }

        // Draining: refuse new connections; give in-flight work the
        // budget, then cancel the stragglers.
        drop(listener);
        shared.solves.drain(shared.cfg.drain_budget);
        // No lost cache writes: persistence is the last drain step, after
        // every in-flight publish has settled.
        shared.service.persist()?;
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
                    if shared.solves.draining() {
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
            if shared.solves.draining() {
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
            shared.shutdown();
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
    let deadline = request_deadline(request, config.get("budget_ms"))?;
    Ok((SolveRequest { m: m as usize, ppg }, deadline))
}

/// A request's own deadline: the `X-Gomil-Deadline-Ms` header, else a
/// `/solve` body's `budget_ms` (both strict).
fn request_deadline(
    request: &Request,
    budget_ms: Option<&Json>,
) -> Result<Option<Duration>, String> {
    if let Some(value) = request.header("x-gomil-deadline-ms") {
        return parse_deadline_ms(value)
            .map(Some)
            .ok_or_else(|| format!("invalid X-Gomil-Deadline-Ms {value:?}"));
    }
    let Some(v) = budget_ms else {
        return Ok(None);
    };
    let ms = v
        .as_u64()
        .ok_or_else(|| "\"budget_ms\" must be a nonnegative integer".to_string())?;
    parse_deadline_ms(&ms.to_string())
        .map(Some)
        .ok_or_else(|| format!("\"budget_ms\" {ms} out of range"))
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

    let budget = shared.budget(deadline);
    let (service, solve_budget) = (Arc::clone(&shared.service), budget.clone());
    let rx = match shared.start(&budget, move || {
        service.serve_with(&solve_req, Some(&solve_budget))
    }) {
        Ok(rx) => rx,
        Err(refusal) => return shared.refuse(stream, refusal, close),
    };
    if streaming {
        return stream_solve(stream, &rx, &budget, &key);
    }
    match rx.recv().unwrap_or_else(|_| Err(worker_vanished())) {
        Ok(outcome) => reply_json(
            stream,
            200,
            &solve_reply_json(key.canonical(), fingerprint, &outcome),
            close,
        ),
        Err(e) => reply_error(stream, serve_error_status(&e), &e.to_string(), close),
    }
}

/// `POST /lp`: solve a raw CPLEX LP-format model uploaded as the request
/// body. Unlike `/solve` there is no cache (arbitrary models have no
/// design identity), but the request goes through the same admission
/// control and honors the same `X-Gomil-Deadline-Ms` header — an
/// uploaded model competes for the same solver slots as a design solve,
/// so a flood of `/lp` posts sheds instead of piling up.
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
    let deadline = match request_deadline(request, None) {
        Ok(deadline) => deadline,
        Err(message) => return reply_error(stream, 400, &message, close),
    };
    let budget = shared.budget(deadline);
    let cfg = BranchConfig {
        budget: budget.clone(),
        ..BranchConfig::default()
    };
    // An arbitrary uploaded model can trip solver panics the design
    // pipeline never would; a worker that panics answers nothing, which
    // is a 500.
    let rx = match shared.start(&budget, move || {
        let solved = model.solve_with(&cfg);
        (model, solved)
    }) {
        Ok(rx) => rx,
        Err(refusal) => return shared.refuse(stream, refusal, close),
    };
    match rx.recv() {
        Ok((model, solved)) => reply_json(stream, 200, &lp_reply_json(&model, &solved), close),
        Err(_) => reply_error(stream, 500, "solver panicked", close),
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

/// The answer to a solve whose pool worker panicked outside the service's
/// own panic containment.
fn worker_vanished() -> ServeError {
    ServeError::Panic("solve worker vanished".into())
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
    stream: &mut TcpStream,
    rx: &mpsc::Receiver<Result<ServeOutcome, ServeError>>,
    budget: &Budget,
    key: &SolveKey,
) -> io::Result<()> {
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
                    // unwinds instead of solving for nobody. It keeps its
                    // slot until the unwind ends.
                    budget.cancel();
                    return Err(io::Error::new(
                        io::ErrorKind::BrokenPipe,
                        "client disconnected during stream",
                    ));
                }
            }
            Err(RecvTimeoutError::Disconnected) => break Err(worker_vanished()),
        }
    };

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

    use std::thread::ThreadId;

    fn me() -> ThreadId {
        std::thread::current().id()
    }

    /// Starts `solve` with no deadline; it must be admitted.
    fn run<T: Send + 'static>(
        solves: &Arc<Solves>,
        solve: impl FnOnce() -> T + Send + 'static,
    ) -> mpsc::Receiver<T> {
        solves.start(&Budget::unlimited(), solve).expect("admitted")
    }

    /// Starts a solve that holds its slot until the returned sender fires
    /// (or drops), and answers with its worker's thread.
    fn hold(solves: &Arc<Solves>) -> (mpsc::Sender<()>, mpsc::Receiver<ThreadId>) {
        let (go, wait) = mpsc::channel::<()>();
        let rx = run(solves, move || {
            wait.recv().ok();
            me()
        });
        (go, rx)
    }

    /// Starts a request on another thread and returns once it waits for
    /// a slot.
    fn queue(solves: &Arc<Solves>) -> std::thread::JoinHandle<Result<ThreadId, Refusal>> {
        let before = solves.lock().waiting;
        let s = Arc::clone(solves);
        let waiter = std::thread::spawn(move || {
            s.start(&Budget::unlimited(), me)
                .map(|rx| rx.recv().unwrap())
        });
        while solves.lock().waiting == before {
            std::thread::sleep(Duration::from_millis(1));
        }
        waiter
    }

    #[test]
    fn admission_permits_queue_and_shed() {
        let solves = Arc::new(Solves::new(2, 1));
        let (go, first) = hold(&solves);
        let (_go, _second) = hold(&solves);
        // With an already-expired deadline the waiter sheds instead of
        // queueing forever.
        let expired = Budget::with_limit(Duration::ZERO);
        assert_eq!(solves.start(&expired, me).err(), Some(Refusal::Shed));
        // Queue full ⇒ a fourth concurrent request sheds at once.
        let waiter = queue(&solves);
        assert_eq!(
            solves.start(&Budget::unlimited(), me).err(),
            Some(Refusal::Shed)
        );
        go.send(()).unwrap();
        first.recv().unwrap();
        assert!(waiter.join().unwrap().is_ok());
        assert!(solves.start(&Budget::unlimited(), me).is_ok());
    }

    #[test]
    fn draining_turns_waiters_away() {
        let solves = Arc::new(Solves::new(1, 4));
        let (_go, _first) = hold(&solves);
        let waiter = queue(&solves);
        solves.start_drain();
        assert_eq!(waiter.join().unwrap().err(), Some(Refusal::Draining));
        assert_eq!(
            solves.start(&Budget::unlimited(), me).err(),
            Some(Refusal::Draining)
        );
    }

    #[test]
    fn queued_waiter_gets_the_freed_permit() {
        let solves = Arc::new(Solves::new(1, 4));
        let (go, first) = hold(&solves);
        let s = Arc::clone(&solves);
        let (next_go, next_wait) = mpsc::channel::<()>();
        let waiter = std::thread::spawn(move || {
            s.start(&Budget::unlimited(), move || next_wait.recv().ok())
        });
        while solves.lock().waiting == 0 {
            std::thread::sleep(Duration::from_millis(1));
        }
        go.send(()).unwrap();
        first.recv().unwrap();
        let next = waiter
            .join()
            .unwrap()
            .expect("the freed slot is the waiter's");
        let (running, waiting) = {
            let s = solves.lock();
            (s.running.len(), s.waiting)
        };
        assert_eq!((running, waiting), (1, 0));
        next_go.send(()).unwrap();
        next.recv().unwrap();
    }

    /// Solves one after another share one worker thread; a second starts
    /// only while the first is busy, and a worker that panics is replaced.
    #[test]
    fn solve_pool_reuses_idle_workers_and_drops_panicked_ones() {
        let solves = Arc::new(Solves::new(4, 0));
        let first = run(&solves, me).recv().unwrap();
        for _ in 0..5 {
            assert_eq!(run(&solves, me).recv().unwrap(), first);
        }
        let (go, busy) = hold(&solves);
        let second = run(&solves, me).recv().unwrap();
        assert_ne!(
            second, first,
            "the busy worker is not handed a second solve"
        );
        go.send(()).unwrap();
        assert_eq!(busy.recv().unwrap(), first);
        // Most recently idle first: `first`, which then panics.
        assert!(run(&solves, || panic!("injected solve panic"))
            .recv()
            .is_err());
        assert_eq!(run(&solves, me).recv().unwrap(), second);
    }

    /// A panicking solve hands back its slot and its budget on the way
    /// out: with one slot and no waiting room, the next solve is admitted,
    /// not shed, and runs on a new worker.
    #[test]
    fn a_panicked_solve_frees_its_slot() {
        let solves = Arc::new(Solves::new(1, 0));
        let first = run(&solves, me).recv().unwrap();
        assert!(run(&solves, || panic!("injected solve panic"))
            .recv()
            .is_err());
        assert!(solves.lock().running.is_empty());
        let next = solves
            .start(&Budget::unlimited(), me)
            .expect("admitted, not shed")
            .recv()
            .unwrap();
        assert_ne!(next, first, "the panicked worker is not reused");
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
