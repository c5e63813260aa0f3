//! The `serve-zipf` workload: the real `gomil serve` process with a mart
//! built over m ∈ {16, 32, 64}, driven by two closed-loop client threads
//! that each send `POST /solve` on a fresh connection per request.

use crate::gen::{keys_at, tier_score, Key, References, Tally};
use crate::stats::{self, Rng};
use gomil::{DesignMetrics, GomilConfig, SolveKey, VerdictTier};
use gomil_httpd::client::{self, read_response};
use gomil_httpd::{parse_json, Json};
use std::collections::{BTreeMap, BTreeSet};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::sync::Mutex;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Client threads, open connections and mart build jobs: one per vCPU of
/// the two-vCPU host the benchmark is sized for.
pub const CLIENTS: usize = 2;

/// What one session sends.
pub struct SessionSpec {
    /// Widths of the mart lattice (every supported PPG at each).
    pub mart_ms: Vec<usize>,
    /// Widths the Zipf draws from (every supported PPG at each).
    pub ms: std::ops::RangeInclusive<usize>,
    /// Closed-loop requests sent per session.
    pub requests: usize,
}

/// Zipf exponent over key ranks.
const ZIPF_EXPONENT: f64 = 1.2;

/// `serve-zipf` sized by the run length: 100 requests per second asked
/// for, about what two clients complete against the 10-ms accept poll.
pub fn serve_zipf(seconds: f64) -> SessionSpec {
    SessionSpec {
        mart_ms: vec![16, 32, 64],
        ms: 9..=64,
        requests: (100.0 * seconds).round().max(200.0) as usize,
    }
}

/// The short session a traced generator run uses to measure the serve,
/// HTTP and mart layers its own traffic never reaches.
pub fn serve_probe() -> SessionSpec {
    SessionSpec {
        mart_ms: vec![16],
        ms: 9..=20,
        requests: 200,
    }
}

impl SessionSpec {
    pub fn mart_keys(&self) -> Vec<Key> {
        keys_at(self.mart_ms.iter().copied())
    }

    /// Keys by Zipf rank: the mart keys at the head, then the rest by
    /// descending width. The dear wide misses are popular enough to be
    /// drawn under every seed, and the seed only decides which of the cheap
    /// narrow ones appear, so the solver work per run barely depends on it.
    fn ranked_keys(&self) -> Vec<Key> {
        let mut keys = self.mart_keys();
        let head: BTreeSet<_> = keys.iter().map(Key::order).collect();
        keys.extend(
            keys_at(self.ms.clone().rev())
                .into_iter()
                .filter(|k| !head.contains(&k.order())),
        );
        keys
    }

    /// The keys whose designs a traced run replays in-process: the
    /// highest-ranked key of each PPG outside the mart. They do not depend
    /// on the seed, so the generator layers' figures move only with the
    /// code.
    pub fn replay_keys(&self) -> Vec<Key> {
        let mart = self.mart_keys().len();
        let mut keys: Vec<Key> = Vec::new();
        for key in self.ranked_keys().into_iter().skip(mart) {
            if keys.iter().all(|k| k.ppg != key.ppg) {
                keys.push(key);
            }
        }
        keys
    }

    /// The seeded request sequence.
    pub fn requests(&self, seed: u64) -> Vec<Key> {
        let keys = self.ranked_keys();
        let mut cdf = Vec::with_capacity(keys.len());
        let mut total = 0.0;
        for rank in 1..=keys.len() {
            total += (rank as f64).powf(-ZIPF_EXPONENT);
            cdf.push(total);
        }
        let mut rng = Rng::new(seed);
        (0..self.requests)
            .map(|_| {
                let u = rng.unit() * total;
                keys[cdf.partition_point(|&c| c <= u).min(keys.len() - 1)]
            })
            .collect()
    }
}

/// A running `gomil serve` child process.
pub struct Server {
    child: Child,
    pub addr: String,
    readers: Vec<JoinHandle<()>>,
}

/// Drains a child's pipe on its own thread, forwarding lines to `tx`.
fn forward<R: Read + Send + 'static>(pipe: R, tx: mpsc::Sender<String>) -> JoinHandle<()> {
    std::thread::spawn(move || {
        for line in BufReader::new(pipe).lines().map_while(Result::ok) {
            let _ = tx.send(line);
        }
    })
}

fn get(addr: &str, path: &str) -> std::io::Result<client::HttpResponse> {
    client::request(addr, "GET", path, &[], b"")
}

impl Server {
    /// Spawns the server on an ephemeral port and waits until
    /// `GET /healthz` answers 200. Returns the server and its boot time.
    pub fn spawn(gomil: &Path, mart: &Path, dir: &Path) -> Result<(Server, Duration), String> {
        let t0 = Instant::now();
        let mut child = Command::new(gomil)
            .args([
                "serve",
                "--listen",
                "127.0.0.1:0",
                "--no-cache-file",
                "--mart",
            ])
            .arg(mart)
            .current_dir(dir)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", gomil.display()))?;
        let (tx, rx) = mpsc::channel();
        let readers = vec![
            forward(child.stdout.take().expect("stdout is piped"), tx.clone()),
            forward(child.stderr.take().expect("stderr is piped"), tx),
        ];
        let mut server = Server {
            child,
            addr: String::new(),
            readers,
        };
        let deadline = t0 + Duration::from_secs(60);
        while server.addr.is_empty() {
            let left = deadline.saturating_duration_since(Instant::now());
            match rx.recv_timeout(left) {
                Ok(line) => {
                    if let Some(rest) = line.split("listening on http://").nth(1) {
                        server.addr = rest.split_whitespace().next().unwrap_or("").to_string();
                    }
                }
                Err(_) => {
                    server.kill();
                    return Err("server never reported its address".into());
                }
            }
        }
        loop {
            if get(&server.addr, "/healthz").is_ok_and(|r| r.status == 200) {
                return Ok((server, t0.elapsed()));
            }
            if Instant::now() > deadline {
                server.kill();
                return Err("GET /healthz never answered 200".into());
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    pub fn pid(&self) -> String {
        self.child.id().to_string()
    }

    fn kill(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        for r in self.readers.drain(..) {
            let _ = r.join();
        }
    }

    /// `POST /shutdown`, then waits for the drained process to exit 0.
    pub fn shutdown(mut self) -> Result<(), String> {
        let reply = client::request(&self.addr, "POST", "/shutdown", &[], b"");
        let deadline = Instant::now() + Duration::from_secs(60);
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) => {
                    for r in self.readers.drain(..) {
                        let _ = r.join();
                    }
                    return match (reply, status.success()) {
                        (Ok(r), true) if r.status == 200 => Ok(()),
                        (reply, _) => Err(format!(
                            "shutdown answered {:?}, server exited with {status}",
                            reply.map(|r| r.status)
                        )),
                    };
                }
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(5))
                }
                _ => {
                    self.kill();
                    return Err("server did not drain after POST /shutdown".into());
                }
            }
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if !self.readers.is_empty() {
            self.kill();
        }
    }
}

/// `gomil mart build --jobs 2` over `ms`, timed.
pub fn build_mart(gomil: &Path, out: &Path, ms: &[usize], dir: &Path) -> Result<Duration, String> {
    let list: Vec<String> = ms.iter().map(usize::to_string).collect();
    let t0 = Instant::now();
    let output = Command::new(gomil)
        .args([
            "mart",
            "build",
            "--jobs",
            &CLIENTS.to_string(),
            "--ms",
            &list.join(","),
            "--out",
        ])
        .arg(out)
        .current_dir(dir)
        .stdin(Stdio::null())
        .output()
        .map_err(|e| format!("spawn {}: {e}", gomil.display()))?;
    let took = t0.elapsed();
    if !output.status.success() {
        return Err(format!(
            "mart build exited with {}: {}",
            output.status,
            String::from_utf8_lossy(&output.stderr).trim()
        ));
    }
    Ok(took)
}

/// One reply as the client saw it.
struct Reply {
    latency_ms: f64,
    status: Result<u16, String>,
    body: Option<Json>,
}

fn num(j: &Json, key: &str) -> Option<f64> {
    match j.get(key)? {
        Json::Num(x) => Some(*x),
        _ => None,
    }
}

fn flag(j: &Json, key: &str) -> Option<bool> {
    match j.get(key)? {
        Json::Bool(b) => Some(*b),
        _ => None,
    }
}

fn body_for(key: Key) -> String {
    format!("{{\"m\":{},\"ppg\":\"{}\"}}", key.m, key.ppg.label())
}

/// Everything a session measured.
pub struct Session {
    pub setup_s: Vec<f64>,
    pub mart_build_s: Vec<f64>,
    pub boot_ms: Vec<f64>,
    pub wall_s: f64,
    pub peak_rss_mb: f64,
    /// Client latency of requests for keys already answered before (the
    /// mart keys and every repeat).
    pub hit_ms: Vec<f64>,
    pub keepalive_ms: Vec<f64>,
    pub shed: u64,
    pub prometheus: BTreeMap<String, f64>,
    /// Keys that reached the solver, in first-request order.
    pub misses: Vec<Key>,
}

/// Set-up times of one session, one entry per repeat.
#[derive(Default)]
struct SetupTimes {
    setup_s: Vec<f64>,
    mart_build_s: Vec<f64>,
    boot_ms: Vec<f64>,
}

impl SetupTimes {
    /// One set-up: build a fresh mart, then boot a server on it.
    fn repeat(&mut self, spec: &SessionSpec, gomil: &Path, dir: &Path) -> Result<Server, String> {
        let mart = dir.join(format!("designs-{}.mart", self.setup_s.len()));
        let built = build_mart(gomil, &mart, &spec.mart_ms, dir)?;
        let (server, boot) = Server::spawn(gomil, &mart, dir)?;
        self.setup_s.push((built + boot).as_secs_f64());
        self.mart_build_s.push(built.as_secs_f64());
        self.boot_ms.push(boot.as_secs_f64() * 1e3);
        Ok(server)
    }
}

/// Builds the mart and boots the server, runs the closed loop on it and
/// drains it. Two more set-ups after the loop give the set-up median
/// samples from both ends of the run.
pub fn run(
    spec: &SessionSpec,
    seed: u64,
    gomil: &Path,
    dir: &Path,
    traced: bool,
    tally: &mut Tally,
) -> Result<Session, String> {
    let mut times = SetupTimes::default();
    let server = times.repeat(spec, gomil, dir)?;

    let requests = spec.requests(seed);
    let fingerprint = GomilConfig::default().solve_fingerprint();
    let replies: Mutex<Vec<Option<Reply>>> =
        Mutex::new((0..requests.len()).map(|_| None).collect());
    let next = AtomicUsize::new(0);
    let t0 = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..CLIENTS {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(&key) = requests.get(i) else { break };
                let sent = Instant::now();
                let result = client::post_json(&server.addr, "/solve", &body_for(key));
                let latency_ms = sent.elapsed().as_secs_f64() * 1e3;
                let reply = match result {
                    Ok(r) => Reply {
                        latency_ms,
                        status: Ok(r.status),
                        body: parse_json(&r.text()).ok(),
                    },
                    Err(e) => Reply {
                        latency_ms,
                        status: Err(e.to_string()),
                        body: None,
                    },
                };
                replies
                    .lock()
                    .expect("no client thread panics holding the lock")[i] = Some(reply);
            });
        }
    });
    let wall_s = t0.elapsed().as_secs_f64();
    let replies = replies.into_inner().expect("client threads have ended");

    // Scraped before the keep-alive replay, so the shares describe the
    // workload's own requests.
    let prometheus = get(&server.addr, "/metrics")
        .map(|r| parse_prometheus(&r.text()))
        .unwrap_or_default();
    let mut keepalive_ms = Vec::new();
    if traced {
        keepalive_ms = keepalive_hits(&server.addr, &spec.mart_keys(), 200)
            .inspect_err(|e| tally.fail(format!("keep-alive replay: {e}")))
            .unwrap_or_default();
    }
    let peak_rss_mb = stats::peak_rss_mb(&server.pid()).unwrap_or(f64::NAN);
    if let Err(e) = server.shutdown() {
        tally.fail(e);
    }
    for _ in 0..2 {
        times.repeat(spec, gomil, dir)?.shutdown()?;
    }

    // Checks and quality, after the clock stopped.
    let mut seen: BTreeSet<_> = spec.mart_keys().iter().map(Key::order).collect();
    let mut misses = Vec::new();
    let mut hit_ms = Vec::new();
    let mut shed = 0;
    let mut answers: Vec<(Key, f64, DesignMetrics)> = Vec::new();
    for (key, reply) in requests.iter().zip(replies) {
        tally.attempted += 1;
        let Some(reply) = reply else {
            tally.fail(format!("{key}: never sent"));
            continue;
        };
        if seen.insert(key.order()) {
            misses.push(*key);
        } else {
            hit_ms.push(reply.latency_ms);
        }
        tally.latencies_ms.push(reply.latency_ms);
        match &reply.status {
            Ok(200) => {}
            Ok(code) => {
                shed += u64::from(matches!(code, 429 | 503));
                tally.fail(format!("{key}: HTTP {code}"));
                continue;
            }
            Err(e) => {
                tally.fail(format!("{key}: transport: {e}"));
                continue;
            }
        }
        let expected_key = SolveKey::new(key.m, key.ppg, &fingerprint);
        let body = reply.body.as_ref();
        let outcome = body.and_then(|b| b.get("outcome"));
        let echoed = outcome.is_some_and(|o| {
            o.get("m").and_then(Json::as_u64) == Some(key.m as u64)
                && o.get("ppg").and_then(Json::as_str) == Some(key.ppg.label())
        }) && body.and_then(|b| b.get("key")).and_then(Json::as_str)
            == Some(expected_key.canonical());
        let Some(o) = outcome.filter(|_| echoed) else {
            tally.fail(format!("{key}: reply does not echo m, ppg and key"));
            continue;
        };
        if flag(o, "degraded") != Some(false) {
            tally.degraded += 1;
        }
        let tier = match o.get("verdict").and_then(Json::as_str) {
            Some("proved") => VerdictTier::Proved,
            Some("tested") => VerdictTier::Tested,
            Some("skipped") => VerdictTier::Skipped,
            _ => VerdictTier::Failed,
        };
        tally.tier_sum += tier_score(tier);
        tally.proved += u64::from(tier == VerdictTier::Proved);
        if flag(o, "verified") != Some(true) {
            tally.fail(format!("{key}: reply is not verified"));
            continue;
        }
        match (
            num(o, "objective"),
            num(o, "area"),
            num(o, "delay"),
            num(o, "power"),
        ) {
            (Some(objective), Some(area), Some(delay), Some(power)) => {
                answers.push((*key, objective, DesignMetrics { area, delay, power }))
            }
            _ => tally.fail(format!("{key}: reply lacks objective or metrics")),
        }
    }
    let keys: Vec<Key> = answers.iter().map(|a| a.0).collect();
    let refs = References::build(&keys, &GomilConfig::default());
    for (key, objective, metrics) in &answers {
        if let Err(e) = refs.score(*key, *objective, metrics, &mut tally.quality) {
            tally.fail(e);
        }
    }

    Ok(Session {
        setup_s: times.setup_s,
        mart_build_s: times.mart_build_s,
        boot_ms: times.boot_ms,
        wall_s,
        peak_rss_mb,
        hit_ms,
        keepalive_ms,
        shed,
        prometheus,
        misses,
    })
}

/// Replays hot keys over one keep-alive connection and returns each
/// request's latency.
fn keepalive_hits(addr: &str, keys: &[Key], count: usize) -> Result<Vec<f64>, String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| e.to_string())?;
    stream.set_nodelay(true).ok();
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .map_err(|e| e.to_string())?;
    let mut reader = BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
    let mut out = Vec::with_capacity(count);
    for i in 0..count {
        let body = body_for(keys[i % keys.len()]);
        let sent = Instant::now();
        write!(
            stream,
            "POST /solve HTTP/1.1\r\nHost: {addr}\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        )
        .and_then(|()| stream.flush())
        .map_err(|e| e.to_string())?;
        let reply = read_response(&mut reader).map_err(|e| e.to_string())?;
        out.push(sent.elapsed().as_secs_f64() * 1e3);
        if reply.status != 200 {
            return Err(format!("keep-alive hit answered {}", reply.status));
        }
    }
    Ok(out)
}

/// `name value` and `name{labels} value` lines of a Prometheus text page.
fn parse_prometheus(text: &str) -> BTreeMap<String, f64> {
    text.lines()
        .filter(|l| !l.starts_with('#'))
        .filter_map(|l| {
            let (name, value) = l.rsplit_once(' ')?;
            Some((name.to_string(), value.parse().ok()?))
        })
        .collect()
}

/// The server's own mean latency over the given rungs, in milliseconds.
pub fn rung_mean_ms(prom: &BTreeMap<String, f64>, rungs: &[&str]) -> f64 {
    let (mut sum, mut count) = (0.0, 0.0);
    for rung in rungs {
        sum += prom
            .get(&format!("gomil_rung_latency_ms_sum{{rung=\"{rung}\"}}"))
            .unwrap_or(&0.0);
        count += prom
            .get(&format!("gomil_rung_latency_ms_count{{rung=\"{rung}\"}}"))
            .unwrap_or(&0.0);
    }
    stats::share(sum, count)
}

const SCRATCH: &str = ".bench_tmp";

/// A fresh per-run directory inside the checkout for the mart files and
/// the server's working directory.
pub fn scratch_dir() -> Result<PathBuf, String> {
    let dir = PathBuf::from(SCRATCH).join(format!("run-{}", std::process::id()));
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    dir.canonicalize()
        .map_err(|e| format!("{}: {e}", dir.display()))
}

/// Removes a directory made by [`scratch_dir`], and its parent once no
/// other run uses it.
pub fn remove_scratch(dir: &Path) {
    let _ = std::fs::remove_dir_all(dir);
    let _ = std::fs::remove_dir(SCRATCH);
}
