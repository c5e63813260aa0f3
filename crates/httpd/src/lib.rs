//! # gomil-httpd — serving GOMIL solves over HTTP
//!
//! A long-running HTTP/1.1 server over [`std::net::TcpListener`] — no
//! external dependencies, hand-rolled request parsing and chunked
//! responses — that fronts a [`gomil_serve::SolveService`] with the
//! robustness layer every production solver needs:
//!
//! * **admission control** — a fixed number of concurrent solve slots
//!   plus a bounded, deadline-aware waiting room, with admitted solves
//!   run on long-lived workers;
//! * **load shedding** — arrivals past the queue bound (or whose own
//!   deadline cannot be met) answer `429 Too Many Requests` with a
//!   `Retry-After` estimate instead of piling up;
//! * **per-request deadlines** — `X-Gomil-Deadline-Ms` header or
//!   `budget_ms` body field becomes a [`gomil_budget::Budget`] threaded
//!   into the solver; cancellation (deadline, client disconnect, drain)
//!   degrades the solve down its fallback ladder rather than failing it;
//! * **graceful drain** — `POST /shutdown` (or [`ServerHandle::shutdown`])
//!   wakes the blocked accept loop and closes the listener, so new
//!   connections are refused, lets in-flight work finish within a drain
//!   budget, cancels stragglers, persists the cache, and exits cleanly.
//!
//! ## Endpoints
//!
//! | Endpoint | Behaviour |
//! |---|---|
//! | `POST /solve` | JSON config → certified outcome JSON |
//! | `POST /solve?stream=1` | chunked NDJSON: heartbeats, incumbents, `done` |
//! | `POST /lp` | LP-format model → status, objective, gap, certified assignment |
//! | `GET /design/{fingerprint}` | cache lookup by solve fingerprint, 404 on miss |
//! | `GET /metrics` | Prometheus text exposition |
//! | `GET /healthz` | `200 ok` / `503 draining` |
//! | `POST /shutdown` | initiate graceful drain |
//!
//! Cached results bypass admission control entirely: a hot cache keeps
//! answering even while the solve queue sheds.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
mod http;
mod json;
mod server;

pub use http::{
    read_request, reason_phrase, write_response, ChunkedWriter, HttpError, Request, MAX_BODY,
    MAX_HEADERS, MAX_HEADER_LINE, MAX_REQUEST_LINE,
};
pub use json::{parse as parse_json, Json};
pub use server::{HttpdConfig, Server, ServerHandle};
