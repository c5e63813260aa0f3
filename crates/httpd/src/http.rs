//! A hand-rolled, hard-limited HTTP/1.1 request parser and response
//! writer.
//!
//! The parser reads from any [`BufRead`] and enforces explicit byte
//! limits at every stage (request line, header block, body), so a
//! malicious or broken peer can cost at most a few tens of kilobytes of
//! memory and can never hang the connection on an unbounded read.
//! Malformed input is a typed [`HttpError`] that maps to a 4xx status —
//! never a panic. Responses are written either whole
//! ([`write_response`]) or incrementally with chunked transfer encoding
//! ([`ChunkedWriter`]) for streaming solves; a whole reply, a chunk and
//! the stream's end are one write each.

use std::fmt;
use std::io::{self, BufRead, Write};

/// Longest accepted request line (`METHOD SP target SP version`).
pub const MAX_REQUEST_LINE: usize = 8 * 1024;
/// Longest accepted single header line (including obs-fold continuations).
pub const MAX_HEADER_LINE: usize = 8 * 1024;
/// Most header lines accepted per request.
pub const MAX_HEADERS: usize = 64;
/// Largest accepted request body.
pub const MAX_BODY: usize = 64 * 1024;

/// Why a request could not be parsed (or the connection ended).
#[derive(Debug)]
pub enum HttpError {
    /// The peer closed the connection before sending any bytes of a
    /// request — the clean end of a keep-alive connection, not an error
    /// to answer.
    Closed,
    /// Transport failure mid-request.
    Io(io::Error),
    /// Malformed request; answer 400 and close.
    Bad(&'static str),
    /// A size limit tripped; answer `status` (413 or 431) and close.
    TooLarge(&'static str, u16),
}

impl fmt::Display for HttpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HttpError::Closed => write!(f, "connection closed"),
            HttpError::Io(e) => write!(f, "transport error: {e}"),
            HttpError::Bad(m) => write!(f, "malformed request: {m}"),
            HttpError::TooLarge(m, _) => write!(f, "request too large: {m}"),
        }
    }
}

impl std::error::Error for HttpError {}

impl From<io::Error> for HttpError {
    fn from(e: io::Error) -> HttpError {
        HttpError::Io(e)
    }
}

impl HttpError {
    /// The status code this error answers with (0 when no answer is due:
    /// a closed or broken transport gets no response).
    pub fn status(&self) -> u16 {
        match self {
            HttpError::Closed | HttpError::Io(_) => 0,
            HttpError::Bad(_) => 400,
            HttpError::TooLarge(_, status) => *status,
        }
    }

    /// The human-readable reason to put in the error reply body.
    pub fn reason(&self) -> String {
        self.to_string()
    }
}

/// One parsed HTTP request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// Uppercase method token (`GET`, `POST`, …).
    pub method: String,
    /// The request target exactly as sent (path plus optional `?query`).
    pub target: String,
    /// Header `(name, value)` pairs in arrival order, names lowercased,
    /// obs-fold continuations already joined.
    pub headers: Vec<(String, String)>,
    /// The request body (empty without a `Content-Length`).
    pub body: Vec<u8>,
}

impl Request {
    /// The target's path component (everything before `?`).
    pub fn path(&self) -> &str {
        match self.target.split_once('?') {
            Some((p, _)) => p,
            None => &self.target,
        }
    }

    /// The target's raw query string, if any.
    pub fn query(&self) -> Option<&str> {
        self.target.split_once('?').map(|(_, q)| q)
    }

    /// Whether the query contains `key=value` or a bare `key` flag.
    pub fn query_flag(&self, key: &str, value: &str) -> bool {
        self.query()
            .map(|q| {
                q.split('&')
                    .any(|kv| kv == key || kv == format!("{key}={value}"))
            })
            .unwrap_or(false)
    }

    /// First value of header `name` (ASCII case-insensitive).
    pub fn header(&self, name: &str) -> Option<&str> {
        let lower = name.to_ascii_lowercase();
        self.headers
            .iter()
            .find(|(n, _)| *n == lower)
            .map(|(_, v)| v.as_str())
    }

    /// Whether the peer asked to close the connection after this request.
    pub fn wants_close(&self) -> bool {
        self.header("connection")
            .map(|v| v.eq_ignore_ascii_case("close"))
            .unwrap_or(false)
    }
}

/// Reads one `\n`-terminated line of at most `max` bytes (CR stripped),
/// without ever buffering more than `max` bytes. `Ok(None)` is a clean
/// EOF before any byte of the line.
fn read_line_limited<R: BufRead>(r: &mut R, max: usize) -> Result<Option<String>, HttpError> {
    let mut line: Vec<u8> = Vec::new();
    loop {
        let (found, used) = {
            let buf = r.fill_buf()?;
            if buf.is_empty() {
                if line.is_empty() {
                    return Ok(None);
                }
                return Err(HttpError::Bad("connection closed mid-line"));
            }
            match buf.iter().position(|&b| b == b'\n') {
                Some(pos) => {
                    line.extend_from_slice(&buf[..pos]);
                    (true, pos + 1)
                }
                None => {
                    line.extend_from_slice(buf);
                    (false, buf.len())
                }
            }
        };
        r.consume(used);
        if line.len() > max {
            return Err(HttpError::TooLarge("line exceeds limit", 431));
        }
        if found {
            if line.last() == Some(&b'\r') {
                line.pop();
            }
            // Header names/values must be visible ASCII (plus HT/SP);
            // raw control bytes or non-ASCII are a smuggling vector.
            if line
                .iter()
                .any(|&b| b != b'\t' && !(0x20..=0x7e).contains(&b))
            {
                return Err(HttpError::Bad("control or non-ASCII byte in line"));
            }
            return Ok(Some(String::from_utf8(line).expect("ASCII checked above")));
        }
    }
}

/// Validates an HTTP token (method or header name): RFC 7230 tchar.
fn is_token(s: &str) -> bool {
    !s.is_empty()
        && s.bytes()
            .all(|b| b.is_ascii_alphanumeric() || b"!#$%&'*+-.^_`|~".contains(&b))
}

/// Parses one request from `r`, enforcing every limit above.
///
/// # Errors
///
/// [`HttpError::Closed`] on clean EOF before a request starts (the normal
/// end of a keep-alive connection); [`HttpError::Bad`] /
/// [`HttpError::TooLarge`] for anything malformed or oversized — the
/// caller answers with [`HttpError::status`] and closes.
pub fn read_request<R: BufRead>(r: &mut R) -> Result<Request, HttpError> {
    let request_line = match read_line_limited(r, MAX_REQUEST_LINE)? {
        Some(line) => line,
        None => return Err(HttpError::Closed),
    };
    let mut parts = request_line.split(' ');
    let (method, target, version) = match (parts.next(), parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(t), Some(v), None) => (m, t, v),
        _ => {
            return Err(HttpError::Bad(
                "request line is not `METHOD SP target SP version`",
            ))
        }
    };
    if !is_token(method) || method.chars().any(|c| c.is_ascii_lowercase()) {
        return Err(HttpError::Bad("method is not an uppercase token"));
    }
    if !target.starts_with('/') {
        return Err(HttpError::Bad("target must be origin-form (start with /)"));
    }
    if version != "HTTP/1.1" && version != "HTTP/1.0" {
        return Err(HttpError::Bad("unsupported HTTP version"));
    }

    let mut headers: Vec<(String, String)> = Vec::new();
    loop {
        let line = match read_line_limited(r, MAX_HEADER_LINE)? {
            Some(line) => line,
            None => return Err(HttpError::Bad("connection closed inside header block")),
        };
        if line.is_empty() {
            break;
        }
        if line.starts_with(' ') || line.starts_with('\t') {
            // obs-fold continuation: RFC 7230 says replace the fold with
            // SP and append to the previous field value.
            let Some(last) = headers.last_mut() else {
                return Err(HttpError::Bad("header continuation before any header"));
            };
            if last.1.len() + line.len() > MAX_HEADER_LINE {
                return Err(HttpError::TooLarge("folded header exceeds limit", 431));
            }
            last.1.push(' ');
            last.1.push_str(line.trim());
            continue;
        }
        let Some((name, value)) = line.split_once(':') else {
            return Err(HttpError::Bad("header line without a colon"));
        };
        if !is_token(name) {
            // Covers embedded whitespace before the colon too, which is
            // a request-smuggling vector RFC 7230 §3.2.4 forbids.
            return Err(HttpError::Bad("header name is not a token"));
        }
        if headers.len() >= MAX_HEADERS {
            return Err(HttpError::TooLarge("too many headers", 431));
        }
        headers.push((name.to_ascii_lowercase(), value.trim().to_string()));
    }

    // Body framing: reject ambiguity outright rather than guessing.
    let te = headers
        .iter()
        .filter(|(n, _)| n == "transfer-encoding")
        .count();
    if te > 0 {
        return Err(HttpError::Bad("chunked request bodies are not supported"));
    }
    let mut content_length: Option<usize> = None;
    for (n, v) in &headers {
        if n == "content-length" {
            if content_length.is_some() {
                return Err(HttpError::Bad("duplicate content-length"));
            }
            if v.is_empty() || !v.bytes().all(|b| b.is_ascii_digit()) {
                return Err(HttpError::Bad(
                    "content-length is not a nonnegative integer",
                ));
            }
            let Ok(len) = v.parse::<usize>() else {
                return Err(HttpError::Bad("content-length overflows"));
            };
            if len > MAX_BODY {
                return Err(HttpError::TooLarge("body exceeds limit", 413));
            }
            content_length = Some(len);
        }
    }

    let mut body = vec![0u8; content_length.unwrap_or(0)];
    if !body.is_empty() {
        r.read_exact(&mut body)
            .map_err(|_| HttpError::Bad("connection closed mid-body"))?;
    }

    Ok(Request {
        method: method.to_string(),
        target: target.to_string(),
        headers,
        body,
    })
}

/// The reason phrase for the status codes this server emits.
pub fn reason_phrase(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        413 => "Payload Too Large",
        429 => "Too Many Requests",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

/// Writes a complete response with `Content-Length` framing: the head
/// and the body go out in one write.
///
/// # Errors
///
/// Propagates transport errors.
pub fn write_response<W: Write>(
    w: &mut W,
    status: u16,
    content_type: &str,
    body: &[u8],
    extra_headers: &[(&str, &str)],
    close: bool,
) -> io::Result<()> {
    let mut reply = head(status, content_type);
    write!(reply, "Content-Length: {}\r\n", body.len())?;
    for (name, value) in extra_headers {
        write!(reply, "{name}: {value}\r\n")?;
    }
    if close {
        reply.extend_from_slice(b"Connection: close\r\n");
    }
    reply.extend_from_slice(b"\r\n");
    reply.extend_from_slice(body);
    w.write_all(&reply)?;
    w.flush()
}

/// A response's status line and `Content-Type` header. Each reply is
/// built whole in memory and written with one call: on a `TCP_NODELAY`
/// socket every separate write may go out as its own segment.
fn head(status: u16, content_type: &str) -> Vec<u8> {
    format!(
        "HTTP/1.1 {status} {}\r\nContent-Type: {content_type}\r\n",
        reason_phrase(status)
    )
    .into_bytes()
}

/// An in-progress chunked-transfer response: one [`chunk`](Self::chunk)
/// per event, [`finish`](Self::finish) to terminate, each one write. A
/// transport error at any point surfaces immediately so the caller can
/// cancel the work feeding the stream.
pub struct ChunkedWriter<W: Write> {
    w: W,
}

impl<W: Write> ChunkedWriter<W> {
    /// Writes the response head and returns the chunk writer.
    ///
    /// # Errors
    ///
    /// Propagates transport errors.
    pub fn start(mut w: W, status: u16, content_type: &str) -> io::Result<ChunkedWriter<W>> {
        let mut reply = head(status, content_type);
        reply.extend_from_slice(b"Transfer-Encoding: chunked\r\nConnection: close\r\n\r\n");
        w.write_all(&reply)?;
        w.flush()?;
        Ok(ChunkedWriter { w })
    }

    /// Writes one chunk and flushes it (a streaming consumer must see
    /// events as they happen, not when a buffer fills).
    ///
    /// # Errors
    ///
    /// Propagates transport errors (e.g. the peer hung up).
    pub fn chunk(&mut self, data: &[u8]) -> io::Result<()> {
        if data.is_empty() {
            return Ok(()); // an empty chunk would terminate the stream
        }
        let mut chunk = format!("{:x}\r\n", data.len()).into_bytes();
        chunk.extend_from_slice(data);
        chunk.extend_from_slice(b"\r\n");
        self.w.write_all(&chunk)?;
        self.w.flush()
    }

    /// Terminates the stream with the zero-length chunk.
    ///
    /// # Errors
    ///
    /// Propagates transport errors.
    pub fn finish(mut self) -> io::Result<()> {
        self.w.write_all(b"0\r\n\r\n")?;
        self.w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(bytes: &[u8]) -> Result<Request, HttpError> {
        read_request(&mut io::BufReader::new(bytes))
    }

    #[test]
    fn a_simple_get_parses() {
        let r = parse(b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
        assert_eq!(r.method, "GET");
        assert_eq!(r.path(), "/healthz");
        assert_eq!(r.header("host"), Some("x"));
        assert_eq!(r.header("HOST"), Some("x"));
        assert!(r.body.is_empty());
    }

    #[test]
    fn post_body_respects_content_length_with_pipelined_tail() {
        let mut reader = io::BufReader::new(
            &b"POST /solve HTTP/1.1\r\nContent-Length: 7\r\n\r\n{\"m\":4}GET /next HTTP/1.1\r\n\r\n"[..],
        );
        let r = read_request(&mut reader).unwrap();
        assert_eq!(r.body, b"{\"m\":4}");
        // The pipelined second request is still intact in the reader.
        let r2 = read_request(&mut reader).unwrap();
        assert_eq!(r2.path(), "/next");
    }

    #[test]
    fn query_parsing_and_flags() {
        let r = parse(b"POST /solve?stream=1&x HTTP/1.1\r\n\r\n").unwrap();
        assert_eq!(r.path(), "/solve");
        assert!(r.query_flag("stream", "1"));
        assert!(r.query_flag("x", "anything"));
        assert!(!r.query_flag("stream", "2"));
    }

    #[test]
    fn obs_fold_continuations_join_with_a_space() {
        let r = parse(b"GET / HTTP/1.1\r\nX-Long: part one\r\n  part two\r\n\tpart three\r\n\r\n")
            .unwrap();
        assert_eq!(r.header("x-long"), Some("part one part two part three"));
    }

    #[test]
    fn malformed_requests_are_400_not_panics() {
        for bad in [
            &b"GET\r\n\r\n"[..],
            b"GET / HTTP/2.0\r\n\r\n",
            b"get / HTTP/1.1\r\n\r\n",
            b"GET x HTTP/1.1\r\n\r\n",
            b"GET / HTTP/1.1 extra\r\n\r\n",
            b"GET / HTTP/1.1\r\nNoColonHere\r\n\r\n",
            b"GET / HTTP/1.1\r\nBad Name: v\r\n\r\n",
            b"GET / HTTP/1.1\r\n  lead-fold: before any header\r\n\r\n",
            b"POST / HTTP/1.1\r\nContent-Length: nope\r\n\r\n",
            b"POST / HTTP/1.1\r\nContent-Length: 5\r\nContent-Length: 5\r\n\r\nhello",
            b"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n0\r\n\r\n",
            b"POST / HTTP/1.1\r\nContent-Length: 10\r\n\r\nshort",
            b"GET / HTTP/1.1\r\nX: a\x01b\r\n\r\n",
        ] {
            match parse(bad) {
                Err(HttpError::Bad(_)) => {}
                other => panic!(
                    "{:?} must be Bad, got {other:?}",
                    String::from_utf8_lossy(bad)
                ),
            }
        }
    }

    #[test]
    fn oversized_inputs_trip_limits_not_memory() {
        let long_line = format!("GET /{} HTTP/1.1\r\n\r\n", "a".repeat(MAX_REQUEST_LINE));
        assert!(matches!(
            parse(long_line.as_bytes()),
            Err(HttpError::TooLarge(_, 431))
        ));
        let mut many = String::from("GET / HTTP/1.1\r\n");
        for i in 0..=MAX_HEADERS {
            many.push_str(&format!("h{i}: v\r\n"));
        }
        many.push_str("\r\n");
        assert!(matches!(
            parse(many.as_bytes()),
            Err(HttpError::TooLarge(_, 431))
        ));
        let huge_body = format!(
            "POST / HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
            MAX_BODY + 1
        );
        assert!(matches!(
            parse(huge_body.as_bytes()),
            Err(HttpError::TooLarge(_, 413))
        ));
    }

    #[test]
    fn clean_eof_is_closed_and_midline_eof_is_bad() {
        assert!(matches!(parse(b""), Err(HttpError::Closed)));
        assert!(matches!(parse(b"GET / HT"), Err(HttpError::Bad(_))));
        assert!(matches!(
            parse(b"GET / HTTP/1.1\r\nHost: x\r\n"),
            Err(HttpError::Bad(_))
        ));
    }

    #[test]
    fn responses_and_chunked_streams_have_correct_framing() {
        let mut buf = Vec::new();
        write_response(
            &mut buf,
            429,
            "application/json",
            b"{}",
            &[("Retry-After", "3")],
            true,
        )
        .unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(text.starts_with("HTTP/1.1 429 Too Many Requests\r\n"));
        assert!(text.contains("Retry-After: 3\r\n"));
        assert!(text.contains("Content-Length: 2\r\n"));
        assert!(text.contains("Connection: close\r\n"));
        assert!(text.ends_with("\r\n\r\n{}"));

        let mut buf = Vec::new();
        let mut cw = ChunkedWriter::start(&mut buf, 200, "application/json").unwrap();
        cw.chunk(b"hello").unwrap();
        cw.chunk(b"").unwrap(); // dropped, must not terminate the stream
        cw.chunk(&[0u8; 16]).unwrap();
        cw.finish().unwrap();
        let text = String::from_utf8_lossy(&buf).to_string();
        assert!(text.contains("Transfer-Encoding: chunked\r\n"));
        assert!(text.contains("5\r\nhello\r\n"));
        assert!(text.contains("10\r\n")); // 16 bytes in hex
        assert!(text.ends_with("0\r\n\r\n"));
    }

    /// A writer that counts its `write` calls.
    #[derive(Default)]
    struct Counting {
        bytes: Vec<u8>,
        writes: usize,
    }

    impl Write for Counting {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.writes += 1;
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    /// Each reply leaves in one write: on the server's `TCP_NODELAY`
    /// socket, every write may be a packet of its own.
    #[test]
    fn every_reply_and_chunk_is_one_write() {
        let extra: [&[(&str, &str)]; 2] = [&[], &[("Retry-After", "3"), ("X-A", "b")]];
        for headers in extra {
            for close in [false, true] {
                let mut w = Counting::default();
                write_response(&mut w, 200, "application/json", b"{}\n", headers, close).unwrap();
                assert_eq!(w.writes, 1, "{headers:?}, close {close}");
                let text = String::from_utf8(w.bytes).unwrap();
                assert!(text.ends_with("\r\n\r\n{}\n"), "{text}");
                assert_eq!(text.contains("Connection: close\r\n"), close);
            }
        }

        let mut w = Counting::default();
        let mut cw = ChunkedWriter::start(&mut w, 200, "application/x-ndjson").unwrap();
        let mut writes = vec![cw.w.writes];
        cw.chunk(b"{\"event\":\"done\"}\n").unwrap();
        writes.push(cw.w.writes);
        cw.finish().unwrap();
        writes.push(w.writes);
        assert_eq!(writes, [1, 2, 3], "start, chunk and finish");
        let text = String::from_utf8(w.bytes).unwrap();
        assert!(
            text.ends_with("\r\n\r\n11\r\n{\"event\":\"done\"}\n\r\n0\r\n\r\n"),
            "{text}"
        );
    }
}
