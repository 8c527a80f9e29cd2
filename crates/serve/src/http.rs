//! A hand-rolled HTTP/1.1 request parser and response writer.
//!
//! The build environment has no registry access, so the service speaks
//! HTTP through the same kind of minimal, strictly-bounded
//! implementation as the vendored dependency shims: no allocations
//! proportional to attacker-controlled sizes, hard caps on the head and
//! body, and a typed error for every way a request can go wrong so the
//! server can answer with the right status code (or silently hang up
//! when the wire died mid-request and no answer can reach anyone).
//!
//! A request is parsed in place. Each read lands in the free tail of
//! the connection's one buffer and offers the transport at least
//! [`MIN_READ`] bytes, so a pipelined batch of a few kilobytes arrives
//! in one read. [`HttpConn::read_request`] returns a [`Request`] whose
//! method, path, query, header lines and body borrow that buffer;
//! consuming it only moves the buffer's start offset, and the unread
//! bytes move to the front only when a read needs the room. The head is
//! checked once, when it is complete, and a header is then looked up in
//! place by its case-insensitive name.
//!
//! The parser is transport-generic — anything `Read + Write` — which is
//! what lets the test suite drive it over in-memory scripted streams
//! and the [`FaultTransport`](crate::transport::FaultTransport) wrapper
//! without a socket in sight.

use std::io::{self, Read, Write};

use simty::obs::json_string;

/// Hard caps applied while parsing one request.
#[derive(Debug, Clone, Copy)]
pub struct Limits {
    /// Maximum size of the head (request line + headers + blank line).
    pub max_head: usize,
    /// Maximum declared (and read) body size.
    pub max_body: usize,
}

impl Default for Limits {
    fn default() -> Self {
        Limits {
            max_head: 8 * 1024,
            max_body: 64 * 1024,
        }
    }
}

/// Maximum number of headers accepted in one request.
pub const MAX_HEADERS: usize = 64;

/// The least free room each read offers the transport. The buffer never
/// holds more than one request's head and body (within [`Limits`]) plus
/// one read.
pub const MIN_READ: usize = 16 * 1024;

/// A parsed request, borrowing the connection's buffer.
#[derive(Debug, Clone, Copy)]
pub struct Request<'a> {
    /// Upper-cased method (`GET`, `POST`).
    pub method: &'a str,
    /// The path component of the request target (before any `?`).
    pub path: &'a str,
    /// The raw query string (after `?`), empty when absent.
    pub query: &'a str,
    /// The header lines as they arrived, `\r\n`-separated; each one was
    /// checked to be `name: value`.
    header_lines: &'a str,
    /// The request body (empty unless `Content-Length` was given).
    pub body: &'a [u8],
}

impl<'a> Request<'a> {
    /// The trimmed value of header `name`, matched case-insensitively;
    /// the last of duplicates wins (duplicate `content-length` headers
    /// that disagree were refused by the parser).
    pub fn header(&self, name: &str) -> Option<&'a str> {
        crlf_lines(self.header_lines)
            .filter_map(|line| line.split_once(':'))
            .filter(|(n, _)| n.eq_ignore_ascii_case(name))
            .last()
            .map(|(_, value)| value.trim())
    }

    /// Whether the client asked for the connection to close after this
    /// exchange.
    pub fn wants_close(&self) -> bool {
        self.header("connection")
            .map(|v| v.eq_ignore_ascii_case("close"))
            .unwrap_or(false)
    }

    /// The value of query parameter `key`, if present (`k=v` pairs
    /// joined by `&`; no percent-decoding — the API's identifiers are
    /// restricted to URL-safe characters by construction).
    pub fn query_param(&self, key: &str) -> Option<&'a str> {
        self.query.split('&').find_map(|pair| {
            let (k, v) = pair.split_once('=')?;
            (k == key).then_some(v)
        })
    }

    /// The body as UTF-8, or `None` if it is not valid UTF-8.
    pub fn body_utf8(&self) -> Option<&'a str> {
        std::str::from_utf8(self.body).ok()
    }
}

/// Every way reading one request can fail.
#[derive(Debug)]
pub enum RequestError {
    /// Clean end of stream at a request boundary — not an error, the
    /// peer is simply done.
    Closed,
    /// The stream ended mid-request (torn request): nothing can be
    /// answered, the connection is just dropped.
    Truncated,
    /// No bytes arrived within the per-request deadline (slowloris or a
    /// stalled peer) → `408 Request Timeout`.
    Timeout,
    /// The head exceeded [`Limits::max_head`] → `431`.
    HeadTooLarge,
    /// The declared body exceeded [`Limits::max_body`] → `413`.
    BodyTooLarge,
    /// The request is syntactically invalid → `400` with a reason.
    Malformed(String),
    /// The method is not `GET`/`POST` → `405`.
    MethodNotAllowed(String),
    /// Any other transport error (reset, broken pipe, injected fault).
    Io(io::Error),
}

impl RequestError {
    /// The HTTP status this error maps to, or `None` when no response
    /// can be written (the wire is gone or was never a request).
    pub fn status(&self) -> Option<(u16, &'static str)> {
        match self {
            RequestError::Closed | RequestError::Truncated | RequestError::Io(_) => None,
            RequestError::Timeout => Some((408, "Request Timeout")),
            RequestError::HeadTooLarge => Some((431, "Request Header Fields Too Large")),
            RequestError::BodyTooLarge => Some((413, "Content Too Large")),
            RequestError::Malformed(_) => Some((400, "Bad Request")),
            RequestError::MethodNotAllowed(_) => Some((405, "Method Not Allowed")),
        }
    }

    /// A short machine-readable code for the error body.
    pub fn code(&self) -> &'static str {
        match self {
            RequestError::Closed => "closed",
            RequestError::Truncated => "truncated",
            RequestError::Timeout => "deadline",
            RequestError::HeadTooLarge => "head-too-large",
            RequestError::BodyTooLarge => "body-too-large",
            RequestError::Malformed(_) => "malformed",
            RequestError::MethodNotAllowed(_) => "method-not-allowed",
            RequestError::Io(_) => "io",
        }
    }
}

impl std::fmt::Display for RequestError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RequestError::Closed => write!(f, "connection closed"),
            RequestError::Truncated => write!(f, "stream ended mid-request"),
            RequestError::Timeout => write!(f, "request deadline expired"),
            RequestError::HeadTooLarge => write!(f, "request head too large"),
            RequestError::BodyTooLarge => write!(f, "request body too large"),
            RequestError::Malformed(why) => write!(f, "malformed request: {why}"),
            RequestError::MethodNotAllowed(m) => write!(f, "method not allowed: {m}"),
            RequestError::Io(e) => write!(f, "transport error: {e}"),
        }
    }
}

/// Buffered response bytes past which [`HttpConn::write_response`]
/// sends at once, so a client that pipelines many requests without
/// reading cannot grow the output buffer without bound.
pub const MAX_BUFFERED_OUTPUT: usize = 64 * 1024;

/// One HTTP connection: a transport, the input buffer that keep-alive
/// pipelining requires (bytes after one request's body are the next
/// request's prefix), and an output buffer of responses not yet sent.
///
/// The input buffer's bytes `start..end` are received and not yet
/// consumed; `end..` is room for the next read, zeroed once when the
/// buffer grows.
///
/// [`write_response`](Self::write_response) only appends to the output
/// buffer. The buffer goes to the transport (one `write_all`, then one
/// `flush`) when:
///
/// * the connection is about to block on a read (so every response to a
///   pipelined batch that arrived in one read leaves in one write);
/// * it passes [`MAX_BUFFERED_OUTPUT`];
/// * the owner calls [`flush`](Self::flush), which the server does when
///   it closes the connection and after answering an error.
///
/// A client that sends one request and waits for its answer sees the
/// same transport calls as an unbuffered writer: the response is written
/// and flushed right before the next read.
#[derive(Debug)]
pub struct HttpConn<S> {
    stream: S,
    buf: Vec<u8>,
    start: usize,
    end: usize,
    /// How far past `start` the head-end search has found no terminator.
    scanned: usize,
    out: Vec<u8>,
    limits: Limits,
}

impl<S: Read + Write> HttpConn<S> {
    /// Wraps a transport. The input buffer is allocated by the first read.
    pub fn new(stream: S, limits: Limits) -> Self {
        HttpConn {
            stream,
            buf: Vec::new(),
            start: 0,
            end: 0,
            scanned: 0,
            out: Vec::new(),
            limits,
        }
    }

    /// The underlying transport (for shutdown calls etc.).
    pub fn stream_mut(&mut self) -> &mut S {
        &mut self.stream
    }

    /// Sends buffered output, then reads once into the buffer's free
    /// tail. When less than [`MIN_READ`] is free, the unconsumed bytes
    /// first move to the front, and the buffer grows only if that still
    /// leaves too little room.
    fn fill(&mut self) -> Result<usize, RequestError> {
        self.flush().map_err(RequestError::Io)?;
        if self.buf.len() - self.end < MIN_READ {
            self.buf.copy_within(self.start..self.end, 0);
            self.end -= self.start;
            self.start = 0;
            let want = self.end + MIN_READ;
            if self.buf.len() < want {
                self.buf.reserve_exact(want - self.buf.len());
                self.buf.resize(want, 0);
            }
        }
        match self.stream.read(&mut self.buf[self.end..]) {
            Ok(n) => {
                self.end += n;
                Ok(n)
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => Ok(usize::MAX),
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                Err(RequestError::Timeout)
            }
            Err(e) => Err(RequestError::Io(e)),
        }
    }

    /// Reads until the unconsumed bytes hold a whole head; returns its
    /// length (before the blank line).
    fn read_head(&mut self) -> Result<usize, RequestError> {
        loop {
            let pending = &self.buf[self.start..self.end];
            if let Some(at) = find_head_end(pending, self.scanned) {
                return Ok(at);
            }
            // A terminator can still start in the last three bytes.
            self.scanned = pending.len().saturating_sub(3);
            // A head of `max_head` bytes ends `max_head + 4` bytes in.
            if pending.len() >= self.limits.max_head + 4 {
                return Err(RequestError::HeadTooLarge);
            }
            match self.fill()? {
                0 if self.start == self.end => return Err(RequestError::Closed),
                0 => return Err(RequestError::Truncated),
                _ => {}
            }
        }
    }

    /// Reads and parses the next request, honouring the limits.
    ///
    /// # Errors
    ///
    /// See [`RequestError`]; `Closed` means the peer finished cleanly.
    pub fn read_request(&mut self) -> Result<Request<'_>, RequestError> {
        let head_len = self.read_head()?;
        if head_len > self.limits.max_head {
            return Err(RequestError::HeadTooLarge);
        }
        let head = Head::parse(&self.buf[self.start..self.start + head_len])?;
        if head.content_length > self.limits.max_body {
            return Err(RequestError::BodyTooLarge);
        }
        let len = head_len + 4 + head.content_length; // 4: "\r\n\r\n"
        while self.end - self.start < len {
            if self.fill()? == 0 {
                return Err(RequestError::Truncated);
            }
        }
        let at = self.start;
        self.start += len;
        self.scanned = 0;
        head.request(&self.buf[at..self.start])
    }

    /// Appends `response` to the output buffer, sending the buffer if
    /// it passed [`MAX_BUFFERED_OUTPUT`] (see the flush rule on
    /// [`HttpConn`]).
    ///
    /// # Errors
    ///
    /// Propagates the transport's write error when the buffer is sent.
    pub fn write_response(&mut self, response: &Response) -> io::Result<()> {
        response.write_to(&mut self.out);
        if self.out.len() >= MAX_BUFFERED_OUTPUT {
            self.flush()?;
        }
        Ok(())
    }

    /// Sends the buffered responses: one `write_all` and one `flush` of
    /// the transport, nothing when the buffer is empty. The buffer is
    /// emptied even when the write fails (the wire is gone).
    ///
    /// # Errors
    ///
    /// Propagates the transport's write or flush error.
    pub fn flush(&mut self) -> io::Result<()> {
        if self.out.is_empty() {
            return Ok(());
        }
        let sent = self
            .stream
            .write_all(&self.out)
            .and_then(|()| self.stream.flush());
        self.out.clear();
        sent
    }
}

/// A checked head, as offsets into its own bytes, so the body can be
/// read before the [`Request`] borrows the buffer.
struct Head {
    /// Length of the head (before the blank line).
    len: usize,
    method_len: usize,
    target_len: usize,
    /// Where the header lines start: past the request line's `\r\n`.
    header_lines_at: usize,
    content_length: usize,
}

impl Head {
    /// Checks the head `bytes` (before the blank line): request line,
    /// version, method, target, each header line, then the body headers.
    fn parse(bytes: &[u8]) -> Result<Head, RequestError> {
        let text = head_text(bytes)?;
        let mut lines = crlf_lines(text);
        let start = lines.next().unwrap_or_default();
        let mut parts = start.split(' ');
        let (method, target, version) = match (parts.next(), parts.next(), parts.next()) {
            (Some(m), Some(t), Some(v)) if parts.next().is_none() && !m.is_empty() => (m, t, v),
            _ => {
                return Err(RequestError::Malformed(format!(
                    "bad request line `{}`",
                    truncate_for_log(start)
                )))
            }
        };
        if version != "HTTP/1.1" && version != "HTTP/1.0" {
            return Err(RequestError::Malformed(format!("bad version `{version}`")));
        }
        if method != "GET" && method != "POST" {
            return Err(RequestError::MethodNotAllowed(method.to_owned()));
        }
        if !target.starts_with('/') {
            return Err(RequestError::Malformed(format!(
                "bad target `{}`",
                truncate_for_log(target)
            )));
        }

        let mut count = 0usize;
        let mut content_length = None;
        let mut chunked = false;
        for line in lines {
            if line.is_empty() {
                continue;
            }
            count += 1;
            if count > MAX_HEADERS {
                return Err(RequestError::Malformed("too many headers".into()));
            }
            let (name, value) = line.split_once(':').ok_or_else(|| {
                RequestError::Malformed(format!("bad header `{}`", truncate_for_log(line)))
            })?;
            if name.is_empty() || name.contains(' ') {
                return Err(RequestError::Malformed(format!(
                    "bad header name `{}`",
                    truncate_for_log(name)
                )));
            }
            if name.eq_ignore_ascii_case("content-length") {
                let value = value.trim();
                if content_length.is_some_and(|prev| prev != value) {
                    return Err(RequestError::Malformed(
                        "conflicting content-length headers".into(),
                    ));
                }
                content_length = Some(value);
            } else if name.eq_ignore_ascii_case("transfer-encoding") {
                chunked = true;
            }
        }
        if chunked {
            // Chunked bodies are out of scope for this minimal server;
            // rejecting them outright also closes request-smuggling
            // ambiguity between the two length mechanisms.
            return Err(RequestError::Malformed(
                "transfer-encoding is not supported".into(),
            ));
        }
        let content_length = match content_length {
            None => 0usize,
            Some(v) => v
                .parse::<usize>()
                .map_err(|_| RequestError::Malformed(format!("bad content-length `{v}`")))?,
        };
        Ok(Head {
            len: bytes.len(),
            method_len: method.len(),
            target_len: target.len(),
            header_lines_at: start.len() + 2,
            content_length,
        })
    }

    /// The request over `bytes`: this head, the blank line and the body.
    fn request(self, bytes: &[u8]) -> Result<Request<'_>, RequestError> {
        let text = head_text(&bytes[..self.len])?;
        let target_at = self.method_len + 1;
        let target = &text[target_at..target_at + self.target_len];
        let (path, query) = target.split_once('?').unwrap_or((target, ""));
        let header_lines = text.get(self.header_lines_at..).unwrap_or("");
        Ok(Request {
            method: &text[..self.method_len],
            path,
            query,
            header_lines,
            body: &bytes[self.len + 4..],
        })
    }
}

/// The lines of `text` between `\r\n` separators, as
/// `text.split("\r\n")` gives them, found by a byte search for `\n`.
fn crlf_lines(text: &str) -> impl Iterator<Item = &str> {
    let mut rest = Some(text);
    std::iter::from_fn(move || {
        let s = rest?;
        let mut from = 0;
        while let Some(i) = s[from..].find('\n') {
            let at = from + i;
            if at > 0 && s.as_bytes()[at - 1] == b'\r' {
                rest = Some(&s[at + 1..]);
                return Some(&s[..at - 1]);
            }
            from = at + 1;
        }
        rest = None;
        Some(s)
    })
}

fn head_text(bytes: &[u8]) -> Result<&str, RequestError> {
    std::str::from_utf8(bytes).map_err(|_| RequestError::Malformed("head is not UTF-8".into()))
}

/// The offset of the first `\r\n\r\n` in `bytes` at or after `from`: a
/// Horspool search, which looks at every fourth byte of a line's text.
fn find_head_end(bytes: &[u8], from: usize) -> Option<usize> {
    let mut at = from;
    while at + 4 <= bytes.len() {
        let last = bytes[at + 3];
        if last == b'\n' && bytes[at..at + 4] == *b"\r\n\r\n" {
            return Some(at);
        }
        at += match last {
            b'\r' => 1,
            b'\n' => 2,
            _ => 4,
        };
    }
    None
}

fn truncate_for_log(s: &str) -> String {
    const LIMIT: usize = 48;
    if s.len() <= LIMIT {
        s.to_owned()
    } else {
        let mut end = LIMIT;
        while !s.is_char_boundary(end) {
            end -= 1;
        }
        format!("{}…", &s[..end])
    }
}

/// An HTTP response under construction.
#[derive(Debug, Clone)]
pub struct Response {
    /// Status code.
    pub status: u16,
    /// Reason phrase.
    pub reason: &'static str,
    /// `Content-Type` value.
    pub content_type: &'static str,
    /// The body bytes.
    pub body: Vec<u8>,
    /// Optional `Retry-After` header value in whole seconds.
    pub retry_after_secs: Option<u64>,
    /// Whether to send `Connection: close` (and hang up afterwards).
    pub close: bool,
}

impl Response {
    /// A `200 OK` JSON response.
    pub fn ok_json(body: String) -> Self {
        Response {
            status: 200,
            reason: "OK",
            content_type: "application/json",
            body: body.into_bytes(),
            retry_after_secs: None,
            close: false,
        }
    }

    /// A `200 OK` plain-text response.
    pub fn ok_text(body: String) -> Self {
        Response {
            status: 200,
            reason: "OK",
            content_type: "text/plain; charset=utf-8",
            body: body.into_bytes(),
            retry_after_secs: None,
            close: false,
        }
    }

    /// An error response with a JSON body `{"error":code,"detail":…}`.
    pub fn error_json(status: u16, reason: &'static str, code: &str, detail: &str) -> Self {
        let body = format!(
            "{{\"error\":{},\"detail\":{}}}",
            json_string(code),
            json_string(detail)
        );
        Response {
            status,
            reason,
            content_type: "application/json",
            body: body.into_bytes(),
            retry_after_secs: None,
            close: false,
        }
    }

    /// Adds a `Retry-After` header (whole seconds, rounded up).
    #[must_use]
    pub fn with_retry_after_secs(mut self, secs: u64) -> Self {
        self.retry_after_secs = Some(secs);
        self
    }

    /// Marks the connection to close after this response.
    #[must_use]
    pub fn with_close(mut self) -> Self {
        self.close = true;
        self
    }

    /// Serializes head + body.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.write_to(&mut out);
        out
    }

    /// Appends head + body to `out`.
    pub(crate) fn write_to(&self, out: &mut Vec<u8>) {
        // Writing into a `Vec` cannot fail.
        let _ = write!(
            out,
            "HTTP/1.1 {} {}\r\ncontent-type: {}\r\ncontent-length: {}\r\n",
            self.status,
            self.reason,
            self.content_type,
            self.body.len()
        );
        if let Some(secs) = self.retry_after_secs {
            let _ = write!(out, "retry-after: {secs}\r\n");
        }
        out.extend_from_slice(if self.close {
            b"connection: close\r\n\r\n"
        } else {
            b"connection: keep-alive\r\n\r\n"
        });
        out.extend_from_slice(&self.body);
    }
}

#[cfg(test)]
mod reference;

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;
    use std::io::Cursor;

    /// A transport call, as [`Scripted`] logs it.
    #[derive(Debug, Clone, PartialEq, Eq)]
    enum Call {
        /// A read and how many bytes it returned.
        Read(usize),
        /// One `write` call's bytes.
        Write(Vec<u8>),
        Flush,
    }

    /// A scripted transport: reads deliver the canned chunks one at a
    /// time (so torn delivery is reproducible byte-for-byte), and every
    /// call is logged in order.
    struct Scripted {
        chunks: Vec<Vec<u8>>,
        next: usize,
        log: Vec<Call>,
    }

    impl Scripted {
        fn new(chunks: Vec<Vec<u8>>) -> Self {
            Scripted {
                chunks,
                next: 0,
                log: Vec::new(),
            }
        }

        fn read_chunk(&mut self, buf: &mut [u8]) -> usize {
            if self.next >= self.chunks.len() {
                return 0;
            }
            let chunk = &self.chunks[self.next];
            let n = chunk.len().min(buf.len());
            buf[..n].copy_from_slice(&chunk[..n]);
            if n == chunk.len() {
                self.next += 1;
            } else {
                let rest = chunk[n..].to_vec();
                self.chunks[self.next] = rest;
            }
            n
        }
    }

    impl Read for Scripted {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            let n = self.read_chunk(buf);
            self.log.push(Call::Read(n));
            Ok(n)
        }
    }

    impl Write for Scripted {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.log.push(Call::Write(buf.to_vec()));
            Ok(buf.len())
        }
        fn flush(&mut self) -> io::Result<()> {
            self.log.push(Call::Flush);
            Ok(())
        }
    }

    /// Answers every request on `conn` with a response naming its path,
    /// until the stream ends; returns the responses' bytes in order.
    fn echo_paths(conn: &mut HttpConn<Scripted>) -> Vec<u8> {
        let mut sent = Vec::new();
        while let Ok(req) = conn.read_request() {
            let response = Response::ok_text(req.path.to_owned());
            sent.extend_from_slice(&response.to_bytes());
            conn.write_response(&response).expect("write");
        }
        sent
    }

    #[test]
    fn a_pipelined_batch_is_answered_in_one_write() {
        let wire = b"GET /a HTTP/1.1\r\n\r\nGET /b HTTP/1.1\r\n\r\nGET /c HTTP/1.1\r\n\r\n";
        let mut conn = one(wire);
        let sent = echo_paths(&mut conn);
        let text = String::from_utf8(sent.clone()).expect("utf8");
        let order: Vec<usize> = ["/a", "/b", "/c"]
            .iter()
            .map(|p| text.find(&format!("\r\n\r\n{p}")).expect("answered"))
            .collect();
        assert!(order.windows(2).all(|w| w[0] < w[1]), "{text}");
        assert_eq!(
            conn.stream_mut().log,
            vec![
                Call::Read(wire.len()),
                Call::Write(sent),
                Call::Flush,
                Call::Read(0)
            ]
        );
    }

    #[test]
    fn a_lone_request_is_answered_before_the_next_read() {
        let first = b"GET /a HTTP/1.1\r\n\r\n".to_vec();
        let second = b"GET /b HTTP/1.1\r\n\r\n".to_vec();
        let (a, b) = (first.len(), second.len());
        let mut conn = HttpConn::new(Scripted::new(vec![first, second]), Limits::default());
        echo_paths(&mut conn);
        let answer = |path: &str| Call::Write(Response::ok_text(path.into()).to_bytes());
        assert_eq!(
            conn.stream_mut().log,
            vec![
                Call::Read(a),
                answer("/a"),
                Call::Flush,
                Call::Read(b),
                answer("/b"),
                Call::Flush,
                Call::Read(0),
            ]
        );
    }

    #[test]
    fn the_output_cap_sends_before_any_read() {
        let mut conn = one(b"");
        let big = Response::ok_text("x".repeat(MAX_BUFFERED_OUTPUT / 2));
        conn.write_response(&big).expect("write");
        assert!(
            conn.stream_mut().log.is_empty(),
            "half the cap stays buffered"
        );
        conn.write_response(&big).expect("write");
        let mut both = big.to_bytes();
        both.extend_from_slice(&big.to_bytes());
        assert_eq!(conn.stream_mut().log, vec![Call::Write(both), Call::Flush]);
        conn.flush().expect("flush");
        assert_eq!(
            conn.stream_mut().log.len(),
            2,
            "an empty buffer sends nothing"
        );
    }

    fn one(bytes: &[u8]) -> HttpConn<Scripted> {
        HttpConn::new(Scripted::new(vec![bytes.to_vec()]), Limits::default())
    }

    #[test]
    fn parses_simple_get() {
        let mut conn = one(b"GET /healthz?x=1&y=2 HTTP/1.1\r\nHost: a\r\n\r\n");
        let req = conn.read_request().expect("request");
        assert_eq!(req.method, "GET");
        assert_eq!(req.path, "/healthz");
        assert_eq!(req.query_param("y"), Some("2"));
        assert_eq!(req.header("host"), Some("a"));
        assert!(req.body.is_empty());
    }

    #[test]
    fn parses_post_with_body_and_keepalive_carryover() {
        let wire = b"POST /a HTTP/1.1\r\ncontent-length: 3\r\n\r\nabcGET /b HTTP/1.1\r\n\r\n";
        let mut conn = one(wire);
        let first = conn.read_request().expect("first");
        assert_eq!(first.path, "/a");
        assert_eq!(first.body, b"abc");
        let second = conn.read_request().expect("second");
        assert_eq!(second.path, "/b");
        assert!(matches!(conn.read_request(), Err(RequestError::Closed)));
    }

    #[test]
    fn torn_delivery_one_byte_at_a_time_still_parses() {
        let wire = b"POST /a HTTP/1.1\r\ncontent-length: 5\r\n\r\nhello";
        let chunks = wire.iter().map(|b| vec![*b]).collect();
        let mut conn = HttpConn::new(Scripted::new(chunks), Limits::default());
        let req = conn.read_request().expect("request");
        assert_eq!(req.body, b"hello");
    }

    #[test]
    fn eof_mid_head_is_truncated() {
        let mut conn = one(b"GET /a HTT");
        assert!(matches!(conn.read_request(), Err(RequestError::Truncated)));
    }

    #[test]
    fn eof_mid_body_is_truncated() {
        let mut conn = one(b"POST /a HTTP/1.1\r\ncontent-length: 10\r\n\r\nabc");
        assert!(matches!(conn.read_request(), Err(RequestError::Truncated)));
    }

    #[test]
    fn malformed_request_line_is_rejected() {
        for wire in [
            b"GARBAGE\r\n\r\n".to_vec(),
            b"GET /a HTTP/1.1 extra\r\n\r\n".to_vec(),
            b"GET nopath HTTP/1.1\r\n\r\n".to_vec(),
            b"GET /a HTTP/2\r\n\r\n".to_vec(),
        ] {
            let mut conn = one(&wire);
            assert!(
                matches!(conn.read_request(), Err(RequestError::Malformed(_))),
                "expected malformed for {:?}",
                String::from_utf8_lossy(&wire)
            );
        }
    }

    #[test]
    fn unknown_method_is_405() {
        let mut conn = one(b"DELETE /a HTTP/1.1\r\n\r\n");
        assert!(matches!(
            conn.read_request(),
            Err(RequestError::MethodNotAllowed(m)) if m == "DELETE"
        ));
    }

    #[test]
    fn oversized_head_is_431() {
        let mut wire = b"GET /a HTTP/1.1\r\n".to_vec();
        wire.extend_from_slice(format!("x-pad: {}\r\n\r\n", "a".repeat(9000)).as_bytes());
        let mut conn = one(&wire);
        assert!(matches!(
            conn.read_request(),
            Err(RequestError::HeadTooLarge)
        ));
    }

    #[test]
    fn oversized_body_is_413_without_reading_it() {
        let mut conn = one(b"POST /a HTTP/1.1\r\ncontent-length: 9999999\r\n\r\n");
        assert!(matches!(
            conn.read_request(),
            Err(RequestError::BodyTooLarge)
        ));
    }

    #[test]
    fn conflicting_content_lengths_and_chunked_are_rejected() {
        let mut conn = one(b"POST /a HTTP/1.1\r\ncontent-length: 1\r\ncontent-length: 2\r\n\r\nx");
        assert!(matches!(
            conn.read_request(),
            Err(RequestError::Malformed(_))
        ));
        let mut conn = one(b"POST /a HTTP/1.1\r\ntransfer-encoding: chunked\r\n\r\n");
        assert!(matches!(
            conn.read_request(),
            Err(RequestError::Malformed(_))
        ));
    }

    #[test]
    fn response_serializes_with_retry_after() {
        let resp = Response::error_json(429, "Too Many Requests", "rejected", "quota")
            .with_retry_after_secs(30)
            .with_close();
        let bytes = resp.to_bytes();
        let text = String::from_utf8(bytes).expect("utf8");
        assert!(text.starts_with("HTTP/1.1 429 Too Many Requests\r\n"));
        assert!(text.contains("retry-after: 30\r\n"));
        assert!(text.contains("connection: close\r\n"));
        assert!(text.ends_with("{\"error\":\"rejected\",\"detail\":\"quota\"}"));
    }

    #[test]
    fn timeout_maps_to_408() {
        struct TimesOut;
        impl Read for TimesOut {
            fn read(&mut self, _buf: &mut [u8]) -> io::Result<usize> {
                Err(io::Error::new(io::ErrorKind::WouldBlock, "deadline"))
            }
        }
        impl Write for TimesOut {
            fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
                Ok(buf.len())
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let mut conn = HttpConn::new(TimesOut, Limits::default());
        let err = conn.read_request().expect_err("timeout");
        assert!(matches!(err, RequestError::Timeout));
        assert_eq!(err.status(), Some((408, "Request Timeout")));
    }

    /// One hostile stream: its chunks (one per read) and the limits.
    struct Hostile {
        chunks: Vec<Vec<u8>>,
        limits: Limits,
    }

    /// 4 000 hostile streams, torn at arbitrary points, under small
    /// limits. Each strings together request-shaped parts drawn from
    /// valid and hostile pieces, then overwrites random bytes.
    fn hostile_streams() -> Vec<Hostile> {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};

        const METHODS: [&[u8]; 4] = [b"GET ", b"POST ", b"PUT ", b" "];
        const TARGETS: [&[u8]; 4] = [b"/a?b=c", b"/", b"x", b"/\xff"];
        const VERSIONS: [&[u8]; 4] = [b" HTTP/1.1\r\n", b" HTTP/1.0\r\n", b" HTTP/2\r\n", b"\r\n"];
        const HEADERS: [&[u8]; 8] = [
            b"content-length: 3\r\n",
            b"content-length: 40\r\n",
            b"content-length: 18446744073709551616\r\n",
            b"content-length: -1\r\n",
            b"transfer-encoding: chunked\r\n",
            b"host:x\r\n",
            b"no colon\r\n",
            b": empty name\r\n",
        ];
        fn pick(rng: &mut StdRng, pieces: &[&'static [u8]]) -> &'static [u8] {
            pieces[rng.gen_range(0..pieces.len())]
        }
        let mut rng = StdRng::seed_from_u64(0x5eed);
        (0..4_000)
            .map(|_| {
                let mut bytes = Vec::new();
                for _ in 0..rng.gen_range(0..4usize) {
                    bytes.extend_from_slice(pick(&mut rng, &METHODS));
                    bytes.extend_from_slice(pick(&mut rng, &TARGETS));
                    bytes.extend_from_slice(pick(&mut rng, &VERSIONS));
                    for _ in 0..rng.gen_range(0..4usize) {
                        bytes.extend_from_slice(pick(&mut rng, &HEADERS));
                    }
                    bytes.extend_from_slice(b"\r\n");
                    for _ in 0..rng.gen_range(0..8usize) {
                        bytes.push(rng.next_u64() as u8);
                    }
                }
                for _ in 0..rng.gen_range(0..3usize).min(bytes.len()) {
                    let at = rng.gen_range(0..bytes.len());
                    bytes[at] = rng.next_u64() as u8;
                }
                let mut chunks = Vec::new();
                let mut rest = &bytes[..];
                while !rest.is_empty() {
                    let (chunk, tail) = rest.split_at(rng.gen_range(1..=rest.len()));
                    chunks.push(chunk.to_vec());
                    rest = tail;
                }
                let limits = Limits {
                    max_head: rng.gen_range(16..128usize),
                    max_body: rng.gen_range(0..48usize),
                };
                Hostile { chunks, limits }
            })
            .collect()
    }

    /// Hostile bytes, torn at arbitrary points and read as one pipelined
    /// stream under small limits, give requests or typed errors and
    /// never a panic.
    #[test]
    fn hostile_bytes_give_requests_or_typed_errors() {
        let mut outcomes = BTreeMap::new();
        for (case, stream) in hostile_streams().into_iter().enumerate() {
            let limits = stream.limits;
            let len: usize = stream.chunks.iter().map(Vec::len).sum();
            let mut conn = HttpConn::new(Scripted::new(stream.chunks), limits);
            // Every request consumes bytes, so the stream ends in an error.
            for _ in 0..=len {
                match conn.read_request() {
                    Ok(req) => {
                        assert!(req.path.starts_with('/'), "case {case}: {req:?}");
                        assert!(req.body.len() <= limits.max_body, "case {case}");
                        *outcomes.entry("ok").or_insert(0) += 1;
                    }
                    Err(e) => {
                        assert!(!e.to_string().is_empty(), "case {case}");
                        *outcomes.entry(e.code()).or_insert(0) += 1;
                        break;
                    }
                }
            }
        }
        // The mix reaches requests that parse and every error that bytes
        // alone can cause (a timeout or transport error needs the wire).
        let reached: Vec<&str> = outcomes.keys().copied().collect();
        let every = [
            "body-too-large",
            "closed",
            "head-too-large",
            "malformed",
            "method-not-allowed",
            "ok",
            "truncated",
        ];
        assert_eq!(reached, every, "{outcomes:?}");
    }

    /// Each outcome of reading `chunks` under `limits` to the end: every
    /// request's method, path, query and body, then the error.
    fn verdicts(chunks: Vec<Vec<u8>>, limits: Limits) -> Vec<String> {
        let mut conn = HttpConn::new(Scripted::new(chunks), limits);
        let mut verdicts = Vec::new();
        loop {
            match conn.read_request() {
                Ok(req) => verdicts.push(format!(
                    "{} {} {} {:?}",
                    req.method, req.path, req.query, req.body
                )),
                Err(e) => {
                    verdicts.push(format!("{} {e}", e.code()));
                    return verdicts;
                }
            }
        }
    }

    /// Where the reads end changes no verdict: every hostile stream, and
    /// a head of exactly `max_head` bytes, give the same requests and the
    /// same error read whole and read one byte at a time.
    #[test]
    fn verdicts_do_not_depend_on_where_reads_end() {
        let limits = Limits::default();
        let mut head = "GET /a HTTP/1.1\r\nx-pad: ".to_owned();
        head.push_str(&"p".repeat(limits.max_head - head.len()));
        assert_eq!(head.len(), limits.max_head);
        let exact = format!("{head}\r\n\r\n").into_bytes();
        let parsed = verdicts(vec![exact.clone()], limits);
        assert_eq!(parsed[0], "GET /a  []", "a head of max_head bytes parses");
        let exact = Hostile {
            chunks: vec![exact],
            limits,
        };
        for (case, stream) in hostile_streams().into_iter().chain([exact]).enumerate() {
            let bytes = stream.chunks.concat();
            let whole = verdicts(vec![bytes.clone()], stream.limits);
            let bytewise = verdicts(bytes.iter().map(|&b| vec![b]).collect(), stream.limits);
            assert_eq!(whole, bytewise, "case {case}");
        }
    }

    /// Header names every differential comparison looks up, present or
    /// not, beside each name the reference parsed.
    const LOOKED_UP: [&str; 6] = [
        "connection",
        "content-length",
        "content-type",
        "host",
        "transfer-encoding",
        "x-absent",
    ];

    /// Reads `chunks` under `limits` with the in-place parser and the
    /// owned reference side by side, and asserts the same sequence of
    /// outcomes: each request's method, path, query, named header values
    /// and body, then the same error. Returns how many requests parsed.
    fn assert_same_outcomes(what: &str, chunks: Vec<Vec<u8>>, limits: Limits) -> usize {
        let len: usize = chunks.iter().map(Vec::len).sum();
        let mut reference = reference::OwnedConn::new(Scripted::new(chunks.clone()), limits);
        let mut conn = HttpConn::new(Scripted::new(chunks), limits);
        for parsed in 0..=len {
            match (reference.read_request(), conn.read_request()) {
                (Ok(want), Ok(got)) => {
                    assert_eq!(
                        (
                            want.method.as_str(),
                            want.path.as_str(),
                            want.query.as_str()
                        ),
                        (got.method, got.path, got.query),
                        "{what}: request {parsed}"
                    );
                    assert_eq!(want.body, got.body, "{what}: request {parsed}");
                    let names = want.headers.keys().map(String::as_str).chain(LOOKED_UP);
                    for name in names {
                        assert_eq!(
                            want.headers.get(name).map(String::as_str),
                            got.header(name),
                            "{what}: request {parsed}, header `{name}`"
                        );
                    }
                }
                (Err(want), Err(got)) => {
                    assert_eq!(
                        (want.code(), want.to_string()),
                        (got.code(), got.to_string()),
                        "{what}: after {parsed} requests"
                    );
                    return parsed;
                }
                (want, got) => panic!("{what}: request {parsed}: {want:?} against {got:?}"),
            }
        }
        unreachable!("{what}: every request consumes bytes");
    }

    #[test]
    fn the_in_place_parser_matches_the_owned_reference_on_hostile_streams() {
        let mut parsed = 0;
        for (case, stream) in hostile_streams().into_iter().enumerate() {
            parsed += assert_same_outcomes(&format!("case {case}"), stream.chunks, stream.limits);
        }
        // Most streams end in an error (`hostile_bytes_give_requests_or_typed_errors`
        // checks that each kind is reached); some parse first.
        assert!(parsed > 0, "no request parsed");
    }

    #[test]
    fn the_in_place_parser_matches_the_owned_reference_on_a_batch_split_anywhere() {
        let wire = serve_live_batch();
        // An empty chunk would read as the end of the stream.
        for at in 1..wire.len() {
            let chunks = vec![wire[..at].to_vec(), wire[at..].to_vec()];
            let parsed = assert_same_outcomes(&format!("split at {at}"), chunks, Limits::default());
            assert_eq!(parsed, 20, "split at {at}");
        }
    }

    /// A pipelined batch shaped like the `serve-live` benchmark's: 14
    /// registrations, 3 queries, 2 cancels and 1 clock advance, each
    /// with the benchmark client's headers, the last asking to close.
    fn serve_live_batch() -> Vec<u8> {
        let post = |path: &str, body: &str, connection: &str| {
            format!(
                "POST {path} HTTP/1.1\r\ncontent-type: application/json\r\ncontent-length: {}\r\nconnection: {connection}\r\n\r\n{body}",
                body.len()
            )
        };
        // Register, Query, Cancel, Advance: the benchmark's 14/3/2/1.
        let kinds = b"RRQRRCRRARRQRRCRRRQR";
        let mut wire = String::new();
        for (k, kind) in kinds.iter().enumerate() {
            let tenant = format!("bench-{}", (k * 37) % 512);
            let connection = if k + 1 == kinds.len() {
                "close"
            } else {
                "keep-alive"
            };
            wire.push_str(&match kind {
                b'R' if k % 2 == 0 => post(
                    "/v1/register",
                    &format!(
                        "{{\"tenant\":\"{tenant}\",\"nominal_ms\":{},\"repeat_ms\":900000,\"beta\":0.5}}",
                        3_600_000 + k * 1_000
                    ),
                    connection,
                ),
                b'R' => post(
                    "/v1/register",
                    &format!("{{\"tenant\":\"{tenant}\",\"nominal_ms\":{}}}", 60_000 + k),
                    connection,
                ),
                b'Q' => format!(
                    "GET /v1/query?tenant={tenant} HTTP/1.1\r\nconnection: {connection}\r\n\r\n"
                ),
                b'C' => post(
                    "/v1/cancel",
                    &format!("{{\"tenant\":\"{tenant}\",\"ordinal\":1099511627776}}"),
                    connection,
                ),
                _ => post("/v1/advance", "{\"now_ms\":3600000}", connection),
            });
        }
        wire.into_bytes()
    }

    #[test]
    fn a_serve_live_batch_is_read_in_one_read_and_answered_in_one_write() {
        let wire = serve_live_batch();
        let text = String::from_utf8(wire.clone()).expect("utf8");
        let count = |needle: &str| text.matches(needle).count();
        assert_eq!(
            [
                count("POST /v1/register "),
                count("GET /v1/query"),
                count("POST /v1/cancel "),
                count("POST /v1/advance ")
            ],
            [14, 3, 2, 1],
            "the serve-live mix"
        );
        assert!(wire.len() > 2_048, "{} bytes", wire.len());
        let mut conn = one(&wire);
        let sent = echo_paths(&mut conn);
        assert_eq!(
            conn.stream_mut().log,
            vec![
                Call::Read(wire.len()),
                Call::Write(sent),
                Call::Flush,
                Call::Read(0)
            ]
        );
    }

    /// `crlf_lines` splits every string over `\r`, `\n` and `a` of up
    /// to eight bytes as `str::split("\r\n")` does.
    #[test]
    fn crlf_lines_split_as_str_split_does() {
        for len in 0..=8u32 {
            for code in 0..3usize.pow(len) {
                let text: String = (0..len)
                    .map(|k| ['\r', '\n', 'a'][code / 3usize.pow(k) % 3])
                    .collect();
                let got: Vec<&str> = crlf_lines(&text).collect();
                let want: Vec<&str> = text.split("\r\n").collect();
                assert_eq!(got, want, "{text:?}");
            }
        }
    }

    #[test]
    fn headers_match_any_case_and_the_last_duplicate_wins() {
        let mut conn = one(
            b"POST /a HTTP/1.1\r\nX-Tag: one\r\nContent-Length:  2 \r\nx-tag:two\r\nCONTENT-LENGTH: 2\r\n\r\nokGET /b HTTP/1.1\r\nConnection: Close\r\n\r\n",
        );
        let first = conn.read_request().expect("first");
        assert_eq!(first.header("x-tag"), Some("two"));
        assert_eq!(first.header("X-TAG"), Some("two"));
        assert_eq!(first.header("content-length"), Some("2"));
        assert_eq!(first.header("x-tag:"), None);
        assert_eq!(first.body, b"ok");
        assert!(!first.wants_close());
        let second = conn.read_request().expect("second");
        assert!(second.wants_close());
        assert_eq!(second.header("x-tag"), None);
    }

    /// Requests at the limits, pipelined and torn at assorted sizes, never
    /// grow the buffer past one request's head and body plus one read.
    #[test]
    fn the_buffer_never_outgrows_one_request_plus_one_read() {
        let limits = Limits::default();
        let body = vec![b'b'; limits.max_body];
        let mut request = format!("POST /a HTTP/1.1\r\ncontent-length: {}\r\n", body.len());
        let pad = limits.max_head - request.len() - "x-pad: ".len();
        request.push_str(&format!("x-pad: {}\r\n\r\n", "p".repeat(pad)));
        assert_eq!(request.len(), limits.max_head + 4);
        let mut request = request.into_bytes();
        request.extend_from_slice(&body);
        let wire = request.repeat(6);
        let bound = limits.max_head + 4 + limits.max_body + MIN_READ;
        for size in [1, 7, 4_093, MIN_READ - 1, MIN_READ, 70_001, wire.len()] {
            let chunks = wire.chunks(size).map(<[u8]>::to_vec).collect();
            let mut conn = HttpConn::new(Scripted::new(chunks), limits);
            for n in 0..6 {
                let req = conn.read_request().expect("request at the limits");
                assert_eq!(req.body.len(), limits.max_body, "size {size}, request {n}");
                assert!(conn.buf.capacity() <= bound, "size {size}, request {n}");
            }
            assert!(matches!(conn.read_request(), Err(RequestError::Closed)));
            assert!(conn.buf.capacity() <= bound, "size {size}");
        }
    }

    /// A head that arrives one byte per read is searched once in all:
    /// each read resumes the search three bytes before the end.
    #[test]
    fn a_torn_head_is_searched_from_where_the_last_search_stopped() {
        assert_eq!(find_head_end(b"GET / HTTP/1.1\r\n\r\n", 0), Some(14));
        assert_eq!(find_head_end(b"\r\n\r\r\n\r\n", 0), Some(3));
        assert_eq!(find_head_end(b"ab\r\n\r", 0), None);
        let wire = b"GET /a HTTP/1.1\r\nhost: x\r\n\r\n";
        let chunks = wire.iter().map(|b| vec![*b]).collect();
        let mut conn = HttpConn::new(Scripted::new(chunks), Limits::default());
        assert_eq!(conn.read_head().expect("head"), wire.len() - 4);
        assert_eq!(conn.scanned, wire.len() - 4);
    }

    #[test]
    fn cursor_roundtrip_via_write_response() {
        let mut conn = HttpConn::new(Cursor::new(Vec::new()), Limits::default());
        conn.write_response(&Response::ok_json("{}".into()))
            .expect("write");
        conn.flush().expect("flush");
        let wrote = conn.stream_mut().get_ref().clone();
        assert!(String::from_utf8(wrote).expect("utf8").contains("200 OK"));
    }
}
