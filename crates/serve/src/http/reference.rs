//! The owned request parser that [`HttpConn`](super::HttpConn) replaced,
//! kept as the reference of the differential tests in `http::tests`.
//!
//! It reads 2 048-byte chunks, copies the head into a `String`, lower-
//! cases every header into a map, copies the body out and drains the
//! consumed bytes. Its outcomes — each request's fields, or the error —
//! are what the in-place parser must reproduce on any byte stream.

use std::collections::BTreeMap;
use std::io::{self, Read};

use super::{truncate_for_log, Limits, RequestError, MAX_HEADERS};

/// A request as the reference parser returns it.
#[derive(Debug, Clone)]
pub(super) struct OwnedRequest {
    pub method: String,
    pub path: String,
    pub query: String,
    /// Lower-cased names; the last duplicate wins.
    pub headers: BTreeMap<String, String>,
    pub body: Vec<u8>,
}

/// The reference parser over a transport.
pub(super) struct OwnedConn<S> {
    stream: S,
    buf: Vec<u8>,
    limits: Limits,
}

impl<S: Read> OwnedConn<S> {
    pub fn new(stream: S, limits: Limits) -> Self {
        OwnedConn {
            stream,
            buf: Vec::with_capacity(1024),
            limits,
        }
    }

    fn fill(&mut self) -> Result<usize, RequestError> {
        let mut chunk = [0u8; 2048];
        match self.stream.read(&mut chunk) {
            Ok(0) => Ok(0),
            Ok(n) => {
                self.buf.extend_from_slice(&chunk[..n]);
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

    pub fn read_request(&mut self) -> Result<OwnedRequest, RequestError> {
        let head_end = loop {
            if let Some(pos) = self.buf.windows(4).position(|w| w == b"\r\n\r\n") {
                break pos;
            }
            if self.buf.len() >= self.limits.max_head + 4 {
                return Err(RequestError::HeadTooLarge);
            }
            match self.fill()? {
                0 if self.buf.is_empty() => return Err(RequestError::Closed),
                0 => return Err(RequestError::Truncated),
                _ => {}
            }
        };
        if head_end > self.limits.max_head {
            return Err(RequestError::HeadTooLarge);
        }
        let head = self.buf[..head_end].to_vec();
        let head = String::from_utf8(head)
            .map_err(|_| RequestError::Malformed("head is not UTF-8".into()))?;
        let body_start = head_end + 4;

        let mut lines = head.split("\r\n");
        let start = lines.next().unwrap_or_default();
        let mut parts = start.split(' ');
        let (method, target, version) = match (parts.next(), parts.next(), parts.next()) {
            (Some(m), Some(t), Some(v)) if parts.next().is_none() && !m.is_empty() => {
                (m.to_owned(), t.to_owned(), v.to_owned())
            }
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
            return Err(RequestError::MethodNotAllowed(method));
        }
        if !target.starts_with('/') {
            return Err(RequestError::Malformed(format!(
                "bad target `{}`",
                truncate_for_log(&target)
            )));
        }

        let mut headers = BTreeMap::new();
        let mut count = 0usize;
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
            let name = name.to_ascii_lowercase();
            let value = value.trim().to_owned();
            if name == "content-length" {
                if let Some(prev) = headers.get("content-length") {
                    if prev != &value {
                        return Err(RequestError::Malformed(
                            "conflicting content-length headers".into(),
                        ));
                    }
                }
            }
            headers.insert(name, value);
        }
        if headers.contains_key("transfer-encoding") {
            return Err(RequestError::Malformed(
                "transfer-encoding is not supported".into(),
            ));
        }

        let content_length = match headers.get("content-length") {
            None => 0usize,
            Some(v) => v
                .parse::<usize>()
                .map_err(|_| RequestError::Malformed(format!("bad content-length `{v}`")))?,
        };
        if content_length > self.limits.max_body {
            return Err(RequestError::BodyTooLarge);
        }

        while self.buf.len() < body_start + content_length {
            if self.fill()? == 0 {
                return Err(RequestError::Truncated);
            }
        }
        let body = self.buf[body_start..body_start + content_length].to_vec();
        self.buf.drain(..body_start + content_length);

        let (path, query) = match target.split_once('?') {
            Some((p, q)) => (p.to_owned(), q.to_owned()),
            None => (target, String::new()),
        };
        Ok(OwnedRequest {
            method,
            path,
            query,
            headers,
            body,
        })
    }
}
