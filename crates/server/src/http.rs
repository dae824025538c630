//! Minimal HTTP/1.1 wire handling over blocking `std::net` streams.
//!
//! Implements exactly the subset the perfbase front end speaks (documented
//! in `docs/HTTP_API.md`): request line + headers + optional
//! `Content-Length` body, plain-text responses, `keep-alive` connection
//! reuse. No chunked transfer encoding, no TLS, no HTTP/2 — analysts talk
//! to the server over a trusted network or an SSH tunnel, and the format
//! is simple enough to drive with `curl`, the bundled `pbhttp` client, or
//! forty lines of any scripting language.

use std::collections::HashMap;
use std::io::{BufReader, Read, Write};
use std::net::TcpStream;

/// Upper bound on a request body (64 MiB): larger imports should be split
/// into batches, and the cap keeps a misbehaving client from ballooning
/// server memory.
pub const MAX_BODY: usize = 64 << 20;

/// Upper bound on one header line; longer lines are a protocol error.
const MAX_LINE: usize = 64 << 10;

/// Upper bound on the header lines of one request; more are a protocol
/// error, so a client cannot grow the header map without bound.
const MAX_HEADERS: usize = 100;

/// A parsed HTTP request.
#[derive(Debug)]
pub struct Request {
    /// Uppercased method (`GET`, `POST`, …).
    pub method: String,
    /// Path without the query string (`/query`).
    pub path: String,
    /// Decoded `key=value` pairs from the query string.
    pub query: HashMap<String, String>,
    /// Headers, keys lowercased.
    pub headers: HashMap<String, String>,
    /// Raw body bytes (empty when no `Content-Length`).
    pub body: Vec<u8>,
}

impl Request {
    /// Header value by case-insensitive name.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .get(&name.to_ascii_lowercase())
            .map(|s| s.as_str())
    }

    /// Query parameter by name.
    pub fn param(&self, name: &str) -> Option<&str> {
        self.query.get(name).map(|s| s.as_str())
    }

    /// Does the client ask to keep the connection open after the response?
    /// HTTP/1.1 defaults to yes unless `Connection: close` is sent.
    pub fn keep_alive(&self) -> bool {
        !self
            .header("connection")
            .is_some_and(|v| v.eq_ignore_ascii_case("close"))
    }

    /// Body as UTF-8, or an error message for the 400 response.
    pub fn body_utf8(&self) -> Result<&str, String> {
        std::str::from_utf8(&self.body).map_err(|_| "body is not valid UTF-8".to_string())
    }
}

/// Outcome of one read attempt on a connection.
#[derive(Debug)]
pub enum ReadOutcome {
    /// A complete request was parsed.
    Request(Request),
    /// The peer closed the connection (clean EOF before a request line).
    Closed,
    /// The read timed out with no bytes consumed — poll again.
    TimedOut,
    /// Protocol error; the caller should answer 400 and close.
    Bad(String),
}

/// Read one request from a buffered stream. The stream's read timeout
/// doubles as the shutdown poll interval: a timeout *before any byte of a
/// request* is reported as [`ReadOutcome::TimedOut`] so the caller can
/// check the shutdown flag; a timeout mid-request is a protocol error.
pub fn read_request(reader: &mut BufReader<TcpStream>) -> ReadOutcome {
    let line = match read_line(reader) {
        Ok(Some(l)) => l,
        Ok(None) => return ReadOutcome::Closed,
        Err(e) if is_timeout(&e) => return ReadOutcome::TimedOut,
        Err(e) => return ReadOutcome::Bad(e.to_string()),
    };
    let mut parts = line.split_whitespace();
    let (Some(method), Some(target)) = (parts.next(), parts.next()) else {
        return ReadOutcome::Bad(format!("malformed request line: {line:?}"));
    };
    match parts.next() {
        Some("HTTP/1.1") | Some("HTTP/1.0") => {}
        v => return ReadOutcome::Bad(format!("unsupported protocol {v:?}")),
    }
    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p.to_string(), parse_query(q)),
        None => (target.to_string(), HashMap::new()),
    };

    let mut headers = HashMap::new();
    for lines in 0.. {
        let line = match read_line(reader) {
            Ok(Some(l)) => l,
            Ok(None) => return ReadOutcome::Bad("eof in headers".into()),
            Err(e) => return ReadOutcome::Bad(e.to_string()),
        };
        if line.is_empty() {
            break;
        }
        if lines == MAX_HEADERS {
            return ReadOutcome::Bad(format!("more than {MAX_HEADERS} header lines"));
        }
        if let Some((k, v)) = line.split_once(':') {
            headers.insert(k.trim().to_ascii_lowercase(), v.trim().to_string());
        }
    }

    let len: usize = match headers.get("content-length") {
        None => 0,
        Some(v) => match v.parse() {
            Ok(n) if n <= MAX_BODY => n,
            Ok(n) => return ReadOutcome::Bad(format!("body of {n} bytes exceeds {MAX_BODY}")),
            Err(_) => return ReadOutcome::Bad(format!("bad Content-Length {v:?}")),
        },
    };
    let mut body = vec![0u8; len];
    if len > 0 {
        if let Err(e) = reader.read_exact(&mut body) {
            return ReadOutcome::Bad(format!("short body: {e}"));
        }
    }
    ReadOutcome::Request(Request {
        method: method.to_ascii_uppercase(),
        path,
        query,
        headers,
        body,
    })
}

/// One CRLF- (or LF-) terminated line, trimmed; `None` on clean EOF.
fn read_line(reader: &mut BufReader<TcpStream>) -> std::io::Result<Option<String>> {
    let mut buf = Vec::new();
    let mut byte = [0u8; 1];
    loop {
        match reader.read(&mut byte) {
            Ok(0) => {
                return if buf.is_empty() {
                    Ok(None)
                } else {
                    Err(std::io::Error::new(
                        std::io::ErrorKind::UnexpectedEof,
                        "eof mid-line",
                    ))
                }
            }
            Ok(_) => {
                if byte[0] == b'\n' {
                    if buf.last() == Some(&b'\r') {
                        buf.pop();
                    }
                    return Ok(Some(String::from_utf8_lossy(&buf).into_owned()));
                }
                buf.push(byte[0]);
                if buf.len() > MAX_LINE {
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::InvalidData,
                        "header line too long",
                    ));
                }
            }
            Err(e) => return Err(e),
        }
    }
}

fn is_timeout(e: &std::io::Error) -> bool {
    matches!(
        e.kind(),
        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
    )
}

/// Percent-decode the `key=value&key=value` query string.
fn parse_query(q: &str) -> HashMap<String, String> {
    q.split('&')
        .filter(|kv| !kv.is_empty())
        .map(|kv| match kv.split_once('=') {
            Some((k, v)) => (percent_decode(k), percent_decode(v)),
            None => (percent_decode(kv), String::new()),
        })
        .collect()
}

/// Minimal percent-decoding (`%xx` and `+` for space).
fn percent_decode(s: &str) -> String {
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'+' => out.push(b' '),
            b'%' => {
                let hex = bytes
                    .get(i + 1..i + 3)
                    .and_then(|h| u8::from_str_radix(std::str::from_utf8(h).ok()?, 16).ok());
                match hex {
                    Some(b) => {
                        out.push(b);
                        i += 2;
                    }
                    None => out.push(b'%'),
                }
            }
            b => out.push(b),
        }
        i += 1;
    }
    String::from_utf8_lossy(&out).into_owned()
}

/// An HTTP response under construction.
#[derive(Debug)]
pub struct Response {
    /// Status code (200, 400, 404, 503, …).
    pub status: u16,
    /// Extra headers as `(name, value)` pairs.
    pub headers: Vec<(String, String)>,
    /// Body bytes; `Content-Length` is derived from this.
    pub body: Vec<u8>,
}

impl Response {
    /// Plain-text response with the given status.
    pub fn text(status: u16, body: impl Into<String>) -> Response {
        Response {
            status,
            headers: Vec::new(),
            body: body.into().into_bytes(),
        }
    }

    /// 200 with a text body.
    pub fn ok(body: impl Into<String>) -> Response {
        Response::text(200, body)
    }

    /// Attach a header.
    pub fn with_header(mut self, name: &str, value: impl Into<String>) -> Response {
        self.headers.push((name.to_string(), value.into()));
        self
    }

    /// Standard reason phrase for the status codes the server emits.
    fn reason(&self) -> &'static str {
        match self.status {
            200 => "OK",
            400 => "Bad Request",
            404 => "Not Found",
            405 => "Method Not Allowed",
            503 => "Service Unavailable",
            _ => "Unknown",
        }
    }

    /// Serialize onto the stream. `keep_alive` picks the Connection header.
    pub fn write(&self, stream: &mut TcpStream, keep_alive: bool) -> std::io::Result<()> {
        let mut head = format!(
            "HTTP/1.1 {} {}\r\nContent-Type: text/plain; charset=utf-8\r\nContent-Length: {}\r\nConnection: {}\r\n",
            self.status,
            self.reason(),
            self.body.len(),
            if keep_alive { "keep-alive" } else { "close" },
        );
        for (k, v) in &self.headers {
            head.push_str(k);
            head.push_str(": ");
            head.push_str(v);
            head.push_str("\r\n");
        }
        head.push_str("\r\n");
        stream.write_all(head.as_bytes())?;
        stream.write_all(&self.body)?;
        stream.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn query_string_decodes() {
        let q = parse_query("table=pb_rundata_1&sql=SELECT+count(%2A)&flag");
        assert_eq!(q["table"], "pb_rundata_1");
        assert_eq!(q["sql"], "SELECT count(*)");
        assert_eq!(q["flag"], "");
    }

    #[test]
    fn percent_decode_edge_cases() {
        assert_eq!(percent_decode("a%20b"), "a b");
        assert_eq!(percent_decode("100%"), "100%");
        assert_eq!(percent_decode("%zz"), "%zz");
        assert_eq!(percent_decode("plain"), "plain");
    }
}
