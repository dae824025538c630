//! `pbhttp` — a tiny std-only HTTP/1.1 client for driving the perfbase
//! server from shell scripts (smoke tests, CI) without a curl dependency.
//!
//! ```text
//! pbhttp [-i] [-H 'Name: value']... [--retries N] METHOD URL [BODY|@FILE]
//! ```
//!
//! * `-i` prints the status line and response headers before the body.
//! * `-H` adds a request header (repeatable), e.g. `-H 'X-Session: 3'`.
//! * `--retries N` retries a 503 response up to N times, honoring the
//!   server's `Retry-After` header between attempts (default 0, so
//!   scripts keep the single-shot behavior).
//! * `BODY` is sent verbatim; `@FILE` sends the file's contents; with
//!   neither, the request has no body.
//!
//! Exit status: 0 for 2xx responses, 1 for any other status, 2 for usage
//! or transport errors and for output that cannot be written. Output cut
//! off by a reader that stopped reading (`pbhttp … | head`) is no error:
//! the status is the response's.

use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::process::ExitCode;
use std::time::Duration;

const USAGE: &str =
    "usage: pbhttp [-i] [-H 'Name: value']... [--retries N] METHOD URL [BODY|@FILE]";

fn main() -> ExitCode {
    match run() {
        Ok(code) => code,
        Err(e) => {
            eprintln!("pbhttp: {e}");
            ExitCode::from(2)
        }
    }
}

fn run() -> Result<ExitCode, String> {
    let mut args = std::env::args().skip(1);
    let mut include_headers = false;
    let mut retries: u32 = 0;
    let mut extra_headers: Vec<String> = Vec::new();
    let mut positional: Vec<String> = Vec::new();
    while let Some(a) = args.next() {
        match a.as_str() {
            "-i" => include_headers = true,
            "-H" => extra_headers.push(args.next().ok_or("-H needs a 'Name: value' argument")?),
            "--retries" => {
                retries = args
                    .next()
                    .ok_or("--retries needs a count")?
                    .parse()
                    .map_err(|_| "--retries needs a non-negative integer".to_string())?;
            }
            "-h" | "--help" => {
                println!("{USAGE}");
                return Ok(ExitCode::SUCCESS);
            }
            _ => positional.push(a),
        }
    }
    if positional.len() < 2 || positional.len() > 3 {
        return Err(USAGE.into());
    }
    let method = positional[0].to_ascii_uppercase();
    let (host, target) = parse_url(&positional[1])?;
    let body = match positional.get(2) {
        None => Vec::new(),
        Some(arg) => match arg.strip_prefix('@') {
            Some(path) => std::fs::read(path).map_err(|e| format!("{path}: {e}"))?,
            None => arg.clone().into_bytes(),
        },
    };

    // Bounded retry loop: only 503 (the server's overload answer) retries,
    // after waiting out the server-provided Retry-After. Every other
    // status — and the final 503 — is printed and reported as-is.
    let mut attempts_left = retries;
    loop {
        let (status, head, resp_body) = request(&method, &host, &target, &extra_headers, &body)?;
        if status == 503 && attempts_left > 0 {
            attempts_left -= 1;
            std::thread::sleep(retry_after(&head));
            continue;
        }
        let mut out = if include_headers {
            format!("{head}\n\n")
        } else {
            String::new()
        };
        out.push_str(&resp_body);
        let mut stdout = std::io::stdout().lock();
        match stdout
            .write_all(out.as_bytes())
            .and_then(|()| stdout.flush())
        {
            Err(e) if e.kind() != ErrorKind::BrokenPipe => return Err(format!("stdout: {e}")),
            _ => {}
        }
        return Ok(if (200..300).contains(&status) {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        });
    }
}

/// One request/response exchange: returns `(status, head, body)`.
fn request(
    method: &str,
    host: &str,
    target: &str,
    extra_headers: &[String],
    body: &[u8],
) -> Result<(u16, String, String), String> {
    let mut stream = TcpStream::connect(host).map_err(|e| format!("connect {host}: {e}"))?;
    let mut req = format!(
        "{method} {target} HTTP/1.1\r\nHost: {host}\r\nConnection: close\r\nContent-Length: {}\r\n",
        body.len()
    );
    for h in extra_headers {
        req.push_str(h);
        req.push_str("\r\n");
    }
    req.push_str("\r\n");
    stream
        .write_all(req.as_bytes())
        .and_then(|()| stream.write_all(body))
        .map_err(|e| format!("send: {e}"))?;

    let mut raw = Vec::new();
    stream
        .read_to_end(&mut raw)
        .map_err(|e| format!("recv: {e}"))?;
    let raw = String::from_utf8_lossy(&raw);
    let (head, resp_body) = raw
        .split_once("\r\n\r\n")
        .ok_or("malformed response (no header terminator)")?;
    let status: u16 = head
        .lines()
        .next()
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|s| s.parse().ok())
        .ok_or("malformed status line")?;
    Ok((status, head.to_string(), resp_body.to_string()))
}

/// Smallest wait between retries. A server answering `Retry-After: 0`
/// used to parse into a zero-length sleep, turning the retry loop into a
/// busy loop hammering an already-overloaded server; any backoff shorter
/// than this clamps up to it.
const MIN_BACKOFF: Duration = Duration::from_millis(250);

/// The wait the server asked for: its `Retry-After: <seconds>` header
/// (matched case-insensitively), clamped to [`MIN_BACKOFF`], falling back
/// to 1 s when absent or malformed — the value the perfbase server always
/// sends with a 503.
fn retry_after(head: &str) -> Duration {
    for line in head.lines().skip(1) {
        if let Some((name, value)) = line.split_once(':') {
            if name.trim().eq_ignore_ascii_case("retry-after") {
                if let Ok(secs) = value.trim().parse::<u64>() {
                    return Duration::from_secs(secs).max(MIN_BACKOFF);
                }
            }
        }
    }
    Duration::from_secs(1)
}

/// Split `http://host:port/path?query` into `(host:port, /path?query)`.
fn parse_url(url: &str) -> Result<(String, String), String> {
    let rest = url
        .strip_prefix("http://")
        .ok_or_else(|| format!("only http:// URLs are supported, got {url:?}"))?;
    let (host, target) = match rest.find('/') {
        Some(i) => (&rest[..i], &rest[i..]),
        None => (rest, "/"),
    };
    if host.is_empty() {
        return Err(format!("no host in {url:?}"));
    }
    Ok((host.to_string(), target.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn retry_after_honors_header_and_clamps_zero() {
        let head = "HTTP/1.1 503 x\r\nRetry-After: 2";
        assert_eq!(retry_after(head), Duration::from_secs(2));
        // The busy-loop regression: an explicit 0 must still back off.
        let zero = "HTTP/1.1 503 x\r\nretry-after: 0";
        assert_eq!(retry_after(zero), MIN_BACKOFF);
        assert!(retry_after(zero) > Duration::ZERO);
        // Absent or malformed: the server's conventional 1 s.
        assert_eq!(retry_after("HTTP/1.1 503 x"), Duration::from_secs(1));
        assert_eq!(
            retry_after("HTTP/1.1 503 x\r\nRetry-After: soon"),
            Duration::from_secs(1)
        );
    }

    #[test]
    fn url_parsing_splits_host_and_target() {
        assert_eq!(
            parse_url("http://127.0.0.1:7381/query?x=1").unwrap(),
            ("127.0.0.1:7381".to_string(), "/query?x=1".to_string())
        );
        assert_eq!(
            parse_url("http://localhost:7381").unwrap(),
            ("localhost:7381".to_string(), "/".to_string())
        );
        assert!(parse_url("https://x/").is_err());
        assert!(parse_url("http:///path").is_err());
    }
}
