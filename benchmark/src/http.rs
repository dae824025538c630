//! A keep-alive HTTP/1.1 client over one `TcpStream`, and the fixed schedule
//! the ingest writer sends on.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

pub struct Client {
    reader: BufReader<TcpStream>,
}

pub struct Reply {
    pub status: u16,
    pub body: String,
}

impl Client {
    pub fn connect(addr: SocketAddr) -> std::io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        // A request the server never answers must fail the run, not hang it.
        stream.set_read_timeout(Some(Duration::from_secs(30)))?;
        Ok(Client {
            reader: BufReader::new(stream),
        })
    }

    /// One `POST` on the kept-alive connection; returns when the whole reply
    /// body has been read.
    pub fn post(&mut self, target: &str, body: &str) -> std::io::Result<Reply> {
        let request = format!(
            "POST {target} HTTP/1.1\r\nHost: pbbench\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        );
        self.reader.get_mut().write_all(request.as_bytes())?;

        let bad = |what: &str| std::io::Error::new(std::io::ErrorKind::InvalidData, what);
        let mut line = String::new();
        self.reader.read_line(&mut line)?;
        let status: u16 = line
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| bad("bad status line"))?;
        let mut length = 0usize;
        loop {
            line.clear();
            if self.reader.read_line(&mut line)? == 0 {
                return Err(bad("connection closed inside the reply head"));
            }
            let header = line.trim_end();
            if header.is_empty() {
                break;
            }
            if let Some((name, value)) = header.split_once(':') {
                if name.eq_ignore_ascii_case("content-length") {
                    length = value
                        .trim()
                        .parse()
                        .map_err(|_| bad("bad Content-Length"))?;
                }
            }
        }
        // The bodies read here are query results of this benchmark's own
        // statements; anything larger than this is a broken reply.
        if length > 64 << 20 {
            return Err(bad("oversized reply body"));
        }
        let mut body = vec![0u8; length];
        self.reader.read_exact(&mut body)?;
        Ok(Reply {
            status,
            body: String::from_utf8_lossy(&body).into_owned(),
        })
    }
}

/// An open-loop schedule: operation `i` is due at `start + i × interval`
/// whatever happened to the operations before it.
pub struct Pacer {
    start: Instant,
    interval: Duration,
    next: u32,
}

/// When an operation was due and how late it could be sent.
#[derive(Debug, Clone, Copy)]
pub struct Slot {
    pub due: Instant,
    pub late: Duration,
}

impl Pacer {
    pub fn new(start: Instant, interval: Duration) -> Pacer {
        Pacer {
            start,
            interval,
            next: 0,
        }
    }

    /// Due time of the next operation, without waiting for it.
    pub fn next_due(&self) -> Instant {
        self.start + self.interval * self.next
    }

    /// Sleep until the next operation is due and return its slot. After a
    /// stall the schedule is not shifted: the overdue operations are sent back
    /// to back, each timed from its own due time.
    pub fn wait(&mut self) -> Slot {
        let due = self.next_due();
        self.next += 1;
        let now = Instant::now();
        if now < due {
            std::thread::sleep(due - now);
        }
        Slot {
            due,
            late: Instant::now().saturating_duration_since(due),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pacer_keeps_its_schedule_through_a_stall() {
        let start = Instant::now();
        let interval = Duration::from_millis(20);
        let mut pacer = Pacer::new(start, interval);
        let first = pacer.wait();
        assert_eq!(first.due, start);
        // A stall of three intervals: slots 1..=3 are overdue when asked for.
        std::thread::sleep(Duration::from_millis(70));
        let lates: Vec<Duration> = (0..3)
            .map(|i| {
                let slot = pacer.wait();
                assert_eq!(slot.due, start + interval * (i + 1));
                slot.late
            })
            .collect();
        // Lateness is measured from each slot's own due time, so it shrinks
        // by one interval per overdue slot: about 50, 30 and 10 ms.
        assert!(lates[0] >= Duration::from_millis(49), "{lates:?}");
        assert!(lates[0] > lates[1] && lates[1] > lates[2], "{lates:?}");
        assert!(
            lates[0] - lates[1] >= Duration::from_millis(19),
            "{lates:?}"
        );
        // The schedule catches up: slot 4 is in the future again and is
        // waited for, so it is sent (almost) on time.
        let on_time = pacer.wait();
        assert_eq!(on_time.due, start + interval * 4);
        assert!(on_time.late < lates[0], "{on_time:?}");
    }
}
