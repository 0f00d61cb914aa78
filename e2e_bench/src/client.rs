//! The load generator's HTTP client and job-turnaround arithmetic.
//!
//! The client sends each request in one write on a `TCP_NODELAY` socket
//! and reads exactly `Content-Length` bytes of each response, so a delay
//! it measures is the server's, not its own.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// One keep-alive HTTP/1.1 connection to the server.
pub struct Conn {
    reader: BufReader<TcpStream>,
}

impl Conn {
    /// Connects with `TCP_NODELAY` and a generous read timeout.
    pub fn open(addr: SocketAddr) -> std::io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(60)))?;
        Ok(Conn {
            reader: BufReader::new(stream),
        })
    }

    /// Sends one request in a single write and reads its response:
    /// `(status, body)`. `close` asks the server to hang up afterwards.
    pub fn request(
        &mut self,
        method: &str,
        path: &str,
        body: &str,
        close: bool,
    ) -> std::io::Result<(u16, String)> {
        let connection = if close { "close" } else { "keep-alive" };
        let request = format!(
            "{method} {path} HTTP/1.1\r\nHost: bench\r\nConnection: {connection}\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        );
        self.reader.get_mut().write_all(request.as_bytes())?;
        read_response(&mut self.reader)
    }
}

fn bad(message: String) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, message)
}

/// Reads one `Content-Length`-framed response: `(status, body)`.
pub fn read_response<R: BufRead>(reader: &mut R) -> std::io::Result<(u16, String)> {
    let mut line = String::new();
    reader.read_line(&mut line)?;
    let status = line
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| bad(format!("bad status line {line:?}")))?;
    let mut length = 0usize;
    loop {
        line.clear();
        if reader.read_line(&mut line)? == 0 {
            return Err(bad("connection closed mid-head".to_string()));
        }
        if line == "\r\n" {
            break;
        }
        if let Some((name, value)) = line.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                length = value
                    .trim()
                    .parse()
                    .map_err(|_| bad(format!("bad content-length {value:?}")))?;
            }
        }
    }
    let mut body = vec![0u8; length];
    reader.read_exact(&mut body)?;
    let body = String::from_utf8(body).map_err(|_| bad("body is not UTF-8".to_string()))?;
    Ok((status, body))
}

/// What a client saw of one job, in seconds on its own clock: when the
/// POST was sent, and when each `GET /jobs/:id` answered with which state.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct JobView {
    /// The POST left the client.
    pub sent: f64,
    /// Each poll's answer: completion time and the reported `state`.
    pub polls: Vec<(f64, String)>,
}

/// Turnaround of one job, in milliseconds.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Turnaround {
    /// POST sent → first `done` snapshot read.
    pub total_ms: f64,
    /// POST sent → first snapshot no longer `queued`.
    pub queue_wait_ms: f64,
    /// First `running` snapshot → first `done` snapshot; `None` when no
    /// poll caught the job running.
    pub run_ms: Option<f64>,
}

impl JobView {
    /// The job's turnaround, or `None` when no poll saw it `done`.
    pub fn turnaround(&self) -> Option<Turnaround> {
        let seen = |state: &str| self.polls.iter().find(|(_, s)| s == state).map(|p| p.0);
        let done = seen("done")?;
        let started = self
            .polls
            .iter()
            .find(|(_, s)| s != "queued")
            .map_or(done, |p| p.0);
        Some(Turnaround {
            total_ms: (done - self.sent) * 1e3,
            queue_wait_ms: (started - self.sent) * 1e3,
            run_ms: seen("running").map(|r| (done - r) * 1e3),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn view(sent: f64, polls: &[(f64, &str)]) -> JobView {
        JobView {
            sent,
            polls: polls.iter().map(|&(t, s)| (t, s.to_string())).collect(),
        }
    }

    #[test]
    fn turnaround_from_a_scripted_snapshot_sequence() {
        let v = view(
            10.0,
            &[
                (10.05, "queued"),
                (10.10, "queued"),
                (10.15, "running"),
                (10.20, "running"),
                (10.30, "done"),
                (10.35, "done"),
            ],
        );
        let t = v.turnaround().unwrap();
        assert!((t.total_ms - 300.0).abs() < 1e-6, "{t:?}");
        assert!((t.queue_wait_ms - 150.0).abs() < 1e-6, "{t:?}");
        assert!((t.run_ms.unwrap() - 150.0).abs() < 1e-6, "{t:?}");
    }

    #[test]
    fn a_job_first_seen_done_has_no_run_time() {
        let t = view(1.0, &[(1.002, "done")]).turnaround().unwrap();
        assert!((t.total_ms - 2.0).abs() < 1e-9);
        assert!((t.queue_wait_ms - 2.0).abs() < 1e-9);
        assert_eq!(t.run_ms, None);
    }

    #[test]
    fn a_job_never_seen_done_has_no_turnaround() {
        assert_eq!(
            view(0.0, &[(0.1, "running"), (0.2, "cancelled")]).turnaround(),
            None
        );
    }

    #[test]
    fn reads_exactly_one_framed_response_at_a_time() {
        let raw = "HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: 4\r\n\r\n{\"a\"HTTP/1.1 404 Not Found\r\ncontent-length: 2\r\n\r\n{}";
        let mut reader = BufReader::new(raw.as_bytes());
        assert_eq!(
            read_response(&mut reader).unwrap(),
            (200, "{\"a\"".to_string())
        );
        assert_eq!(read_response(&mut reader).unwrap(), (404, "{}".to_string()));
        assert!(read_response(&mut reader).is_err(), "nothing left");
    }
}
