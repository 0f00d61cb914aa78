//! `POST /shutdown` must answer before the process can exit.
//!
//! Stopping the server lets `main` drain and return, which ends every
//! detached connection thread; if the stop came before the reply was
//! written, the client would see the connection close with no response.
//! The race only shows across many fresh processes, so this starts the
//! real binary repeatedly and demands a complete `200` every time.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::process::{Command, Stdio};
use std::time::Duration;

/// With the stop ahead of the reply, about half of all fresh starts lose
/// or truncate it, so thirty starts miss the race with odds near 1 in 10⁹.
const STARTS: usize = 30;

/// Starts `bbgnn-serve` on a free port, sends `POST /shutdown`, and
/// returns the raw reply and the process exit status.
fn shutdown_fresh_server() -> (String, std::process::ExitStatus) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_bbgnn-serve"))
        .args(["--addr", "127.0.0.1:0"])
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn bbgnn-serve");
    let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
    let mut line = String::new();
    stdout.read_line(&mut line).expect("startup line");
    let addr = line
        .trim()
        .strip_prefix("bbgnn-serve listening on http://")
        .unwrap_or_else(|| panic!("unexpected startup line {line:?}"))
        .to_string();

    let mut stream = TcpStream::connect(&addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    stream
        .write_all(b"POST /shutdown HTTP/1.1\r\nHost: t\r\nContent-Length: 0\r\n\r\n")
        .unwrap();
    let mut reply = Vec::new();
    // The reply ends when the server closes the connection (a shutdown
    // reply is `Connection: close`) or the process exits.
    let _ = stream.read_to_end(&mut reply);
    // Drain the rest of stdout so the child never blocks on a full pipe.
    let _ = std::io::copy(&mut stdout, &mut std::io::sink());
    let status = child.wait().expect("wait for bbgnn-serve");
    (String::from_utf8_lossy(&reply).into_owned(), status)
}

#[test]
fn every_shutdown_gets_a_complete_ok_reply_before_exit() {
    for run in 0..STARTS {
        let (reply, status) = shutdown_fresh_server();
        let (head, body) = reply
            .split_once("\r\n\r\n")
            .unwrap_or_else(|| panic!("run {run}: incomplete reply {reply:?}"));
        assert!(
            head.starts_with("HTTP/1.1 200 OK\r\n"),
            "run {run}: {head:?}"
        );
        let length: usize = head
            .lines()
            .find_map(|l| l.strip_prefix("Content-Length: "))
            .and_then(|v| v.trim().parse().ok())
            .unwrap_or_else(|| panic!("run {run}: no Content-Length in {head:?}"));
        assert_eq!(body.len(), length, "run {run}: truncated body {body:?}");
        assert!(body.contains("\"ok\": true"), "run {run}: {body:?}");
        assert!(status.success(), "run {run}: exit {status}");
    }
}
