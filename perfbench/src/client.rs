//! The benchmark's own client for `c4cam serve`.
//!
//! `c4cam loadgen` times a request from when it was sent; an open-loop
//! client must time it from when it was due, so that a stall also
//! charges the requests it delayed. Each connection is driven by one
//! thread (the caller's thread drives the first), and the caller
//! bounds the number of connections.

use std::collections::VecDeque;
use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// How long a connection may wait for a reply before the run fails.
const REPLY_TIMEOUT: Duration = Duration::from_secs(30);
/// The longest an open-loop connection sleeps before it looks for
/// replies again; also the resolution of its reply timestamps.
const POLL: Duration = Duration::from_micros(200);

/// One request and what became of it.
#[derive(Debug, Clone)]
pub struct Record {
    /// The request line, without its newline.
    pub line: String,
    /// When it was due to be sent.
    pub due: Instant,
    /// When it was written to the socket.
    pub sent: Instant,
    /// When its reply line arrived, and the line.
    pub reply: Option<(Instant, String)>,
}

impl Record {
    /// Milliseconds the generator sent the request after it was due.
    pub fn late_ms(&self) -> f64 {
        self.sent.duration_since(self.due).as_secs_f64() * 1e3
    }
}

fn connect(addr: &str) -> Result<TcpStream, String> {
    let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    stream
        .set_nodelay(true)
        .map_err(|e| format!("set_nodelay: {e}"))?;
    Ok(stream)
}

/// Write all of `bytes` to a non-blocking socket, waiting while its
/// send buffer is full.
fn send_nonblocking(w: &mut TcpStream, mut bytes: &[u8]) -> std::io::Result<()> {
    while !bytes.is_empty() {
        match w.write(bytes) {
            Ok(0) => return Err(ErrorKind::WriteZero.into()),
            Ok(n) => bytes = &bytes[n..],
            Err(e) if e.kind() == ErrorKind::WouldBlock => std::thread::sleep(POLL),
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// Open loop on one connection: write request `i` at `due[i]` whether
/// or not earlier replies have arrived, and match replies to requests
/// in order (the server answers a connection's lines in order).
///
/// The socket is non-blocking and the thread sleeps in steps of at
/// most [`POLL`]: a socket read timeout would round its wait up to the
/// kernel's tick and make the generator late by up to a tick.
///
/// # Errors
/// Transport failures, a closed connection, or a reply that does not
/// arrive within the reply timeout.
pub fn open_loop(addr: &str, requests: Vec<(Instant, String)>) -> Result<Vec<Record>, String> {
    let mut writer = connect(addr)?;
    // The clone shares the socket, so both halves are non-blocking.
    let mut reader = writer.try_clone().map_err(|e| e.to_string())?;
    reader
        .set_nonblocking(true)
        .map_err(|e| format!("set_nonblocking: {e}"))?;
    let mut records: Vec<Record> = Vec::with_capacity(requests.len());
    let mut in_flight: VecDeque<usize> = VecDeque::new();
    let mut buf: Vec<u8> = Vec::new();
    let mut chunk = [0u8; 16 << 10];
    let mut requests = requests.into_iter().peekable();
    let mut last_progress = Instant::now();
    loop {
        let now = Instant::now();
        if requests.peek().is_some_and(|(due, _)| now >= *due) {
            let (due, line) = requests.next().expect("peeked");
            let sent = Instant::now();
            send_nonblocking(&mut writer, format!("{line}\n").as_bytes())
                .map_err(|e| format!("send: {e}"))?;
            in_flight.push_back(records.len());
            records.push(Record {
                line,
                due,
                sent,
                reply: None,
            });
            continue;
        }
        match reader.read(&mut chunk) {
            Ok(0) => return Err("server closed the connection".to_string()),
            Ok(n) => {
                let arrived = Instant::now();
                buf.extend_from_slice(&chunk[..n]);
                while let Some(pos) = buf.iter().position(|&b| b == b'\n') {
                    let line: Vec<u8> = buf.drain(..=pos).collect();
                    let i = in_flight
                        .pop_front()
                        .ok_or("a reply arrived with no request in flight")?;
                    let text = String::from_utf8_lossy(&line).trim_end().to_string();
                    records[i].reply = Some((arrived, text));
                    last_progress = arrived;
                }
                continue;
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => {}
            Err(e) => return Err(format!("receive: {e}")),
        }
        match requests.peek() {
            None if in_flight.is_empty() => return Ok(records),
            None if now.duration_since(last_progress) > REPLY_TIMEOUT => {
                return Err(format!("no reply for {REPLY_TIMEOUT:?}"));
            }
            next => {
                let until_due = next.map_or(POLL, |(due, _)| due.saturating_duration_since(now));
                std::thread::sleep(until_due.min(POLL));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{BufRead, BufReader};
    use std::net::TcpListener;

    /// An echo server that answers each line after `delay`, in order.
    fn slow_echo(delay: Duration) -> (String, std::thread::JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let handle = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let mut writer = stream.try_clone().unwrap();
            for line in BufReader::new(stream).lines() {
                let line = line.unwrap();
                std::thread::sleep(delay);
                writeln!(writer, "re:{line}").unwrap();
            }
        });
        (addr, handle)
    }

    #[test]
    fn open_loop_times_from_due_so_a_stall_charges_later_requests() {
        let delay = Duration::from_millis(20);
        let (addr, server) = slow_echo(delay);
        let start = Instant::now() + Duration::from_millis(5);
        // Three requests due together: the server serves them one after
        // another, so the last waits for the first two.
        let requests: Vec<(Instant, String)> = (0..3).map(|i| (start, format!("r{i}"))).collect();
        let records = open_loop(&addr, requests).unwrap();
        server.join().unwrap();
        assert_eq!(records.len(), 3);
        for (i, r) in records.iter().enumerate() {
            let (arrived, line) = r.reply.as_ref().unwrap();
            assert_eq!(*line, format!("re:r{i}"));
            assert!(
                arrived.duration_since(r.due) >= delay * (i as u32 + 1),
                "{r:?}"
            );
            assert!(r.late_ms() >= 0.0);
        }
    }
}
