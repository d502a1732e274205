//! Minimal std-only HTTP/1.1 plumbing for the admin plane.
//!
//! Deliberately tiny: `GET` only, one request per connection
//! (`Connection: close`), no TLS, no chunked bodies — enough for a
//! Prometheus scraper, a load-balancer health probe and a curl-wielding
//! operator, with zero dependencies. This is also the first wire surface
//! in the stack; a future query front-end reuses the listener/codec
//! shape rather than inventing another one.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// A parsed request line: method and percent-unaware path (query strings
/// are split off and ignored — no admin endpoint takes parameters).
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Request {
    pub(crate) method: String,
    pub(crate) path: String,
}

/// Reads one request head off `stream` (up to the blank line; any body is
/// ignored — GETs carry none). Returns `None` on malformed, oversized or
/// timed-out input; the caller just drops the connection. The 5 s limit
/// covers the whole head, not each read: a client trickling one byte at a
/// time cannot hold the connection's thread past it.
pub(crate) fn read_request(stream: &mut TcpStream) -> Option<Request> {
    /// Cap on the request head — an admin request line is tens of bytes.
    const MAX_HEAD: usize = 8 * 1024;
    let deadline = Instant::now() + Duration::from_secs(5);
    let mut head = Vec::new();
    let mut buf = [0u8; 1024];
    loop {
        let left = deadline.checked_duration_since(Instant::now()).filter(|d| !d.is_zero())?;
        stream.set_read_timeout(Some(left)).ok()?;
        let n = stream.read(&mut buf).ok()?;
        if n == 0 {
            return None;
        }
        head.extend_from_slice(&buf[..n]);
        if head.windows(4).any(|w| w == b"\r\n\r\n") || head.windows(2).any(|w| w == b"\n\n") {
            break;
        }
        if head.len() > MAX_HEAD {
            return None;
        }
    }
    let head = String::from_utf8_lossy(&head);
    let line = head.lines().next()?;
    let mut parts = line.split_whitespace();
    let method = parts.next()?.to_string();
    let target = parts.next()?;
    let version = parts.next()?;
    if !version.starts_with("HTTP/1.") {
        return None;
    }
    let path = target.split('?').next().unwrap_or(target).to_string();
    Some(Request { method, path })
}

/// The reason phrases the admin plane uses.
fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        404 => "Not Found",
        405 => "Method Not Allowed",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

/// Writes one complete response and flushes. Always `Connection: close`;
/// the caller drops the stream afterwards.
pub(crate) fn write_response(stream: &mut TcpStream, status: u16, content_type: &str, body: &str) {
    let head = format!(
        "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        status,
        reason(status),
        content_type,
        body.len()
    );
    let _ = stream.write_all(head.as_bytes());
    let _ = stream.write_all(body.as_bytes());
    let _ = stream.flush();
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    #[test]
    fn parses_a_request_and_round_trips_a_response() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client = std::thread::spawn(move || {
            let mut s = TcpStream::connect(addr).unwrap();
            s.write_all(b"GET /metrics?foo=1 HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
            let mut out = String::new();
            s.read_to_string(&mut out).unwrap();
            out
        });
        let (mut conn, _) = listener.accept().unwrap();
        let req = read_request(&mut conn).expect("well-formed request");
        assert_eq!(req, Request { method: "GET".into(), path: "/metrics".into() });
        write_response(&mut conn, 200, "text/plain", "hello");
        drop(conn);
        let got = client.join().unwrap();
        assert!(got.starts_with("HTTP/1.1 200 OK\r\n"), "got: {got}");
        assert!(got.contains("Content-Length: 5\r\n"));
        assert!(got.contains("Connection: close\r\n"));
        assert!(got.ends_with("hello"));
    }

    #[test]
    fn rejects_garbage() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client = std::thread::spawn(move || {
            let mut s = TcpStream::connect(addr).unwrap();
            s.write_all(b"not http at all\r\n\r\n").unwrap();
        });
        let (mut conn, _) = listener.accept().unwrap();
        assert!(read_request(&mut conn).is_none());
        client.join().unwrap();
    }

    /// One byte a second never ends the head, and every single read
    /// returns well inside 5 s: the limit must hold for the head as a
    /// whole, or the connection's thread is held until the client stops.
    #[test]
    fn a_trickling_client_times_out_on_the_whole_head() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let (stop, stopped) = std::sync::mpsc::channel::<()>();
        let client = std::thread::spawn(move || {
            let mut s = TcpStream::connect(addr).unwrap();
            for _ in 0..12 {
                if s.write_all(b"G").is_err()
                    || stopped.recv_timeout(Duration::from_secs(1)).is_ok()
                {
                    break;
                }
            }
        });
        let (mut conn, _) = listener.accept().unwrap();
        let t0 = Instant::now();
        assert!(read_request(&mut conn).is_none());
        let held = t0.elapsed();
        let _ = stop.send(());
        client.join().unwrap();
        assert!(held < Duration::from_secs(6), "a trickling client held the reader for {held:?}");
    }
}
