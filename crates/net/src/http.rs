//! A minimal HTTP/1.1 scrape endpoint: `GET /metrics` serves the live
//! Prometheus exposition, `GET /healthz` a one-look health report.
//!
//! This is deliberately *not* a web server. It speaks just enough
//! HTTP/1.1 for `curl` and a Prometheus scraper — request line parsed,
//! headers skipped, `Connection: close` on every response — over plain
//! `std::net`, with no dependency and no interaction with the binary
//! frame protocol on the main port. Requests are served inline on the
//! accept thread: a scrape is a few kilobytes, and short socket
//! timeouts keep a stalled client from pinning the loop. The thread
//! blocks in `accept()`; stopping the endpoint wakes it with a loopback
//! connection.

use crate::proto::NetResult;
use crate::stop::{wake_accept, Stop, ACCEPT_RETRY};
use sciql::SharedEngine;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// A bound, not-yet-serving metrics endpoint.
pub struct MetricsEndpoint {
    listener: TcpListener,
    engine: Arc<SharedEngine>,
}

impl MetricsEndpoint {
    /// Bind to `addr` (use port 0 for an ephemeral port). The engine is
    /// only consulted for `/healthz`; `/metrics` reads the process-wide
    /// registry.
    pub fn bind(engine: Arc<SharedEngine>, addr: impl ToSocketAddrs) -> NetResult<MetricsEndpoint> {
        let listener = TcpListener::bind(addr)?;
        Ok(MetricsEndpoint { listener, engine })
    }

    /// The bound address (resolves port 0).
    pub fn local_addr(&self) -> NetResult<SocketAddr> {
        Ok(self.listener.local_addr()?)
    }

    /// Start serving on a background accept thread.
    pub fn serve(self) -> NetResult<MetricsHandle> {
        let addr = self.local_addr()?;
        let shutdown = Arc::new(Stop::default());
        let stop = Arc::clone(&shutdown);
        let engine = self.engine;
        let listener = self.listener;
        let accept = std::thread::Builder::new()
            .name("sciql-metrics-http".into())
            .spawn(move || loop {
                let accepted = listener.accept();
                if stop.is_stopped() {
                    break;
                }
                match accepted {
                    Ok((stream, _)) => serve_one(stream, &engine),
                    Err(_) => {
                        stop.wait(ACCEPT_RETRY);
                    }
                }
            })
            .expect("spawn metrics http thread");
        Ok(MetricsHandle {
            addr,
            shutdown,
            accept: Some(accept),
        })
    }
}

/// Controls a serving [`MetricsEndpoint`].
pub struct MetricsHandle {
    addr: SocketAddr,
    shutdown: Arc<Stop>,
    accept: Option<JoinHandle<()>>,
}

impl MetricsHandle {
    /// The serving address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Request shutdown (idempotent, non-blocking): raise the flag and
    /// wake the blocked accept with a loopback connection.
    pub fn shutdown(&self) {
        if self.shutdown.is_stopped() {
            return;
        }
        self.shutdown.stop();
        wake_accept(self.addr);
    }

    /// [`MetricsHandle::shutdown`], then block until the accept thread
    /// exits.
    pub fn stop(mut self) {
        self.shutdown();
        if let Some(h) = self.accept.take() {
            h.join().ok();
        }
    }
}

impl Drop for MetricsHandle {
    fn drop(&mut self) {
        self.shutdown();
        if let Some(h) = self.accept.take() {
            h.join().ok();
        }
    }
}

/// Handle one HTTP exchange, inline and best-effort: any socket error
/// just drops the connection.
fn serve_one(mut stream: TcpStream, engine: &Arc<SharedEngine>) {
    stream.set_read_timeout(Some(Duration::from_secs(2))).ok();
    stream.set_write_timeout(Some(Duration::from_secs(2))).ok();
    let Some(request_line) = read_request_line(&mut stream) else {
        return;
    };
    let mut parts = request_line.split_ascii_whitespace();
    let (method, path) = match (parts.next(), parts.next()) {
        (Some(m), Some(p)) => (m, p),
        _ => {
            respond(&mut stream, "400 Bad Request", TEXT, "bad request\n");
            return;
        }
    };
    if method != "GET" {
        respond(&mut stream, "405 Method Not Allowed", TEXT, "GET only\n");
        return;
    }
    // Ignore any query string — scrapers sometimes append cache-busters.
    let path = path.split('?').next().unwrap_or(path);
    match path {
        "/metrics" => {
            let body = sciql_obs::global().snapshot().to_prometheus_text();
            respond(&mut stream, "200 OK", PROM, &body);
        }
        "/healthz" => {
            let stats = engine.stats();
            let body = format!(
                "ok\npersistent: {}\nsessions_opened: {}\nstatements: {}\n\
                 snapshot_reads: {}\nrows_returned: {}\n",
                engine.is_persistent(),
                stats.sessions_opened,
                stats.statements,
                stats.snapshot_reads,
                stats.rows_returned,
            );
            respond(&mut stream, "200 OK", TEXT, &body);
        }
        _ => respond(&mut stream, "404 Not Found", TEXT, "not found\n"),
    }
}

const TEXT: &str = "text/plain; charset=utf-8";
/// The Prometheus text exposition content type.
const PROM: &str = "text/plain; version=0.0.4; charset=utf-8";

/// Read up to the end of the request head and return its first line.
/// `None` on timeout, hangup, or a head that never terminates.
fn read_request_line(stream: &mut TcpStream) -> Option<String> {
    let mut head = Vec::new();
    let mut buf = [0u8; 512];
    loop {
        let n = stream.read(&mut buf).ok()?;
        if n == 0 {
            return None;
        }
        head.extend_from_slice(&buf[..n]);
        if head.windows(4).any(|w| w == b"\r\n\r\n") {
            break;
        }
        if head.len() > 8 * 1024 {
            return None; // a request head this large is not a scrape
        }
    }
    let text = String::from_utf8_lossy(&head);
    Some(text.lines().next().unwrap_or("").to_owned())
}

fn respond(stream: &mut TcpStream, status: &str, content_type: &str, body: &str) {
    let head = format!(
        "HTTP/1.1 {status}\r\nContent-Type: {content_type}\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes()).ok();
    stream.write_all(body.as_bytes()).ok();
    stream.flush().ok();
}

#[cfg(test)]
mod tests {
    use super::*;

    fn get(addr: SocketAddr, path: &str) -> String {
        let mut s = TcpStream::connect(addr).unwrap();
        write!(s, "GET {path} HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
        let mut out = String::new();
        s.read_to_string(&mut out).unwrap();
        out
    }

    #[test]
    fn metrics_and_healthz_respond() {
        let engine = SharedEngine::in_memory();
        let mut s = engine.session();
        s.execute("CREATE TABLE t (a INT)").unwrap();
        s.execute("SELECT COUNT(*) FROM t").unwrap();
        let ep = MetricsEndpoint::bind(Arc::clone(&engine), "127.0.0.1:0").unwrap();
        let handle = ep.serve().unwrap();

        let m = get(handle.addr(), "/metrics");
        assert!(m.starts_with("HTTP/1.1 200 OK\r\n"), "{m}");
        assert!(m.contains("text/plain; version=0.0.4"), "{m}");
        assert!(
            m.contains("# TYPE sciql_queries_select_total counter"),
            "{m}"
        );

        let h = get(handle.addr(), "/healthz");
        assert!(h.starts_with("HTTP/1.1 200 OK\r\n"), "{h}");
        assert!(h.contains("ok\npersistent: false"), "{h}");

        assert!(get(handle.addr(), "/nope").starts_with("HTTP/1.1 404"));
        let mut s = TcpStream::connect(handle.addr()).unwrap();
        write!(s, "POST /metrics HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
        let mut out = String::new();
        s.read_to_string(&mut out).unwrap();
        assert!(out.starts_with("HTTP/1.1 405"), "{out}");

        handle.stop();
    }
}
