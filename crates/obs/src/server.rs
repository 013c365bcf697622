//! A dependency-free `/metrics` endpoint over a plain [`TcpListener`].
//!
//! Serves its owner's families, then the process registry's, as one
//! Prometheus text exposition to any HTTP/1.x GET (path is not inspected —
//! every request gets the metrics page, which is all a scraper needs).
//! Shutdown follows the transport crate's idiom: flip an [`AtomicBool`] and
//! self-connect to unblock `accept`.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use crate::registry::global;

/// A running metrics endpoint. Dropping it stops the serving thread.
#[derive(Debug)]
pub struct ObsServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
}

impl ObsServer {
    /// Binds `addr` (use port 0 for an ephemeral port) and starts serving:
    /// each scrape is `render()`'s exposition — the owner's families, read
    /// when the scrape arrives — followed by the process registry's.
    ///
    /// # Errors
    ///
    /// [`std::io::Error`] if the bind fails.
    pub fn bind(
        addr: SocketAddr,
        render: impl Fn() -> String + Send + 'static,
    ) -> std::io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let stop_flag = Arc::clone(&stop);
        let handle = std::thread::Builder::new()
            .name("obs-metrics".into())
            .spawn(move || serve_loop(&listener, &stop_flag, &render))
            .expect("spawn obs-metrics thread");
        Ok(Self {
            addr,
            stop,
            handle: Some(handle),
        })
    }

    /// The bound address (resolved port when bound with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }
}

impl Drop for ObsServer {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Release);
        // Unblock accept() so the serving thread observes the flag.
        let _ = TcpStream::connect(self.addr);
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

fn serve_loop(listener: &TcpListener, stop: &AtomicBool, render: &dyn Fn() -> String) {
    loop {
        let Ok((stream, _)) = listener.accept() else {
            if stop.load(Ordering::Acquire) {
                return;
            }
            continue;
        };
        if stop.load(Ordering::Acquire) {
            return;
        }
        let _ = answer(stream, render);
    }
}

fn answer(mut stream: TcpStream, render: &dyn Fn() -> String) -> std::io::Result<()> {
    stream.set_read_timeout(Some(Duration::from_millis(500)))?;
    stream.set_write_timeout(Some(Duration::from_secs(2)))?;
    // Drain the request head; ignore its contents.
    let mut buf = [0u8; 1024];
    let mut head = Vec::new();
    loop {
        let n = stream.read(&mut buf)?;
        if n == 0 {
            break;
        }
        head.extend_from_slice(&buf[..n]);
        if head.windows(4).any(|w| w == b"\r\n\r\n") || head.len() > 16 * 1024 {
            break;
        }
    }
    let body = render() + &global().render_prometheus();
    let response = format!(
        "HTTP/1.1 200 OK\r\nContent-Type: text/plain; version=0.0.4; charset=utf-8\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{}",
        body.len(),
        body
    );
    stream.write_all(response.as_bytes())
}

/// Scrapes a metrics endpoint: issues an HTTP GET to `addr` and returns the
/// response body (the exposition text).
///
/// # Errors
///
/// [`std::io::Error`] on connect/read failure or a malformed response.
pub fn scrape(addr: SocketAddr) -> std::io::Result<String> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(5)))?;
    stream.write_all(b"GET /metrics HTTP/1.1\r\nHost: aoft\r\nConnection: close\r\n\r\n")?;
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw)?;
    let text = String::from_utf8(raw).map_err(|e| {
        std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("non-UTF-8 response: {e}"),
        )
    })?;
    let Some((head, body)) = text.split_once("\r\n\r\n") else {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            "no header/body separator in response",
        ));
    };
    if !head.starts_with("HTTP/1.1 200") && !head.starts_with("HTTP/1.0 200") {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("non-200 response: {}", head.lines().next().unwrap_or("")),
        ));
    }
    Ok(body.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serves_parseable_exposition() {
        let owner = || {
            let mut out = crate::prom::Exposition::default();
            out.family("aoft_queue_depth", "gauge", "Jobs waiting.");
            out.sample("aoft_queue_depth", &[], 3);
            out.finish()
        };
        let server = ObsServer::bind("127.0.0.1:0".parse().unwrap(), owner).unwrap();
        let body = scrape(server.local_addr()).unwrap();
        let samples = crate::prom::parse_samples(&body).expect("valid exposition");
        assert_eq!(samples["aoft_queue_depth"], 3.0, "the owner's families");
        assert!(
            samples.contains_key("aoft_sort_runs_total"),
            "the registry's"
        );
        // A second scrape works too (connection-per-request).
        let body2 = scrape(server.local_addr()).unwrap();
        assert!(body2.contains("aoft_queue_depth 3"));
    }

    #[test]
    fn drop_stops_the_thread() {
        let server = ObsServer::bind("127.0.0.1:0".parse().unwrap(), String::new).unwrap();
        let addr = server.local_addr();
        drop(server);
        // After drop the port should refuse (or at least not serve metrics
        // forever); binding it again must succeed eventually.
        let mut rebound = false;
        for _ in 0..50 {
            if TcpListener::bind(addr).is_ok() {
                rebound = true;
                break;
            }
            std::thread::sleep(Duration::from_millis(20));
        }
        assert!(rebound, "port not released after drop");
    }
}
