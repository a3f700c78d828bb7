//! The serving loop: a blocking `TcpListener` accept thread feeding a
//! fixed worker pool over an mpsc channel (plain `std::thread` +
//! channels, deterministic shutdown, no external runtime). Each worker
//! owns a [`PdpPin`], so every connection it serves decides against a
//! pinned snapshot revalidated by one epoch load — the HTTP tier inherits
//! the lock-free path for free. `/decide` and `/decide_batch` bodies are
//! decoded straight into that snapshot's value codes ([`decide_body`]),
//! and each response is written from one per-connection buffer.

use crate::http::{write_response, ConnBuf, HttpError, HttpRequest};
use crate::wire;
use agenp_core::arch::{PdpHandle, PdpPin, ServeStats};
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// Server configuration.
#[derive(Clone, Debug)]
pub struct ServerOptions {
    /// Worker threads serving connections (minimum 1).
    pub threads: usize,
    /// Socket read timeout; bounds how long shutdown can lag.
    pub read_timeout: Duration,
}

impl Default for ServerOptions {
    fn default() -> ServerOptions {
        ServerOptions {
            threads: std::thread::available_parallelism().map_or(2, usize::from),
            read_timeout: Duration::from_millis(200),
        }
    }
}

/// Monotone counters for one running server.
#[derive(Clone, Copy, Debug, Default)]
pub struct HttpStats {
    /// Connections accepted.
    pub connections: u64,
    /// Requests answered `2xx`.
    pub ok: u64,
    /// Requests refused `4xx`.
    pub client_errors: u64,
    /// Decisions rendered over HTTP (batch requests count each element).
    pub decisions: u64,
}

#[derive(Default, Debug)]
struct HttpCounters {
    connections: AtomicU64,
    ok: AtomicU64,
    client_errors: AtomicU64,
    decisions: AtomicU64,
}

/// A running PDP daemon. Dropping it (or calling
/// [`PdpdServer::shutdown`]) stops the accept loop, drains the workers,
/// and joins every thread.
#[derive(Debug)]
pub struct PdpdServer {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    accept: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
    counters: Arc<HttpCounters>,
    handle: PdpHandle,
}

impl PdpdServer {
    /// Binds `addr` (e.g. `127.0.0.1:0` for an ephemeral port) and starts
    /// serving `handle`.
    ///
    /// # Errors
    ///
    /// Propagates socket errors from bind/configure.
    pub fn bind(
        addr: impl ToSocketAddrs,
        handle: PdpHandle,
        options: ServerOptions,
    ) -> io::Result<PdpdServer> {
        let listener = TcpListener::bind(addr)?;
        PdpdServer::serve(listener, handle, options)
    }

    /// Starts serving on an already-bound listener.
    ///
    /// # Errors
    ///
    /// Propagates socket errors from local-address lookup.
    pub fn serve(
        listener: TcpListener,
        handle: PdpHandle,
        options: ServerOptions,
    ) -> io::Result<PdpdServer> {
        let addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let counters = Arc::new(HttpCounters::default());
        let threads = options.threads.max(1);
        let (tx, rx) = channel::<TcpStream>();
        let rx = Arc::new(Mutex::new(rx));

        let mut workers = Vec::with_capacity(threads);
        for _ in 0..threads {
            let rx = Arc::clone(&rx);
            let shutdown = Arc::clone(&shutdown);
            let counters = Arc::clone(&counters);
            let pin = handle.pin();
            let timeout = options.read_timeout;
            workers.push(std::thread::spawn(move || {
                worker_loop(&rx, &shutdown, &counters, pin, timeout);
            }));
        }

        let accept = {
            let shutdown = Arc::clone(&shutdown);
            let counters = Arc::clone(&counters);
            std::thread::spawn(move || accept_loop(&listener, &tx, &shutdown, &counters))
        };

        Ok(PdpdServer {
            addr,
            shutdown,
            accept: Some(accept),
            workers,
            counters,
            handle,
        })
    }

    /// The bound address (useful with an ephemeral port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The serving handle (e.g. to publish new snapshots while serving).
    pub fn handle(&self) -> &PdpHandle {
        &self.handle
    }

    /// HTTP-level counters.
    pub fn http_stats(&self) -> HttpStats {
        HttpStats {
            connections: self.counters.connections.load(Ordering::Relaxed),
            ok: self.counters.ok.load(Ordering::Relaxed),
            client_errors: self.counters.client_errors.load(Ordering::Relaxed),
            decisions: self.counters.decisions.load(Ordering::Relaxed),
        }
    }

    /// Stops accepting, drains in-flight connections, joins all threads.
    /// Idempotent.
    pub fn shutdown(&mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }

    /// Blocks until the server is shut down from another thread (the
    /// standalone daemon's main thread parks here).
    pub fn join(&mut self) {
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

impl Drop for PdpdServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn accept_loop(
    listener: &TcpListener,
    tx: &Sender<TcpStream>,
    shutdown: &AtomicBool,
    counters: &HttpCounters,
) {
    while !shutdown.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _)) => {
                counters.connections.fetch_add(1, Ordering::Relaxed);
                if tx.send(stream).is_err() {
                    return; // every worker is gone
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(5));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(5)),
        }
    }
    // Dropping `tx` here closes the channel; workers drain and exit.
}

fn worker_loop(
    rx: &Mutex<Receiver<TcpStream>>,
    shutdown: &AtomicBool,
    counters: &HttpCounters,
    mut pin: PdpPin,
    timeout: Duration,
) {
    loop {
        // Take the next connection; recv_timeout so shutdown is noticed
        // even when the accept loop is idle.
        let stream = {
            let guard = rx.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
            match guard.recv_timeout(Duration::from_millis(100)) {
                Ok(s) => s,
                Err(std::sync::mpsc::RecvTimeoutError::Timeout) => {
                    if shutdown.load(Ordering::SeqCst) {
                        return;
                    }
                    continue;
                }
                Err(std::sync::mpsc::RecvTimeoutError::Disconnected) => return,
            }
        };
        let _ = stream.set_read_timeout(Some(timeout));
        let _ = stream.set_nodelay(true);
        serve_connection(stream, shutdown, counters, &mut pin);
    }
}

/// Serves one connection until close, error, or shutdown.
fn serve_connection(
    stream: TcpStream,
    shutdown: &AtomicBool,
    counters: &HttpCounters,
    pin: &mut PdpPin,
) {
    let write_half = match stream.try_clone() {
        Ok(w) => w,
        Err(_) => return,
    };
    let mut write_half = write_half;
    let mut conn = ConnBuf::new(stream);
    // The response body, reused across the connection's requests.
    let mut body = String::new();
    loop {
        let request = match conn.read_request() {
            Ok(Some(r)) => r,
            Ok(None) => return, // clean close
            Err(HttpError::TimedOut) => {
                if shutdown.load(Ordering::SeqCst) {
                    return;
                }
                continue;
            }
            Err(HttpError::Malformed(msg)) => {
                counters.client_errors.fetch_add(1, Ordering::Relaxed);
                let _ = write_response(
                    &mut write_half,
                    400,
                    wire::error_body(&msg).as_bytes(),
                    true,
                );
                return;
            }
            Err(HttpError::TooLarge(what)) => {
                counters.client_errors.fetch_add(1, Ordering::Relaxed);
                let status = if what == "body" { 413 } else { 431 };
                let _ = write_response(
                    &mut write_half,
                    status,
                    wire::error_body(&format!("{what} too large")).as_bytes(),
                    true,
                );
                return;
            }
            Err(HttpError::Io(_)) => return,
        };
        let keep_alive = request.keep_alive;
        body.clear();
        let status = route(pin, counters, &request, &mut body);
        if status < 400 {
            counters.ok.fetch_add(1, Ordering::Relaxed);
        } else {
            counters.client_errors.fetch_add(1, Ordering::Relaxed);
        }
        if write_response(&mut write_half, status, body.as_bytes(), !keep_alive).is_err() {
            return;
        }
        if !keep_alive {
            return;
        }
    }
}

/// Dispatches one request to its endpoint, appending the JSON response
/// body to `out`. Returns the status.
fn route(
    pin: &mut PdpPin,
    counters: &HttpCounters,
    request: &HttpRequest,
    out: &mut String,
) -> u16 {
    match (request.method.as_str(), request.path.as_str()) {
        ("POST", path @ ("/decide" | "/decide_batch")) => {
            let (status, decisions) = decide_body(pin, path == "/decide_batch", &request.body, out);
            counters
                .decisions
                .fetch_add(decisions as u64, Ordering::Relaxed);
            status
        }
        ("GET", "/metrics") => {
            out.push_str(&metrics_body(pin.handle().stats(), counters));
            200
        }
        ("GET", "/healthz") => {
            out.push_str("{\"ok\": true}");
            200
        }
        ("POST" | "GET", "/decide" | "/decide_batch" | "/metrics" | "/healthz") => {
            wire::push_error(
                out,
                &format!("method {} not allowed on {}", request.method, request.path),
            );
            405
        }
        _ => {
            wire::push_error(out, &format!("no route {}", request.path));
            404
        }
    }
}

/// The `/decide` (`batch` false) and `/decide_batch` handler: decodes
/// `body` straight into the pinned snapshot's value codes
/// ([`wire::decode_request`], [`wire::decode_batch`]), decides the whole
/// body under that one snapshot, and appends the JSON response to `out`.
/// Returns the status — 200, or 400 with `{"error": ...}` — and the number
/// of decisions rendered.
pub fn decide_body(pin: &mut PdpPin, batch: bool, body: &[u8], out: &mut String) -> (u16, usize) {
    let decided = if batch {
        pin.decide_resolved(|requests| wire::decode_batch(body, requests))
    } else {
        pin.decide_resolved(|requests| wire::decode_request(body, requests))
    };
    match decided {
        Ok(outcomes) => {
            if batch {
                wire::push_batch(out, &outcomes);
            } else {
                wire::push_outcome(out, &outcomes[0]);
            }
            (200, outcomes.len())
        }
        Err(msg) => {
            wire::push_error(out, &msg);
            (400, 0)
        }
    }
}

/// The obs-backed `/metrics` document: per-handle serve stats, HTTP-level
/// counters, and (when telemetry is enabled) the full `agenp-obs` dump.
fn metrics_body(serve: ServeStats, counters: &HttpCounters) -> String {
    let obs = if agenp_obs::enabled() {
        agenp_obs::snapshot("pdpd.metrics").to_json()
    } else {
        "null".to_string()
    };
    format!(
        "{{\"serve\": {{\"decisions\": {}, \"publishes\": {}}}, \
         \"http\": {{\"connections\": {}, \"ok\": {}, \"client_errors\": {}, \
         \"decisions\": {}}}, \"obs\": {}}}",
        serve.decisions,
        serve.publishes,
        counters.connections.load(Ordering::Relaxed),
        counters.ok.load(Ordering::Relaxed),
        counters.client_errors.load(Ordering::Relaxed),
        counters.decisions.load(Ordering::Relaxed),
        obs
    )
}
