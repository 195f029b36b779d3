//! Client plumbing for the verification daemon.
//!
//! [`Client`] speaks the NDJSON protocol over a Unix domain socket, a
//! TCP connection ([`Client::connect_tcp`]), or — generically — any
//! reader/writer pair via [`Client::over`], which is how a
//! stdio-transport child process is driven. Both named transports share
//! one bounded-retry helper, [`connect_with_retry`]: the
//! [`connect_or_start`] daemon autostart path and the
//! [`Client::connect_tcp_retry`] cluster path report the same pinned
//! "daemon did not come up within Nms" error when the budget runs out.

use std::fmt;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use commcsl_telemetry::json::Json;
use commcsl_telemetry::{Histogram, MetricsSnapshot};

use crate::protocol::{
    cache_get_from_json, cache_put_from_json, doc_outcome_from_json,
    histograms_from_json, lint_outcome_from_json, logs_from_json,
    metrics_from_json, verify_outcome_from_json, CacheTier, DocOutcomeWire,
    LintOutcome, LogsPage, Request, StatusInfo, VerifyItem, VerifyOutcome,
    PROTOCOL_VERSION,
};

/// Bound on waiting for any single daemon response. Generous — a
/// cold batch over a large corpus verifies in milliseconds-per-
/// program — but finite, so a wedged daemon (deadlocked, SIGSTOPped)
/// surfaces as a transport error and the CLI's in-process fallback
/// can take over instead of hanging forever.
const RESPONSE_TIMEOUT: Duration = Duration::from_secs(120);

/// An error talking to the daemon.
#[derive(Debug)]
pub enum ClientError {
    /// Transport failure (connect, read, write, premature EOF).
    Io(io::Error),
    /// The daemon answered, but not with what the protocol promises.
    Protocol(String),
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "daemon transport error: {e}"),
            ClientError::Protocol(e) => write!(f, "daemon protocol error: {e}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        ClientError::Io(e)
    }
}

impl From<String> for ClientError {
    fn from(e: String) -> Self {
        ClientError::Protocol(e)
    }
}

/// A protocol session with a daemon.
pub struct Client {
    reader: BufReader<Box<dyn Read + Send>>,
    writer: Box<dyn Write + Send>,
}

impl Client {
    /// Wraps an arbitrary transport (a spawned child's stdio, an
    /// in-memory pipe in tests, …).
    pub fn over(
        reader: impl Read + Send + 'static,
        writer: impl Write + Send + 'static,
    ) -> Client {
        Client {
            reader: BufReader::new(Box::new(reader)),
            writer: Box::new(writer),
        }
    }

    /// Sends one request and reads one response.
    pub fn roundtrip(&mut self, request: &Request) -> Result<Json, ClientError> {
        self.send(request)?;
        self.read_json_line()
    }

    /// Sends one request line.
    fn send(&mut self, request: &Request) -> Result<(), ClientError> {
        writeln!(self.writer, "{}", request.encode())?;
        self.writer.flush()?;
        Ok(())
    }

    /// Reads and parses one response line.
    fn read_json_line(&mut self) -> Result<Json, ClientError> {
        let mut line = String::new();
        if self.reader.read_line(&mut line)? == 0 {
            return Err(ClientError::Io(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "daemon closed the connection",
            )));
        }
        Json::parse(line.trim()).map_err(ClientError::Protocol)
    }

    /// Sends one request and reads its (possibly streamed) response:
    /// event lines — documents without an `"ok"` key — go to `on_event`;
    /// the first line carrying `"ok"` terminates and is returned.
    pub fn roundtrip_streaming(
        &mut self,
        request: &Request,
        on_event: &mut dyn FnMut(&Json),
    ) -> Result<Json, ClientError> {
        self.send(request)?;
        loop {
            let doc = self.read_json_line()?;
            if doc.get("ok").is_some() {
                return Ok(doc);
            }
            on_event(&doc);
        }
    }

    /// Verifies one named source.
    pub fn verify(
        &mut self,
        name: impl Into<String>,
        source: impl Into<String>,
    ) -> Result<VerifyOutcome, ClientError> {
        let response = self.roundtrip(&Request::Verify(VerifyItem {
            name: name.into(),
            source: source.into(),
        }))?;
        Ok(verify_outcome_from_json(&response)?)
    }

    /// Verifies a batch; outcomes are in input order.
    pub fn verify_batch(
        &mut self,
        items: Vec<VerifyItem>,
    ) -> Result<Vec<VerifyOutcome>, ClientError> {
        self.verify_batch_opts(items, false)
    }

    /// Verifies a batch with an explicit fail-fast flag: the server stops
    /// dispatching after the first failing verdict and answers the rest
    /// with `skipped` placeholders.
    pub fn verify_batch_opts(
        &mut self,
        items: Vec<VerifyItem>,
        fail_fast: bool,
    ) -> Result<Vec<VerifyOutcome>, ClientError> {
        let expected = items.len();
        let response = self.roundtrip(&Request::VerifyBatch { items, fail_fast })?;
        if response.get("ok").and_then(Json::as_bool) != Some(true) {
            return Err(ClientError::Protocol(
                response
                    .get("error")
                    .and_then(Json::as_str)
                    .unwrap_or("batch request failed")
                    .to_owned(),
            ));
        }
        let results = response
            .get("results")
            .and_then(Json::as_arr)
            .ok_or_else(|| {
                ClientError::Protocol("batch response needs `results`".into())
            })?;
        // One outcome per item, or the response cannot be trusted —
        // silently dropping trailing items would report unverified
        // programs as "all verified".
        if results.len() != expected {
            return Err(ClientError::Protocol(format!(
                "batch response has {} results for {expected} items",
                results.len()
            )));
        }
        results
            .iter()
            .map(|doc| verify_outcome_from_json(doc).map_err(ClientError::Protocol))
            .collect()
    }

    /// Negotiates the protocol version (v2 sessions). Returns the version
    /// the server pinned the session to.
    pub fn hello(&mut self, protocol: u32) -> Result<u32, ClientError> {
        let response = self.roundtrip(&Request::Hello { protocol })?;
        if response.get("ok").and_then(Json::as_bool) != Some(true) {
            return Err(ClientError::Protocol(
                response
                    .get("error")
                    .and_then(Json::as_str)
                    .unwrap_or("hello failed")
                    .to_owned(),
            ));
        }
        let negotiated = response
            .get("protocol")
            .and_then(Json::as_u64)
            .ok_or_else(|| ClientError::Protocol("hello response needs `protocol`".into()))?;
        u32::try_from(negotiated)
            .map_err(|_| ClientError::Protocol("negotiated protocol out of range".into()))
    }

    /// Negotiates the newest protocol this build speaks.
    pub fn hello_latest(&mut self) -> Result<u32, ClientError> {
        self.hello(PROTOCOL_VERSION)
    }

    /// Toggles event streaming for this session's `open`/`update`.
    pub fn subscribe(&mut self, events: bool) -> Result<bool, ClientError> {
        let response = self.roundtrip(&Request::Subscribe { events })?;
        response
            .get("subscribed")
            .and_then(Json::as_bool)
            .ok_or_else(|| {
                ClientError::Protocol(
                    response
                        .get("error")
                        .and_then(Json::as_str)
                        .unwrap_or("subscribe failed")
                        .to_owned(),
                )
            })
    }

    /// Opens (or reopens) a workspace document and verifies it.
    pub fn open(
        &mut self,
        doc: impl Into<String>,
        source: impl Into<String>,
    ) -> Result<DocOutcomeWire, ClientError> {
        self.open_streaming(doc, source, &mut |_| {})
    }

    /// [`Client::open`], forwarding any streamed events (subscribe first).
    pub fn open_streaming(
        &mut self,
        doc: impl Into<String>,
        source: impl Into<String>,
        on_event: &mut dyn FnMut(&Json),
    ) -> Result<DocOutcomeWire, ClientError> {
        let request = Request::Open {
            doc: doc.into(),
            source: source.into(),
        };
        let response = self.roundtrip_streaming(&request, on_event)?;
        Ok(doc_outcome_from_json(&response)?)
    }

    /// Re-verifies an open document after an edit.
    pub fn update(
        &mut self,
        doc: impl Into<String>,
        source: impl Into<String>,
    ) -> Result<DocOutcomeWire, ClientError> {
        self.update_streaming(doc, source, &mut |_| {})
    }

    /// [`Client::update`], forwarding any streamed events.
    pub fn update_streaming(
        &mut self,
        doc: impl Into<String>,
        source: impl Into<String>,
        on_event: &mut dyn FnMut(&Json),
    ) -> Result<DocOutcomeWire, ClientError> {
        let request = Request::Update {
            doc: doc.into(),
            source: source.into(),
        };
        let response = self.roundtrip_streaming(&request, on_event)?;
        Ok(doc_outcome_from_json(&response)?)
    }

    /// Lints one named source (v2). Stateless — no document is opened.
    pub fn lint(
        &mut self,
        name: impl Into<String>,
        source: impl Into<String>,
    ) -> Result<LintOutcome, ClientError> {
        self.lint_streaming(name, source, &mut |_| {})
    }

    /// [`Client::lint`], forwarding any streamed `lint` events
    /// (subscribe first).
    pub fn lint_streaming(
        &mut self,
        name: impl Into<String>,
        source: impl Into<String>,
        on_event: &mut dyn FnMut(&Json),
    ) -> Result<LintOutcome, ClientError> {
        let request = Request::Lint(VerifyItem {
            name: name.into(),
            source: source.into(),
        });
        let response = self.roundtrip_streaming(&request, on_event)?;
        Ok(lint_outcome_from_json(&response)?)
    }

    /// Closes a workspace document; `Ok(true)` when it was open.
    pub fn close(&mut self, doc: impl Into<String>) -> Result<bool, ClientError> {
        let response = self.roundtrip(&Request::Close { doc: doc.into() })?;
        response
            .get("closed")
            .and_then(Json::as_bool)
            .ok_or_else(|| {
                ClientError::Protocol(
                    response
                        .get("error")
                        .and_then(Json::as_str)
                        .unwrap_or("close failed")
                        .to_owned(),
                )
            })
    }

    /// Fetches daemon statistics.
    pub fn status(&mut self) -> Result<StatusInfo, ClientError> {
        let response = self.roundtrip(&Request::Status)?;
        Ok(StatusInfo::from_json(&response)?)
    }

    /// Fetches the daemon's cumulative telemetry counters (v2).
    pub fn metrics(&mut self) -> Result<MetricsSnapshot, ClientError> {
        let response = self.roundtrip(&Request::Metrics)?;
        Ok(metrics_from_json(&response)?)
    }

    /// Fetches the daemon's per-op request-latency histograms (v2).
    /// Values are nanoseconds; pairs are sorted by op name.
    pub fn histograms(&mut self) -> Result<Vec<(String, Histogram)>, ClientError> {
        let response = self.roundtrip(&Request::Histograms)?;
        Ok(histograms_from_json(&response)?)
    }

    /// Fetches a page of the daemon's request event log (v2): every
    /// retained event with `seq > since` (all of them for `None`).
    pub fn logs(&mut self, since: Option<u64>) -> Result<LogsPage, ClientError> {
        let response = self.roundtrip(&Request::Logs { since })?;
        Ok(logs_from_json(&response)?)
    }

    /// Asks the daemon to exit; returns once acknowledged.
    pub fn shutdown(&mut self) -> Result<(), ClientError> {
        let response = self.roundtrip(&Request::Shutdown)?;
        if response.get("ok").and_then(Json::as_bool) == Some(true) {
            Ok(())
        } else {
            Err(ClientError::Protocol("shutdown not acknowledged".into()))
        }
    }

    /// Fetches one content-addressed cache entry from the daemon's local
    /// tiers (v2): `Ok(Some(raw entry text))` on a hit, `Ok(None)` on a
    /// miss. `key` is the 32-hex-digit obligation key / program hash.
    pub fn cache_get(
        &mut self,
        tier: CacheTier,
        key: &str,
    ) -> Result<Option<String>, ClientError> {
        let response = self.roundtrip(&Request::CacheGet {
            tier,
            key: key.to_owned(),
        })?;
        Ok(cache_get_from_json(&response)?)
    }

    /// Publishes one content-addressed cache entry to the daemon (v2);
    /// `Ok(false)` means the daemon validated and *refused* it (version
    /// or key mismatch) — expected across format-version skew, never an
    /// error.
    pub fn cache_put(
        &mut self,
        tier: CacheTier,
        key: &str,
        entry: &str,
    ) -> Result<bool, ClientError> {
        let response = self.roundtrip(&Request::CachePut {
            tier,
            key: key.to_owned(),
            entry: entry.to_owned(),
        })?;
        Ok(cache_put_from_json(&response)?)
    }

    /// Connects to a daemon over TCP with the standard response
    /// timeouts.
    pub fn connect_tcp(addr: &str) -> io::Result<Client> {
        Self::connect_tcp_with_timeout(addr, RESPONSE_TIMEOUT)
    }

    /// [`Client::connect_tcp`] with an explicit response-timeout bound.
    /// The remote-cache tier uses a short one: its fetches run under the
    /// cache lock, and a wedged remote must degrade to a local miss, not
    /// stall verification for two minutes.
    pub fn connect_tcp_with_timeout(
        addr: &str,
        timeout: Duration,
    ) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_read_timeout(Some(timeout))?;
        stream.set_write_timeout(Some(timeout))?;
        // Requests are single small lines; without NODELAY Nagle's
        // algorithm would hold them for the previous response's ACK.
        stream.set_nodelay(true)?;
        let writer = stream.try_clone()?;
        Ok(Client::over(stream, writer))
    }

    /// Connects over TCP, retrying with bounded exponential backoff
    /// until `wait` elapses — for racing a daemon that is still binding
    /// its listener.
    pub fn connect_tcp_retry(addr: &str, wait: Duration) -> io::Result<Client> {
        connect_with_retry(wait, addr, || Client::connect_tcp(addr))
    }
}

/// Retries `connect` with exponential backoff (5 ms doubling, capped at
/// 100 ms) until it succeeds or `wait` elapses. The terminal error is
/// pinned wording shared by every transport: `daemon did not come up
/// within <N>ms on <endpoint>: <last error>`.
pub fn connect_with_retry(
    wait: Duration,
    endpoint: &str,
    mut connect: impl FnMut() -> io::Result<Client>,
) -> io::Result<Client> {
    const BACKOFF_CAP: Duration = Duration::from_millis(100);
    let deadline = Instant::now() + wait;
    let mut backoff = Duration::from_millis(5);
    loop {
        match connect() {
            Ok(client) => return Ok(client),
            Err(e) if Instant::now() >= deadline => {
                return Err(io::Error::new(
                    io::ErrorKind::TimedOut,
                    format!(
                        "daemon did not come up within {}ms on {endpoint}: {e}",
                        wait.as_millis()
                    ),
                ));
            }
            Err(_) => {
                std::thread::sleep(backoff.min(BACKOFF_CAP));
                backoff = backoff.saturating_mul(2);
            }
        }
    }
}

#[cfg(unix)]
mod unix_transport {
    use std::os::unix::net::UnixStream;
    use std::path::Path;

    use super::*;

    impl Client {
        /// Connects to a daemon's Unix socket.
        pub fn connect(socket_path: &Path) -> io::Result<Client> {
            let stream = UnixStream::connect(socket_path)?;
            stream.set_read_timeout(Some(RESPONSE_TIMEOUT))?;
            stream.set_write_timeout(Some(RESPONSE_TIMEOUT))?;
            let writer = stream.try_clone()?;
            Ok(Client::over(stream, writer))
        }
    }

    /// Connects to `socket_path`, or — when nothing answers — runs
    /// `launch` (which should start a daemon in the background) and
    /// retries the socket with [`connect_with_retry`]'s bounded backoff
    /// until it accepts or `wait` elapses.
    ///
    /// # Errors
    ///
    /// The launcher's error, or the pinned "daemon did not come up
    /// within Nms" timeout — callers fall back to in-process
    /// verification on any error.
    pub fn connect_or_start(
        socket_path: &Path,
        wait: Duration,
        launch: impl FnOnce() -> io::Result<()>,
    ) -> io::Result<Client> {
        match Client::connect(socket_path) {
            Ok(client) => return Ok(client),
            Err(_) => launch()?,
        }
        connect_with_retry(wait, &socket_path.display().to_string(), || {
            Client::connect(socket_path)
        })
    }
}

#[cfg(unix)]
pub use unix_transport::connect_or_start;
