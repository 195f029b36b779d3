//! The long-running verification daemon.
//!
//! A [`Server`] owns a cached [`Verifier`] (two-tier content-addressed
//! verdict cache in front of the work-stealing batch pool) and a
//! *compile function* injected by the caller — the daemon is agnostic to
//! the surface syntax; `commcsl-front` passes its `.csl` compiler in.
//! Sessions speak the NDJSON protocol of [`crate::protocol`] over either
//! transport:
//!
//! * [`Server::serve_unix`] — a Unix-domain-socket accept loop, one
//!   thread per connection, all sessions sharing the cache. This is the
//!   `commcsl serve` daemon.
//! * [`Server::serve_stream`] — a single session over any
//!   reader/writer pair; wired to stdin/stdout it is the portable
//!   `commcsl serve --stdio` fallback (also used by the tests).
//!
//! Shutdown is cooperative: a `shutdown` request is acknowledged on its
//! own session, then the accept loop stops, in-flight sessions drain
//! (their reads poll a shared flag), and the socket file is removed.

use std::collections::BTreeMap;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant, SystemTime};

use commcsl_verifier::api::Verifier;
use commcsl_verifier::cache::{CacheConfig, RemoteObligationTier, VerdictCache};
use commcsl_verifier::hash::{ProgramHash, HASH_FORMAT_VERSION};
use commcsl_verifier::obligation::ObligationKey;
use commcsl_verifier::program::AnnotatedProgram;
use commcsl_verifier::report::VerifierConfig;
use commcsl_verifier::workspace::{Workspace, WorkspaceEvent};

use commcsl_analysis::lint::lint_program;

use commcsl_telemetry::json::Json;
use commcsl_telemetry::{EventLog, Histogram, MetricsSnapshot};

use crate::protocol::{
    cache_get_response_json, cache_put_response_json, doc_response_json,
    error_json, histograms_response_json, lint_event_json, lint_response_json,
    logs_response_json, metrics_response_json, obligation_event_json,
    started_event_json, verify_response_json, with_request_id, CacheTier,
    DocOk, DocOutcomeWire, LintOk, LintOutcome, LogsPage, Request, StatusInfo,
    VerifyItem, VerifyOk, VerifyOutcome, PROTOCOL_VERSION,
};

/// Compiles surface source text to a lowered program. Errors are
/// reported to the client verbatim (conventionally `line:col: message`).
pub type CompileFn = Box<dyn Fn(&str) -> Result<AnnotatedProgram, String> + Send + Sync>;

/// Where a daemon listens for NDJSON sessions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Listen {
    /// A Unix-domain socket at the given path (Unix only).
    Unix(PathBuf),
    /// A TCP listener on the given `host:port` address. `port` may be 0
    /// to bind an ephemeral port — [`Server::serve_listen`] records the
    /// actual address for `status`.
    Tcp(String),
}

impl Default for Listen {
    fn default() -> Self {
        Listen::Unix(PathBuf::from(".commcsl-cache/commcsl.sock"))
    }
}

impl Listen {
    /// The transport name reported in `status` (`"unix"` / `"tcp"`).
    pub fn transport_name(&self) -> &'static str {
        match self {
            Listen::Unix(_) => "unix",
            Listen::Tcp(_) => "tcp",
        }
    }

    /// The configured address — socket path or `host:port`.
    pub fn addr_string(&self) -> String {
        match self {
            Listen::Unix(path) => path.display().to_string(),
            Listen::Tcp(addr) => addr.clone(),
        }
    }
}

/// Daemon configuration.
#[derive(Default)]
pub struct ServerConfig {
    /// Worker threads for cache misses (0 = one per CPU).
    pub threads: usize,
    /// Verdict-cache tiers.
    pub cache: CacheConfig,
    /// Verifier budgets (part of every cache key).
    pub verifier: VerifierConfig,
    /// Requests at least this slow are flagged in the event log with
    /// span aggregates for the op (0 = the 250 ms default).
    pub slow_request_ms: u64,
    /// Event-log capacity in records (0 = the default of
    /// [`EventLog::DEFAULT_CAPACITY`]).
    pub event_log_capacity: usize,
    /// Listen endpoint for [`Server::serve_listen`] (stdio sessions
    /// ignore it).
    pub listen: Listen,
}

/// Slow-request threshold used when [`ServerConfig::slow_request_ms`]
/// is left at 0.
const DEFAULT_SLOW_REQUEST_MS: u64 = 250;

/// The verification daemon: shared cache, counters, session loops.
pub struct Server {
    /// The batch pipeline. Fail-fast is a per-request protocol flag, so
    /// requests that set it run on a clone with the flag on.
    verifier: Verifier,
    /// The verifier's cache, shared with every session's workspace.
    cache: Arc<Mutex<VerdictCache>>,
    compile: CompileFn,
    threads: usize,
    started: Instant,
    requests: AtomicU64,
    programs: AtomicU64,
    /// Workspace documents currently open across all sessions.
    documents: AtomicI64,
    /// Obligations discharged by the static pre-pass (workspace runs and
    /// `verify` misses).
    statically_proven: AtomicU64,
    /// Obligations discharged by the solver (workspace runs and `verify`
    /// misses).
    solver_checked: AtomicU64,
    /// Response bytes written to clients (newlines included).
    bytes_streamed: AtomicU64,
    /// Lines that failed to decode as protocol requests.
    decode_errors: AtomicU64,
    /// Requests at or over the slow-request threshold.
    slow_requests: AtomicU64,
    /// Daemon-assigned request-id counter for clients that send none.
    next_request_id: AtomicU64,
    /// Slow-request threshold in nanoseconds.
    slow_request_ns: u64,
    /// Wall-clock start (ms since the Unix epoch), for
    /// `status.started_at_unix_ms`.
    started_unix_ms: u64,
    /// Per-op request-latency histograms (nanoseconds).
    histograms: Mutex<BTreeMap<String, Histogram>>,
    /// Ring buffer of recent request events (the `logs` op reads it).
    events: EventLog,
    /// Configured listen endpoint ([`Server::serve_listen`] dispatches
    /// on it).
    listen: Listen,
    /// `(transport, addr)` of the live listener — empty until a serve
    /// loop binds; TCP records the *actual* address (port 0 resolves).
    endpoint: Mutex<(String, String)>,
    shutdown: AtomicBool,
}

/// Per-connection protocol state: the negotiated version, the event
/// subscription, and the connection's [`Workspace`] (documents are
/// session-scoped; the verdict/obligation cache behind them is the
/// server-wide one).
pub struct Session {
    protocol: u32,
    subscribed: bool,
    workspace: Workspace,
}

impl Server {
    /// Creates a daemon with the given compiler for incoming sources.
    pub fn new(config: ServerConfig, compile: CompileFn) -> Self {
        let verifier = Verifier::new()
            .with_config(config.verifier)
            .with_threads(config.threads)
            .with_cache(config.cache);
        Server {
            cache: verifier.shared_cache().expect("the daemon verifier has a cache"),
            verifier,
            compile,
            threads: config.threads,
            started: Instant::now(),
            requests: AtomicU64::new(0),
            programs: AtomicU64::new(0),
            documents: AtomicI64::new(0),
            statically_proven: AtomicU64::new(0),
            solver_checked: AtomicU64::new(0),
            bytes_streamed: AtomicU64::new(0),
            decode_errors: AtomicU64::new(0),
            slow_requests: AtomicU64::new(0),
            next_request_id: AtomicU64::new(0),
            slow_request_ns: if config.slow_request_ms == 0 {
                DEFAULT_SLOW_REQUEST_MS
            } else {
                config.slow_request_ms
            } * 1_000_000,
            started_unix_ms: SystemTime::now()
                .duration_since(SystemTime::UNIX_EPOCH)
                .map(|d| d.as_millis() as u64)
                .unwrap_or(0),
            histograms: Mutex::new(BTreeMap::new()),
            events: if config.event_log_capacity == 0 {
                EventLog::default()
            } else {
                EventLog::new(config.event_log_capacity)
            },
            listen: config.listen,
            endpoint: Mutex::new((String::new(), String::new())),
            shutdown: AtomicBool::new(false),
        }
    }

    /// Chains a remote obligation-cache tier behind the local memory and
    /// disk tiers (`status` then reports its endpoint and per-tier
    /// counters).
    pub fn set_remote_cache(&self, remote: Box<dyn RemoteObligationTier>) {
        self.cache
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .set_remote(remote);
    }

    /// Creates the protocol state for one connection: a fresh workspace
    /// over the server-wide cache, the newest protocol version, events
    /// off.
    pub fn new_session(&self) -> Session {
        Session {
            protocol: PROTOCOL_VERSION,
            subscribed: false,
            workspace: Workspace::with_shared_cache(
                self.verifier.config().clone(),
                Arc::clone(&self.cache),
            ),
        }
    }

    /// `true` once a `shutdown` request has been served (or
    /// [`Server::request_shutdown`] was called).
    pub fn shutdown_requested(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    /// Asks every session loop and the accept loop to wind down.
    pub fn request_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
    }

    /// Current daemon statistics.
    pub fn status(&self) -> StatusInfo {
        let (cache, memory_entries, remote) = {
            let cache = self
                .cache
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            (cache.stats(), cache.memory_len(), cache.remote_endpoint())
        };
        let (transport, addr) = self
            .endpoint
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .clone();
        StatusInfo {
            version: env!("CARGO_PKG_VERSION").to_owned(),
            format_version: u64::from(HASH_FORMAT_VERSION),
            protocol_version: u64::from(PROTOCOL_VERSION),
            backend: self.verifier.config().backend.name().to_owned(),
            uptime_ms: self.started.elapsed().as_secs_f64() * 1000.0,
            started_at_unix_ms: self.started_unix_ms,
            ops: self
                .histogram_snapshot()
                .iter()
                .map(|(op, h)| (op.clone(), h.count()))
                .collect(),
            requests: self.requests.load(Ordering::Relaxed),
            programs: self.programs.load(Ordering::Relaxed),
            documents: self.documents.load(Ordering::Relaxed).max(0) as u64,
            memory_hits: cache.memory_hits,
            disk_hits: cache.disk_hits,
            misses: cache.misses,
            evictions: cache.evictions,
            memory_entries: memory_entries as u64,
            obligation_hits: cache.obligation_hits,
            obligation_misses: cache.obligation_misses,
            statically_proven: self.statically_proven.load(Ordering::Relaxed),
            solver_checked: self.solver_checked.load(Ordering::Relaxed),
            bytes_streamed: self.bytes_streamed.load(Ordering::Relaxed),
            threads: self.threads as u64,
            transport,
            addr,
            remote: remote.unwrap_or_default(),
            remote_hits: cache.remote_hits,
            remote_misses: cache.remote_misses,
            remote_stores: cache.remote_stores,
        }
    }

    /// The daemon's cumulative counters as one flat snapshot — the
    /// `metrics` protocol response. Names follow the dotted taxonomy the
    /// in-process profiler uses, so dashboards can treat both sources
    /// uniformly.
    pub fn metrics(&self) -> MetricsSnapshot {
        let status = self.status();
        MetricsSnapshot::from_pairs([
            ("daemon.requests", status.requests),
            ("daemon.programs", status.programs),
            ("daemon.documents", status.documents),
            ("daemon.bytes_streamed", status.bytes_streamed),
            (
                "daemon.request.decode_error",
                self.decode_errors.load(Ordering::Relaxed),
            ),
            (
                "daemon.requests.slow",
                self.slow_requests.load(Ordering::Relaxed),
            ),
            ("daemon.events.dropped", self.events.dropped()),
            ("cache.memory_hits", status.memory_hits),
            ("cache.disk_hits", status.disk_hits),
            ("cache.misses", status.misses),
            ("cache.evictions", status.evictions),
            ("cache.memory_entries", status.memory_entries),
            ("cache.obligation_hits", status.obligation_hits),
            ("cache.obligation_misses", status.obligation_misses),
            ("cache.remote_hits", status.remote_hits),
            ("cache.remote_misses", status.remote_misses),
            ("cache.remote_stores", status.remote_stores),
            ("obligations.statically_proven", status.statically_proven),
            ("obligations.solver_checked", status.solver_checked),
        ]
        .map(|(name, value)| (name.to_owned(), value)))
    }

    /// A point-in-time copy of the per-op latency histograms, sorted by
    /// op name (the `histograms` protocol response).
    pub fn histogram_snapshot(&self) -> Vec<(String, Histogram)> {
        let hists = self
            .histograms
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        hists.iter().map(|(op, h)| (op.clone(), h.clone())).collect()
    }

    /// The daemon's request event log (the `logs` protocol op serves
    /// pages of it).
    pub fn event_log(&self) -> &EventLog {
        &self.events
    }

    /// A fresh daemon-assigned request id (`r1`, `r2`, …) for lines
    /// whose client supplied none.
    fn assign_request_id(&self) -> String {
        format!("r{}", self.next_request_id.fetch_add(1, Ordering::Relaxed) + 1)
    }

    /// Records one served request into the per-op histogram and the
    /// event log; slow requests additionally capture the op's current
    /// latency aggregates in the event detail.
    fn observe_request(&self, op: &str, request_id: &str, dur_ns: u64, ok: bool) {
        let detail = {
            let mut hists = self
                .histograms
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            let hist = hists.entry(op.to_owned()).or_default();
            hist.record(dur_ns);
            if dur_ns >= self.slow_request_ns {
                self.slow_requests.fetch_add(1, Ordering::Relaxed);
                format!(
                    "slow: {:.3} ms over {} ms threshold (op p50 {:.3} ms, p99 {:.3} ms, n {})",
                    dur_ns as f64 / 1e6,
                    self.slow_request_ns / 1_000_000,
                    hist.quantile(0.5) as f64 / 1e6,
                    hist.quantile(0.99) as f64 / 1e6,
                    hist.count(),
                )
            } else {
                String::new()
            }
        };
        let outcome = if ok { "ok" } else { "error" };
        self.events.push(op, request_id, dur_ns, outcome, &detail);
    }

    /// Records a line that failed to decode: the
    /// `daemon.request.decode_error` counter plus a `decode` event.
    fn observe_decode_error(&self, request_id: &str, error: &str) {
        self.decode_errors.fetch_add(1, Ordering::Relaxed);
        self.events.push("decode", request_id, 0, "decode_error", error);
    }

    /// Compiles and verifies a batch of items; cache misses ride the
    /// parallel pipeline together. Outcomes are in input order. With
    /// `fail_fast`, dispatch stops after the first failing verdict and
    /// later items answer as skipped placeholders.
    pub fn verify_items(&self, items: &[VerifyItem], fail_fast: bool) -> Vec<VerifyOutcome> {
        // Per-item compile timing, so a cache hit's reported time stays
        // its own microseconds instead of inheriting a batch average.
        let compiled: Vec<(Result<AnnotatedProgram, String>, f64)> = items
            .iter()
            .map(|item| {
                let start = Instant::now();
                let result = (self.compile)(&item.source);
                (result, start.elapsed().as_secs_f64() * 1000.0)
            })
            .collect();

        let programs: Vec<&AnnotatedProgram> = compiled
            .iter()
            .filter_map(|(c, _)| c.as_ref().ok())
            .collect();
        let verified = if fail_fast {
            self.verifier.clone().with_fail_fast(true).verify_batch(&programs)
        } else {
            self.verifier.verify_batch(&programs)
        };
        let attempted = verified.iter().filter(|r| !r.skipped).count();
        self.programs.fetch_add(attempted as u64, Ordering::Relaxed);
        // Misses ran the discharge pipeline; program-tier hits add nothing.
        for stats in verified.iter().filter_map(|r| r.stats) {
            self.statically_proven
                .fetch_add(stats.statically_proven as u64, Ordering::Relaxed);
            self.solver_checked
                .fetch_add(stats.checked as u64, Ordering::Relaxed);
        }
        let mut verified = verified.into_iter();

        compiled
            .iter()
            .map(|(c, compile_ms)| match c {
                Ok(_) => {
                    let r = verified.next().expect("one result per compiled program");
                    Ok(VerifyOk {
                        cached: r.cached == Some(true),
                        key: r.key.expect("the daemon verifier has a cache"),
                        time_ms: r.time.as_secs_f64() * 1000.0 + compile_ms,
                        skipped: r.skipped,
                        report: r.report,
                    })
                }
                Err(e) => Err(e.clone()),
            })
            .collect()
    }

    /// Serves one protocol request in a session, emitting one or more
    /// response lines through `emit` (event streaming for subscribed v2
    /// sessions). Returns whether the daemon should shut down after the
    /// response.
    pub fn handle_session_request(
        &self,
        session: &mut Session,
        request: &Request,
        emit: &mut dyn FnMut(&Json) -> io::Result<()>,
    ) -> io::Result<bool> {
        let _span = commcsl_telemetry::span!("daemon.request", op = request.op_name());
        self.requests.fetch_add(1, Ordering::Relaxed);
        match request {
            Request::Verify(item) => {
                let outcome = self
                    .verify_items(std::slice::from_ref(item), false)
                    .remove(0);
                emit(&verify_response_json(&outcome))?;
                Ok(false)
            }
            Request::VerifyBatch { items, fail_fast } => {
                let results: Vec<Json> = self
                    .verify_items(items, *fail_fast)
                    .iter()
                    .map(verify_response_json)
                    .collect();
                emit(&Json::obj([
                    ("ok", Json::Bool(true)),
                    ("results", Json::Arr(results)),
                ]))?;
                Ok(false)
            }
            Request::Status => {
                emit(&self.status().to_json())?;
                Ok(false)
            }
            Request::Shutdown => {
                self.request_shutdown();
                emit(&Json::obj([
                    ("ok", Json::Bool(true)),
                    ("shutting_down", Json::Bool(true)),
                ]))?;
                Ok(true)
            }
            Request::Hello { protocol } => {
                session.protocol = (*protocol).clamp(1, PROTOCOL_VERSION);
                emit(&Json::obj([
                    ("ok", Json::Bool(true)),
                    ("protocol", Json::Num(f64::from(session.protocol))),
                    ("version", Json::str(env!("CARGO_PKG_VERSION"))),
                    (
                        "format_version",
                        Json::Num(f64::from(HASH_FORMAT_VERSION)),
                    ),
                ]))?;
                Ok(false)
            }
            Request::Subscribe { events } => {
                if let Some(err) = self.v1_guard(session, "subscribe") {
                    emit(&err)?;
                    return Ok(false);
                }
                session.subscribed = *events;
                emit(&Json::obj([
                    ("ok", Json::Bool(true)),
                    ("subscribed", Json::Bool(session.subscribed)),
                ]))?;
                Ok(false)
            }
            Request::Open { doc, source } => {
                if let Some(err) = self.v1_guard(session, "open") {
                    emit(&err)?;
                    return Ok(false);
                }
                self.serve_doc(session, doc, source, false, emit)?;
                Ok(false)
            }
            Request::Update { doc, source } => {
                if let Some(err) = self.v1_guard(session, "update") {
                    emit(&err)?;
                    return Ok(false);
                }
                self.serve_doc(session, doc, source, true, emit)?;
                Ok(false)
            }
            Request::Lint(item) => {
                if let Some(err) = self.v1_guard(session, "lint") {
                    emit(&err)?;
                    return Ok(false);
                }
                let outcome: LintOutcome = match (self.compile)(&item.source) {
                    Err(e) => Err(e),
                    Ok(program) => {
                        let lints = lint_program(&program);
                        if session.subscribed {
                            for lint in &lints {
                                emit(&lint_event_json(&item.name, lint))?;
                            }
                        }
                        Ok(LintOk {
                            name: item.name.clone(),
                            lints,
                        })
                    }
                };
                emit(&lint_response_json(&outcome))?;
                Ok(false)
            }
            Request::Metrics => {
                if let Some(err) = self.v1_guard(session, "metrics") {
                    emit(&err)?;
                    return Ok(false);
                }
                emit(&metrics_response_json(&self.metrics()))?;
                Ok(false)
            }
            Request::Histograms => {
                if let Some(err) = self.v1_guard(session, "histograms") {
                    emit(&err)?;
                    return Ok(false);
                }
                emit(&histograms_response_json(&self.histogram_snapshot()))?;
                Ok(false)
            }
            Request::Logs { since } => {
                if let Some(err) = self.v1_guard(session, "logs") {
                    emit(&err)?;
                    return Ok(false);
                }
                let page = LogsPage {
                    events: self.events.since(since.unwrap_or(0)),
                    dropped: self.events.dropped(),
                    last_seq: self.events.last_seq(),
                };
                emit(&logs_response_json(&page))?;
                Ok(false)
            }
            Request::Close { doc } => {
                if let Some(err) = self.v1_guard(session, "close") {
                    emit(&err)?;
                    return Ok(false);
                }
                let closed = session.workspace.close_document(doc);
                if closed {
                    self.documents.fetch_sub(1, Ordering::Relaxed);
                }
                emit(&Json::obj([
                    ("ok", Json::Bool(true)),
                    ("doc", Json::str(doc)),
                    ("closed", Json::Bool(closed)),
                ]))?;
                Ok(false)
            }
            Request::CacheGet { tier, key } => {
                if let Some(err) = self.v1_guard(session, "cache_get") {
                    emit(&err)?;
                    return Ok(false);
                }
                emit(&self.serve_cache_get(*tier, key))?;
                Ok(false)
            }
            Request::CachePut { tier, key, entry } => {
                if let Some(err) = self.v1_guard(session, "cache_put") {
                    emit(&err)?;
                    return Ok(false);
                }
                emit(&self.serve_cache_put(*tier, key, entry))?;
                Ok(false)
            }
        }
    }

    /// Serves a `cache_get`: the raw self-validating entry from the
    /// *local* tiers (memory, then disk) or a miss. The daemon's own
    /// remote tier is never consulted — remote chains would otherwise
    /// recurse — and serving reads move no hit/miss counters, which
    /// track verification traffic only.
    fn serve_cache_get(&self, tier: CacheTier, key: &str) -> Json {
        let mut cache = self
            .cache
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let entry = match tier {
            CacheTier::Obligation => match key.parse::<ObligationKey>() {
                Ok(parsed) => cache.export_obligation(parsed),
                Err(e) => return error_json(&format!("bad cache key: {e}")),
            },
            CacheTier::Verdict => match key.parse::<ProgramHash>() {
                Ok(parsed) => cache.export_verdict(parsed),
                Err(e) => return error_json(&format!("bad cache key: {e}")),
            },
        };
        cache_get_response_json(tier, key, HASH_FORMAT_VERSION, entry.as_deref())
    }

    /// Serves a `cache_put`: validates the entry against the claimed key
    /// and [`HASH_FORMAT_VERSION`] before admitting it to the local
    /// tiers. A refused entry answers `stored:false` (not an error) —
    /// version skew between daemons is expected, staleness is not.
    fn serve_cache_put(&self, tier: CacheTier, key: &str, entry: &str) -> Json {
        let mut cache = self
            .cache
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let stored = match tier {
            CacheTier::Obligation => match key.parse::<ObligationKey>() {
                Ok(parsed) => cache.import_obligation(parsed, entry),
                Err(e) => return error_json(&format!("bad cache key: {e}")),
            },
            CacheTier::Verdict => match key.parse::<ProgramHash>() {
                Ok(parsed) => cache.import_verdict(parsed, entry),
                Err(e) => return error_json(&format!("bad cache key: {e}")),
            },
        };
        cache_put_response_json(tier, key, stored)
    }

    /// The error document for a v2 op on a session negotiated down to v1.
    fn v1_guard(&self, session: &Session, op: &str) -> Option<Json> {
        (session.protocol < 2).then(|| {
            error_json(&format!(
                "op `{op}` requires protocol v2 (session negotiated v{})",
                session.protocol
            ))
        })
    }

    /// Compiles and (incrementally) verifies one workspace document,
    /// streaming `started`/`obligation_done` events when the session is
    /// subscribed and always ending with the `report` response line.
    fn serve_doc(
        &self,
        session: &mut Session,
        doc_id: &str,
        source: &str,
        is_update: bool,
        emit: &mut dyn FnMut(&Json) -> io::Result<()>,
    ) -> io::Result<()> {
        let started = Instant::now();
        let outcome: DocOutcomeWire = match (self.compile)(source) {
            Err(e) => Err(e),
            Ok(program) => {
                let newly_open = !is_update
                    && !session.workspace.open_documents().any(|d| d == doc_id);
                let subscribed = session.subscribed;
                let mut emit_err: Option<io::Error> = None;
                let mut stream = |event: WorkspaceEvent<'_>| {
                    if !subscribed || emit_err.is_some() {
                        return;
                    }
                    let json = match &event {
                        WorkspaceEvent::Started { doc, revision, key } => {
                            Some(started_event_json(doc, *revision, *key))
                        }
                        WorkspaceEvent::Obligation {
                            index,
                            result,
                            verdict,
                            time,
                        } => Some(obligation_event_json(doc_id, *index, result, *verdict, *time)),
                        WorkspaceEvent::Finished { .. } => None,
                    };
                    if let Some(json) = json {
                        if let Err(e) = emit(&json) {
                            emit_err = Some(e);
                        }
                    }
                };
                let checked = if is_update {
                    session
                        .workspace
                        .update_document_with(doc_id, &program, &mut stream)
                } else {
                    Ok(session
                        .workspace
                        .open_document_with(doc_id, &program, &mut stream))
                };
                if let Some(e) = emit_err {
                    return Err(e);
                }
                match checked {
                    Err(e) => Err(e),
                    Ok(o) => {
                        if newly_open {
                            self.documents.fetch_add(1, Ordering::Relaxed);
                        }
                        self.programs.fetch_add(1, Ordering::Relaxed);
                        self.statically_proven.fetch_add(
                            o.obligations.statically_proven as u64,
                            Ordering::Relaxed,
                        );
                        self.solver_checked
                            .fetch_add(o.obligations.checked as u64, Ordering::Relaxed);
                        Ok(DocOk {
                            doc: o.doc,
                            revision: o.revision,
                            cached: o.report_cached,
                            key: o.key,
                            time_ms: started.elapsed().as_secs_f64() * 1000.0,
                            obligations: o.obligations.total as u64,
                            reused: o.obligations.reused as u64,
                            checked: o.obligations.checked as u64,
                            statically_proven: o.obligations.statically_proven as u64,
                            report: o.report,
                        })
                    }
                }
            }
        };
        emit(&doc_response_json(&outcome, session.subscribed))
    }

    /// Serves one protocol line in a session (malformed input yields an
    /// `"ok":false` response rather than closing the session).
    ///
    /// This is the wire path: the request's id (client-supplied, or
    /// daemon-assigned when absent) is stamped onto every emitted line —
    /// the response *and* any streamed events — and the request is
    /// recorded into the per-op latency histogram and the event log.
    pub fn handle_session_line(
        &self,
        session: &mut Session,
        line: &str,
        emit: &mut dyn FnMut(&Json) -> io::Result<()>,
    ) -> io::Result<bool> {
        match Request::decode_with_request_id(line.trim()) {
            Ok((request, client_id)) => {
                let request_id = client_id.unwrap_or_else(|| self.assign_request_id());
                let op = request.op_name();
                let started = Instant::now();
                // Events carry no `"ok"` key; the final response does,
                // so the last `"ok"` seen is the request's outcome.
                let mut outcome_ok = true;
                let result = {
                    let mut stamped = |json: &Json| -> io::Result<()> {
                        if let Some(ok) = json.get("ok").and_then(Json::as_bool) {
                            outcome_ok = ok;
                        }
                        emit(&with_request_id(json, &request_id))
                    };
                    self.handle_session_request(session, &request, &mut stamped)
                };
                let dur_ns = u64::try_from(started.elapsed().as_nanos())
                    .unwrap_or(u64::MAX);
                self.observe_request(op, &request_id, dur_ns, outcome_ok);
                result
            }
            Err(e) => {
                self.requests.fetch_add(1, Ordering::Relaxed);
                let request_id = self.assign_request_id();
                let message = format!("bad request: {e}");
                self.observe_decode_error(&request_id, &message);
                emit(&with_request_id(&error_json(&message), &request_id))?;
                Ok(false)
            }
        }
    }

    /// Serves one protocol request in a throwaway session and returns the
    /// *final* response document plus the shutdown flag. Exactly the v1
    /// behavior for v1 ops; v2 session ops work but their workspace state
    /// does not persist across calls — long-lived callers should hold a
    /// [`Session`] and use [`Server::handle_session_request`].
    pub fn handle_request(&self, request: &Request) -> (Json, bool) {
        let mut session = self.new_session();
        let mut last: Option<Json> = None;
        let stop = self
            .handle_session_request(&mut session, request, &mut |json| {
                last = Some(json.clone());
                Ok(())
            })
            .expect("in-memory emit cannot fail");
        self.release_session(&session);
        (
            last.unwrap_or_else(|| error_json("request produced no response")),
            stop,
        )
    }

    /// Releases a finished session's open documents from the server-wide
    /// gauge (the cache, of course, stays). Serve loops call this when a
    /// connection ends; callers holding their own [`Session`]s must too.
    pub fn release_session(&self, session: &Session) {
        let open = session.workspace.open_documents().count() as i64;
        if open > 0 {
            self.documents.fetch_sub(open, Ordering::Relaxed);
        }
    }

    /// Serves one protocol line in a throwaway session (see
    /// [`Server::handle_request`] for the caveats). Like the session
    /// wire path, the response is stamped with the request id and the
    /// request lands in the histogram and event log.
    pub fn handle_line(&self, line: &str) -> (Json, bool) {
        match Request::decode_with_request_id(line.trim()) {
            Ok((request, client_id)) => {
                let request_id = client_id.unwrap_or_else(|| self.assign_request_id());
                let started = Instant::now();
                let (response, stop) = self.handle_request(&request);
                let dur_ns = u64::try_from(started.elapsed().as_nanos())
                    .unwrap_or(u64::MAX);
                let ok = response.get("ok").and_then(Json::as_bool).unwrap_or(true);
                self.observe_request(request.op_name(), &request_id, dur_ns, ok);
                (with_request_id(&response, &request_id), stop)
            }
            Err(e) => {
                self.requests.fetch_add(1, Ordering::Relaxed);
                let request_id = self.assign_request_id();
                let message = format!("bad request: {e}");
                self.observe_decode_error(&request_id, &message);
                (with_request_id(&error_json(&message), &request_id), false)
            }
        }
    }

    /// Runs one NDJSON session over a reader/writer pair until EOF or
    /// shutdown. This is the stdio transport (`commcsl serve --stdio`)
    /// and the per-connection loop of the socket transports. A line
    /// longer than [`MAX_LINE_BYTES`] is answered with an error and ends
    /// the session: its tail is never read, so the stream cannot
    /// resynchronize.
    ///
    /// # Errors
    ///
    /// Propagates transport I/O errors; timeout-flavored read errors
    /// (`WouldBlock`/`TimedOut`) poll the shutdown flag and continue, so
    /// socket sessions with a read timeout drain promptly on shutdown.
    pub fn serve_stream(
        &self,
        reader: impl io::Read,
        mut writer: impl Write,
    ) -> io::Result<()> {
        let mut session = self.new_session();
        // Each response (and each streamed event) is flushed as soon as
        // it is rendered, so subscribed clients see obligations settle
        // live.
        let mut emit = |json: &Json| -> io::Result<()> {
            let rendered = json.to_string();
            writeln!(writer, "{rendered}")?;
            writer.flush()?;
            self.bytes_streamed
                .fetch_add(rendered.len() as u64 + 1, Ordering::Relaxed);
            Ok(())
        };
        let result = for_each_ndjson_line(
            reader,
            MAX_LINE_BYTES,
            &|| self.shutdown_requested(),
            |line| {
                let stop = match line.map(std::str::from_utf8) {
                    Some(Ok(text)) if text.trim().is_empty() => false,
                    Some(Ok(text)) => {
                        self.handle_session_line(&mut session, text, &mut emit)?
                    }
                    Some(Err(_)) => {
                        self.reject_line("bad request: line is not UTF-8", &mut emit)?;
                        false
                    }
                    None => {
                        self.reject_line(
                            &format!(
                                "bad request: request line longer than \
                                 {MAX_LINE_BYTES} bytes"
                            ),
                            &mut emit,
                        )?;
                        true
                    }
                };
                Ok(stop || self.shutdown_requested())
            },
        );
        // The connection's workspace dies with it.
        self.release_session(&session);
        result
    }

    /// Answers a line that never reached the request decoder (not UTF-8,
    /// or over the length cap): a stamped error, counted as a decode
    /// error.
    fn reject_line(
        &self,
        message: &str,
        emit: &mut dyn FnMut(&Json) -> io::Result<()>,
    ) -> io::Result<()> {
        let request_id = self.assign_request_id();
        self.observe_decode_error(&request_id, message);
        emit(&with_request_id(&error_json(message), &request_id))
    }
}

/// The longest request line a session accepts, newline excluded: 64 MiB,
/// over 100x the largest generated program.
pub const MAX_LINE_BYTES: usize = 64 << 20;

/// Reads NDJSON lines from `reader` and feeds each (newline included) to
/// `on_line` until EOF, shutdown, or `on_line` returns `Ok(true)`. A line
/// longer than `max_line` bytes (newline excluded) is fed as `None`,
/// after which the loop ends: reads go through `take`, so at most
/// `max_line + 1` bytes of it are ever buffered.
///
/// The framing is length-robust: lines accumulate as raw bytes via
/// `read_until`, so input split at arbitrary byte boundaries — 1-byte
/// TCP segments, reads timing out mid-UTF-8-sequence — reassembles
/// correctly. (`read_line` would roll back and lose bytes that end
/// mid-sequence on a timed-out call.) EOF in the middle of a line
/// discards the fragment: nothing more is coming. Timeout-flavored read
/// errors (`WouldBlock`/`TimedOut`/`Interrupted`) poll `shutdown` and
/// continue, so sessions with a read timeout drain promptly; other I/O
/// errors propagate.
fn for_each_ndjson_line(
    reader: impl io::Read,
    max_line: usize,
    shutdown: &dyn Fn() -> bool,
    mut on_line: impl FnMut(Option<&[u8]>) -> io::Result<bool>,
) -> io::Result<()> {
    let mut reader = BufReader::new(reader);
    let mut line: Vec<u8> = Vec::new();
    loop {
        // Room for the rest of a `max_line`-byte line and its newline
        // (always at least one byte: a full budget returns below).
        let budget = (max_line + 1 - line.len()) as u64;
        match (&mut reader).take(budget).read_until(b'\n', &mut line) {
            Ok(_) if line.ends_with(b"\n") => {
                let stop = on_line(Some(&line))?;
                line.clear();
                if stop || shutdown() {
                    return Ok(());
                }
            }
            Ok(_) if line.len() > max_line => {
                on_line(None)?;
                return Ok(());
            }
            // The client hung up, possibly in the middle of a line:
            // nothing more is coming.
            Ok(_) => return Ok(()),
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock
                        | io::ErrorKind::TimedOut
                        | io::ErrorKind::Interrupted
                ) =>
            {
                // Read timeout: partial input (if any) stays buffered
                // in `line`; bail out only on shutdown.
                if shutdown() {
                    return Ok(());
                }
            }
            Err(e) => return Err(e),
        }
    }
}

/// `EMFILE`/`ENFILE` (process/system fd table full) have no stable
/// `io::ErrorKind` mapping; both are transient under load and the
/// accept loop must ride them out rather than die.
fn is_fd_exhaustion(e: &io::Error) -> bool {
    const ENFILE: i32 = 23;
    const EMFILE: i32 = 24;
    matches!(e.raw_os_error(), Some(code) if code == EMFILE || code == ENFILE)
}

/// Transient accept-time failures (peer hung up before accept, fd
/// pressure) must not kill the daemon; the accept loop backs off and
/// keeps accepting.
fn is_transient_accept_error(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::Interrupted
            | io::ErrorKind::ConnectionAborted
            | io::ErrorKind::ConnectionReset
    ) || is_fd_exhaustion(e)
}

/// A nonblocking listener the daemon's accept loop can poll. Implemented
/// for [`TcpListener`] everywhere and `UnixListener` on Unix.
pub(crate) trait Transport {
    /// One accepted connection's stream.
    type Stream: io::Read + io::Write + Send;

    /// Polls for one pending connection; `Ok(None)` when none is queued
    /// (the loop sleeps briefly and re-polls).
    fn poll_accept(&self) -> io::Result<Option<Self::Stream>>;

    /// Prepares an accepted stream for a session: blocking mode with a
    /// short read timeout (so idle sessions notice shutdown), plus an
    /// independently-owned writer handle.
    fn split(stream: Self::Stream) -> io::Result<(Self::Stream, Self::Stream)>;

    /// `(transport, addr)` as reported in `status` — for TCP the
    /// *actual* bound address, so `--tcp 127.0.0.1:0` reports its
    /// ephemeral port.
    fn endpoint(&self) -> (String, String);
}

impl Transport for TcpListener {
    type Stream = TcpStream;

    fn poll_accept(&self) -> io::Result<Option<TcpStream>> {
        match self.accept() {
            Ok((stream, _addr)) => Ok(Some(stream)),
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => Ok(None),
            Err(e) => Err(e),
        }
    }

    fn split(stream: TcpStream) -> io::Result<(TcpStream, TcpStream)> {
        stream.set_nonblocking(false)?;
        stream.set_read_timeout(Some(Duration::from_millis(200)))?;
        // Responses are a handful of small flushed writes per request;
        // without NODELAY, Nagle's algorithm would serialize them
        // against the peer's ACK clock.
        stream.set_nodelay(true)?;
        let writer = stream.try_clone()?;
        Ok((stream, writer))
    }

    fn endpoint(&self) -> (String, String) {
        let addr = self
            .local_addr()
            .map(|a| a.to_string())
            .unwrap_or_default();
        ("tcp".to_owned(), addr)
    }
}

impl Server {
    /// Claims the TCP address: binds a nonblocking listener, mapping
    /// `AddrInUse` to the same "already listening" shape as the Unix
    /// path (TCP has no stale-socket file to reclaim — a bound port is
    /// always live). Callers that announce readiness should do so only
    /// after this succeeds (reading the actual port from
    /// `listener.local_addr()`), then hand the listener to
    /// [`Server::serve_tcp`].
    pub fn bind_tcp(addr: &str) -> io::Result<TcpListener> {
        let listener = TcpListener::bind(addr).map_err(|e| {
            if e.kind() == io::ErrorKind::AddrInUse {
                io::Error::new(
                    io::ErrorKind::AddrInUse,
                    format!("a daemon is already listening on {addr}"),
                )
            } else {
                e
            }
        })?;
        listener.set_nonblocking(true)?;
        Ok(listener)
    }

    /// Serves connections on a bound TCP listener until a `shutdown`
    /// request arrives.
    pub fn serve_tcp(&self, listener: &TcpListener) -> io::Result<()> {
        self.serve_transport(listener)
    }

    /// Binds the configured [`Listen`] endpoint and serves until
    /// shutdown. `Listen::Unix` on a non-Unix platform is
    /// `ErrorKind::Unsupported`.
    pub fn serve_listen(&self) -> io::Result<()> {
        match self.listen.clone() {
            Listen::Tcp(addr) => self.serve_tcp(&Self::bind_tcp(&addr)?),
            #[cfg(unix)]
            Listen::Unix(path) => self.serve_unix(&path),
            #[cfg(not(unix))]
            Listen::Unix(path) => Err(io::Error::new(
                io::ErrorKind::Unsupported,
                format!(
                    "unix socket {} unsupported on this platform (use --tcp)",
                    path.display()
                ),
            )),
        }
    }

    /// The generic serve loop behind every listener: records the
    /// endpoint for `status`, then polls for connections until shutdown,
    /// serving each accepted stream on its own scoped thread. A fatal
    /// accept error requests shutdown — in-flight sessions poll that
    /// flag, or the scope would join forever — and propagates.
    fn serve_transport<T: Transport + Sync>(&self, listener: &T) -> io::Result<()> {
        *self
            .endpoint
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner) = listener.endpoint();
        thread::scope(|scope| -> io::Result<()> {
            while !self.shutdown_requested() {
                match listener.poll_accept() {
                    Ok(Some(stream)) => {
                        scope.spawn(move || {
                            if let Ok((reader, writer)) = T::split(stream) {
                                let _ = self.serve_stream(reader, writer);
                            }
                        });
                    }
                    Ok(None) => thread::sleep(Duration::from_millis(20)),
                    Err(e) if is_transient_accept_error(&e) => {
                        thread::sleep(Duration::from_millis(20));
                    }
                    Err(e) => {
                        self.request_shutdown();
                        return Err(e);
                    }
                }
            }
            Ok(())
        })
    }
}

#[cfg(unix)]
mod unix_transport {
    use std::fs;
    use std::os::unix::net::{UnixListener, UnixStream};
    use std::path::Path;

    use super::*;

    impl Transport for UnixListener {
        type Stream = UnixStream;

        fn poll_accept(&self) -> io::Result<Option<UnixStream>> {
            match self.accept() {
                Ok((stream, _addr)) => Ok(Some(stream)),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => Ok(None),
                Err(e) => Err(e),
            }
        }

        fn split(stream: UnixStream) -> io::Result<(UnixStream, UnixStream)> {
            stream.set_nonblocking(false)?;
            // Short read timeout so idle sessions notice shutdown.
            stream.set_read_timeout(Some(Duration::from_millis(200)))?;
            let writer = stream.try_clone()?;
            Ok((stream, writer))
        }

        fn endpoint(&self) -> (String, String) {
            let addr = self
                .local_addr()
                .ok()
                .and_then(|a| {
                    a.as_pathname().map(|p| p.display().to_string())
                })
                .unwrap_or_default();
            ("unix".to_owned(), addr)
        }
    }

    impl Server {
        /// Claims `socket_path`: refuses when a live daemon already owns
        /// it, silently replaces a stale socket file left by a crashed
        /// one, and returns the bound (nonblocking) listener. Callers
        /// that announce readiness should do so only after this
        /// succeeds, then hand the listener to [`Server::serve_bound`].
        pub fn bind_unix(socket_path: &Path) -> io::Result<UnixListener> {
            if socket_path.exists() {
                if UnixStream::connect(socket_path).is_ok() {
                    return Err(io::Error::new(
                        io::ErrorKind::AddrInUse,
                        format!(
                            "a daemon is already listening on {}",
                            socket_path.display()
                        ),
                    ));
                }
                fs::remove_file(socket_path)?;
            }
            if let Some(dir) = socket_path.parent().filter(|d| !d.as_os_str().is_empty()) {
                fs::create_dir_all(dir)?;
            }
            let listener = UnixListener::bind(socket_path)?;
            listener.set_nonblocking(true)?;
            Ok(listener)
        }

        /// Binds `socket_path` and serves connections until a `shutdown`
        /// request arrives ([`Server::bind_unix`] + [`Server::serve_bound`]).
        pub fn serve_unix(&self, socket_path: &Path) -> io::Result<()> {
            self.serve_bound(Self::bind_unix(socket_path)?, socket_path)
        }

        /// Serves connections on an already-bound listener until a
        /// `shutdown` request arrives, then removes the socket file.
        pub fn serve_bound(
            &self,
            listener: UnixListener,
            socket_path: &Path,
        ) -> io::Result<()> {
            let result = self.serve_transport(&listener);
            let _ = fs::remove_file(socket_path);
            result
        }
    }
}

#[cfg(test)]
mod tests {
    use commcsl_pure::{Sort, Term};
    use commcsl_verifier::program::VStmt;
    use commcsl_telemetry::json::json_string;

    use super::*;

    /// A toy "compiler": `ok NAME` → a verifying program, `leak NAME` →
    /// a rejected one, anything else → a compile error.
    fn toy_compiler() -> CompileFn {
        Box::new(|source: &str| {
            let mut words = source.split_whitespace();
            let kind = words.next().unwrap_or_default();
            let name = words.next().unwrap_or("anon").to_owned();
            match kind {
                "ok" => Ok(AnnotatedProgram::new(name).with_body([
                    VStmt::input("x", Sort::Int, true),
                    VStmt::Output(Term::var("x")),
                ])),
                "leak" => Ok(AnnotatedProgram::new(name).with_body([
                    VStmt::input("h", Sort::Int, false),
                    VStmt::Output(Term::var("h")),
                ])),
                other => Err(format!("1:1: unknown directive `{other}`")),
            }
        })
    }

    fn server() -> Server {
        Server::new(
            ServerConfig {
                threads: 2,
                cache: CacheConfig::memory_only(64),
                verifier: VerifierConfig::default(),
                ..Default::default()
            },
            toy_compiler(),
        )
    }

    #[test]
    fn verify_then_cached_verify_then_status() {
        let server = server();
        let req = Request::Verify(VerifyItem {
            name: "a".into(),
            source: "ok prog-a".into(),
        });

        let (cold, stop) = server.handle_request(&req);
        assert!(!stop);
        assert_eq!(cold.get("ok").and_then(Json::as_bool), Some(true));
        assert_eq!(cold.get("cached").and_then(Json::as_bool), Some(false));

        let (warm, _) = server.handle_request(&req);
        assert_eq!(warm.get("cached").and_then(Json::as_bool), Some(true));
        assert_eq!(
            warm.get("report").map(ToString::to_string),
            cold.get("report").map(ToString::to_string),
            "cached verdicts must be byte-identical"
        );

        let status = server.status();
        assert_eq!(status.requests, 2);
        assert_eq!(status.programs, 2);
        assert_eq!(status.misses, 1);
        assert_eq!(status.memory_hits, 1);
    }

    #[test]
    fn verify_misses_feed_the_obligation_split_and_hits_do_not() {
        let server = server();
        let split = |s: &StatusInfo| (s.statically_proven, s.solver_checked);
        let before = split(&server.status());
        assert_eq!(before, (0, 0));
        let items = [
            VerifyItem { name: "a".into(), source: "ok split-a".into() },
            VerifyItem { name: "b".into(), source: "leak split-b".into() },
        ];
        let cold = server.verify_items(&items, false);
        let obligations: usize = cold
            .iter()
            .map(|r| r.as_ref().unwrap().report.obligations.len())
            .sum();
        assert!(obligations > 0);
        let (statically, solver) = split(&server.status());
        assert_eq!(statically + solver, obligations as u64);
        assert!(solver > 0, "the leak is refuted by the solver");

        // Program-tier hits re-run nothing.
        let warm = server.verify_items(&items, false);
        assert!(warm.iter().all(|r| r.as_ref().unwrap().cached));
        assert_eq!(split(&server.status()), (statically, solver));
    }

    #[test]
    fn batch_mixes_compiled_and_failed_slots_in_order() {
        let server = server();
        let (response, _) = server.handle_request(&Request::VerifyBatch {
            items: vec![
                VerifyItem { name: "a".into(), source: "ok a".into() },
                VerifyItem { name: "b".into(), source: "syntax error here".into() },
                VerifyItem { name: "c".into(), source: "leak c".into() },
            ],
            fail_fast: false,
        });
        let results = response.get("results").and_then(Json::as_arr).unwrap();
        assert_eq!(results.len(), 3);
        assert_eq!(results[0].get("ok").and_then(Json::as_bool), Some(true));
        assert_eq!(results[1].get("ok").and_then(Json::as_bool), Some(false));
        assert!(results[1]
            .get("error")
            .and_then(Json::as_str)
            .unwrap()
            .contains("unknown directive"));
        let c_report = results[2].get("report").unwrap();
        assert_eq!(c_report.get("verified").and_then(Json::as_bool), Some(false));
    }

    #[test]
    fn batch_fail_fast_skips_later_items_and_never_caches_skips() {
        let server = Server::new(
            ServerConfig {
                threads: 1, // deterministic dispatch order
                cache: CacheConfig::memory_only(64),
                verifier: VerifierConfig::default(),
                ..Default::default()
            },
            toy_compiler(),
        );
        let batch = |fail_fast: bool, items: Vec<VerifyItem>| {
            let (response, _) =
                server.handle_request(&Request::VerifyBatch { items, fail_fast });
            response
        };
        let item = |name: &str, source: &str| VerifyItem {
            name: name.into(),
            source: source.into(),
        };

        let response = batch(
            true,
            vec![item("a", "leak bad"), item("b", "ok good")],
        );
        let results = response.get("results").and_then(Json::as_arr).unwrap();
        let report_verified = |slot: &Json| {
            slot.get("report")
                .and_then(|r| r.get("verified"))
                .and_then(Json::as_bool)
        };
        assert_eq!(results[0].get("skipped"), None);
        assert_eq!(report_verified(&results[0]), Some(false));
        assert_eq!(results[1].get("skipped").and_then(Json::as_bool), Some(true));
        assert_eq!(report_verified(&results[1]), Some(false));

        // The skipped item was never cached: verifying it alone is a miss
        // that succeeds.
        let response = batch(false, vec![item("b", "ok good")]);
        let results = response.get("results").and_then(Json::as_arr).unwrap();
        assert_eq!(results[0].get("cached").and_then(Json::as_bool), Some(false));
        assert_eq!(report_verified(&results[0]), Some(true));

        // A failing cache *hit* also stops dispatch of later misses.
        let response = batch(
            true,
            vec![item("a", "leak bad"), item("c", "ok fresh")],
        );
        let results = response.get("results").and_then(Json::as_arr).unwrap();
        assert_eq!(results[0].get("cached").and_then(Json::as_bool), Some(true));
        assert_eq!(results[1].get("skipped").and_then(Json::as_bool), Some(true));
    }

    #[test]
    fn stdio_session_end_to_end_with_shutdown() {
        let server = server();
        let input = format!(
            "{}\nnot json at all\n{}\n{}\n",
            Request::Verify(VerifyItem {
                name: "a".into(),
                source: "ok a".into()
            })
            .encode(),
            Request::Status.encode(),
            Request::Shutdown.encode(),
        );
        let mut output = Vec::new();
        server
            .serve_stream(input.as_bytes(), &mut output)
            .expect("session runs");
        let text = String::from_utf8(output).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 4, "{text}");
        assert!(lines[0].contains("\"verified\":true"));
        assert!(lines[1].contains("bad request"));
        assert!(lines[2].contains("\"requests\":"));
        assert!(lines[3].contains("\"shutting_down\":true"));
        assert!(server.shutdown_requested());
    }

    #[test]
    fn ndjson_lines_over_the_cap_end_the_session_unbuffered() {
        // A line of exactly the cap passes; the next is too long, and
        // nothing after it is read.
        let mut lines: Vec<Option<Vec<u8>>> = Vec::new();
        for_each_ndjson_line(&b"abcd\nabcde\nok\n"[..], 4, &|| false, |line| {
            lines.push(line.map(<[u8]>::to_vec));
            Ok(false)
        })
        .unwrap();
        assert_eq!(lines, [Some(b"abcd\n".to_vec()), None]);

        // A 16 MiB line is refused after the cap, having consumed no
        // more than the cap plus one read buffer of its bytes.
        let mut long = io::repeat(b'[').take(16 << 20);
        let mut refused = false;
        for_each_ndjson_line(&mut long, 1000, &|| false, |line| {
            refused = line.is_none();
            Ok(false)
        })
        .unwrap();
        assert!(refused);
        assert!((16 << 20) - long.limit() <= 1001 + 8 * 1024);
    }

    #[test]
    fn v2_session_open_update_close_with_streaming_events() {
        let server = server();
        let input = [
            Request::Hello { protocol: 7 }.encode(), // negotiated down to 2
            Request::Subscribe { events: true }.encode(),
            Request::Open {
                doc: "a.csl".into(),
                source: "ok prog-a".into(),
            }
            .encode(),
            Request::Update {
                doc: "a.csl".into(),
                source: "leak prog-a2".into(),
            }
            .encode(),
            Request::Update {
                doc: "missing.csl".into(),
                source: "ok x".into(),
            }
            .encode(),
            Request::Close { doc: "a.csl".into() }.encode(),
            Request::Shutdown.encode(),
        ]
        .join("\n")
            + "\n";
        let mut output = Vec::new();
        server
            .serve_stream(input.as_bytes(), &mut output)
            .expect("session runs");
        let text = String::from_utf8(output).unwrap();
        let lines: Vec<Json> = text.lines().map(|l| Json::parse(l).unwrap()).collect();

        // hello: negotiated down to the server's newest version.
        assert_eq!(lines[0].get("protocol").and_then(Json::as_u64), Some(2));
        // subscribe ack.
        assert_eq!(lines[1].get("subscribed").and_then(Json::as_bool), Some(true));

        // open: started + one obligation_done per obligation + report.
        let started = &lines[2];
        assert_eq!(started.get("event").and_then(Json::as_str), Some("started"));
        assert_eq!(started.get("revision").and_then(Json::as_u64), Some(1));
        let report_line = lines[3..]
            .iter()
            .position(|l| l.get("ok").is_some())
            .map(|i| &lines[3 + i])
            .expect("final report line");
        assert_eq!(
            report_line.get("event").and_then(Json::as_str),
            Some("report")
        );
        let obligations = report_line
            .get("obligations")
            .and_then(Json::as_u64)
            .unwrap();
        let dones: Vec<&Json> = lines[3..]
            .iter()
            .take_while(|l| l.get("ok").is_none())
            .collect();
        assert_eq!(dones.len() as u64, obligations, "{text}");
        assert!(dones
            .iter()
            .all(|l| l.get("event").and_then(Json::as_str) == Some("obligation_done")));

        // update: a different program in the same doc slot — revision 2,
        // and the rejected verdict streams through unchanged.
        let update_report = lines
            .iter()
            .filter(|l| l.get("event").and_then(Json::as_str) == Some("report"))
            .nth(1)
            .expect("update report");
        assert_eq!(update_report.get("revision").and_then(Json::as_u64), Some(2));
        assert_eq!(
            update_report
                .get("report")
                .and_then(|r| r.get("verified"))
                .and_then(Json::as_bool),
            Some(false)
        );

        // update of an unopened doc: protocol-level error, not transport.
        let unknown = lines
            .iter()
            .find(|l| {
                l.get("error")
                    .and_then(Json::as_str)
                    .is_some_and(|e| e.contains("unknown document"))
            })
            .expect("unknown-document error line: {text}");
        assert_eq!(unknown.get("ok").and_then(Json::as_bool), Some(false));

        // close acknowledges.
        let close = lines
            .iter()
            .find(|l| l.get("closed").is_some())
            .expect("close ack");
        assert_eq!(close.get("closed").and_then(Json::as_bool), Some(true));
        assert_eq!(server.status().documents, 0);
    }

    #[test]
    fn v1_negotiated_session_refuses_v2_ops_but_serves_v1() {
        let server = server();
        let input = format!(
            "{}\n{}\n{}\n",
            Request::Hello { protocol: 1 }.encode(),
            Request::Open {
                doc: "a".into(),
                source: "ok a".into()
            }
            .encode(),
            Request::Verify(VerifyItem {
                name: "a".into(),
                source: "ok a".into()
            })
            .encode(),
        );
        let mut output = Vec::new();
        server.serve_stream(input.as_bytes(), &mut output).unwrap();
        let text = String::from_utf8(output).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert!(lines[0].contains("\"protocol\":1"), "{text}");
        assert!(
            lines[1].contains("requires protocol v2"),
            "{text}"
        );
        assert!(lines[2].contains("\"verified\":true"), "{text}");
    }

    #[test]
    fn unsubscribed_v2_session_gets_single_line_responses() {
        let server = server();
        let input = format!(
            "{}\n{}\n",
            Request::Open {
                doc: "a".into(),
                source: "ok a".into()
            }
            .encode(),
            Request::Open {
                doc: "a".into(),
                source: "ok a".into()
            }
            .encode(),
        );
        let mut output = Vec::new();
        server.serve_stream(input.as_bytes(), &mut output).unwrap();
        let text = String::from_utf8(output).unwrap();
        let lines: Vec<Json> = text.lines().map(|l| Json::parse(l).unwrap()).collect();
        assert_eq!(lines.len(), 2, "no events without subscribe: {text}");
        assert!(lines.iter().all(|l| l.get("event").is_none()));
        // The identical reopen is served from the program tier.
        assert_eq!(lines[0].get("cached").and_then(Json::as_bool), Some(false));
        assert_eq!(lines[1].get("cached").and_then(Json::as_bool), Some(true));
        assert_eq!(lines[1].get("revision").and_then(Json::as_u64), Some(2));
    }

    #[test]
    fn metrics_op_reports_counters_and_status_counts_streamed_bytes() {
        let server = server();
        let input = format!(
            "{}\n{}\n{}\n",
            Request::Verify(VerifyItem {
                name: "a".into(),
                source: "ok a".into()
            })
            .encode(),
            Request::Metrics.encode(),
            Request::Status.encode(),
        );
        let mut output = Vec::new();
        server.serve_stream(input.as_bytes(), &mut output).unwrap();
        let text = String::from_utf8(output).unwrap();
        let lines: Vec<Json> = text.lines().map(|l| Json::parse(l).unwrap()).collect();

        // The metrics line is the flat counter snapshot.
        let counters = lines[1].get("counters").expect("counters object");
        let counter = |name: &str| counters.get(name).and_then(Json::as_u64);
        assert_eq!(counter("daemon.requests"), Some(2), "{text}");
        assert_eq!(counter("daemon.programs"), Some(1));
        assert_eq!(counter("cache.misses"), Some(1));
        // Counted after the verify response was written, before metrics'.
        assert!(counter("daemon.bytes_streamed").unwrap() > 0, "{text}");

        // The status response agrees and includes every line so far.
        let status = StatusInfo::from_json(&lines[2]).unwrap();
        let streamed_before_status: usize =
            text.lines().take(2).map(|l| l.len() + 1).sum();
        assert_eq!(status.bytes_streamed, streamed_before_status as u64, "{text}");

        // In-memory sessions (no transport) stream nothing.
        let in_memory = self::server();
        let (response, _) = in_memory.handle_request(&Request::Metrics);
        assert_eq!(
            response
                .get("counters")
                .and_then(|c| c.get("daemon.bytes_streamed"))
                .and_then(Json::as_u64),
            Some(0)
        );
    }

    #[test]
    fn metrics_op_is_v2_guarded() {
        let server = server();
        let input = format!(
            "{}\n{}\n",
            Request::Hello { protocol: 1 }.encode(),
            Request::Metrics.encode(),
        );
        let mut output = Vec::new();
        server.serve_stream(input.as_bytes(), &mut output).unwrap();
        let text = String::from_utf8(output).unwrap();
        assert!(
            text.lines().nth(1).unwrap().contains("requires protocol v2"),
            "{text}"
        );
    }

    #[test]
    fn per_item_compile_names_do_not_leak_between_slots() {
        // The report's program name comes from the *source*, not the
        // item name; two items with identical source share a cache slot.
        let server = server();
        let items = vec![
            VerifyItem { name: "one.csl".into(), source: "ok same".into() },
            VerifyItem { name: "two.csl".into(), source: "ok same".into() },
        ];
        let outcomes = server.verify_items(&items, false);
        let a = outcomes[0].as_ref().unwrap();
        let b = outcomes[1].as_ref().unwrap();
        assert_eq!(a.key, b.key);
        assert!(!a.cached && b.cached, "second identical job hits in-batch");
        assert_eq!(
            json_string(&a.report.program),
            json_string(&b.report.program)
        );
    }

    #[test]
    fn every_wire_line_carries_a_request_id() {
        let server = server();
        let input = [
            // Client-supplied id: echoed on the response.
            Request::Hello { protocol: 2 }.encode_with_request_id("cli-hello"),
            Request::Subscribe { events: true }.encode_with_request_id("cli-sub"),
            // Streamed request: the id rides every event line too.
            Request::Open {
                doc: "a.csl".into(),
                source: "ok prog-a".into(),
            }
            .encode_with_request_id("cli-open"),
            // No id supplied: the daemon assigns one.
            Request::Status.encode(),
        ]
        .join("\n")
            + "\n";
        let mut output = Vec::new();
        server.serve_stream(input.as_bytes(), &mut output).unwrap();
        let text = String::from_utf8(output).unwrap();
        let lines: Vec<Json> = text.lines().map(|l| Json::parse(l).unwrap()).collect();
        assert!(lines.len() >= 4, "{text}");
        for line in &lines {
            assert!(
                crate::protocol::request_id_of(line).is_some(),
                "line without request_id: {line}"
            );
        }
        assert_eq!(crate::protocol::request_id_of(&lines[0]), Some("cli-hello"));
        // Every line of the streamed open — events and final report —
        // carries the open's id.
        let open_lines: Vec<&Json> = lines
            .iter()
            .filter(|l| crate::protocol::request_id_of(l) == Some("cli-open"))
            .collect();
        assert!(open_lines.len() >= 2, "events + report: {text}");
        assert!(open_lines
            .iter()
            .any(|l| l.get("event").and_then(Json::as_str) == Some("report")));
        // The daemon-assigned id for the bare status request.
        let status_line = lines.last().unwrap();
        let assigned = crate::protocol::request_id_of(status_line).unwrap();
        assert!(assigned.starts_with('r'), "daemon-assigned id: {assigned}");
    }

    #[test]
    fn garbage_lines_bump_the_decode_error_counter_and_event_log() {
        let server = server();
        let input = format!(
            "this is not json\n{{\"op\":\"no-such-op\"}}\n{}\n{}\n",
            Request::Metrics.encode(),
            Request::Logs { since: None }.encode(),
        );
        let mut output = Vec::new();
        server.serve_stream(input.as_bytes(), &mut output).unwrap();
        let text = String::from_utf8(output).unwrap();
        let lines: Vec<Json> = text.lines().map(|l| Json::parse(l).unwrap()).collect();
        assert_eq!(lines.len(), 4, "{text}");
        assert!(lines[0].get("error").and_then(Json::as_str).is_some());
        assert!(lines[1].get("error").and_then(Json::as_str).is_some());

        // The counter is visible through the wire `metrics` op.
        let metrics = crate::protocol::metrics_from_json(&lines[2]).unwrap();
        assert_eq!(metrics.get("daemon.request.decode_error"), Some(2));

        // Both failures landed in the event log as `decode` events.
        let page = crate::protocol::logs_from_json(&lines[3]).unwrap();
        let decodes: Vec<_> = page
            .events
            .iter()
            .filter(|e| e.op == "decode" && e.outcome == "decode_error")
            .collect();
        assert_eq!(decodes.len(), 2, "{text}");
        assert!(decodes.iter().all(|e| !e.request_id.is_empty()));
    }

    #[test]
    fn histograms_and_logs_ops_report_served_requests() {
        let server = server();
        let verify = Request::Verify(VerifyItem {
            name: "a".into(),
            source: "ok a".into(),
        });
        let input = format!(
            "{}\n{}\n{}\n{}\n{}\n",
            verify.encode(),
            verify.encode(),
            Request::Status.encode(),
            Request::Histograms.encode(),
            Request::Logs { since: Some(1) }.encode(),
        );
        let mut output = Vec::new();
        server.serve_stream(input.as_bytes(), &mut output).unwrap();
        let text = String::from_utf8(output).unwrap();
        let lines: Vec<Json> = text.lines().map(|l| Json::parse(l).unwrap()).collect();

        // histograms: one per op served *before* the histograms request.
        let hists = crate::protocol::histograms_from_json(&lines[3]).unwrap();
        let by_op: std::collections::BTreeMap<&str, u64> = hists
            .iter()
            .map(|(op, h)| (op.as_str(), h.count()))
            .collect();
        assert_eq!(by_op.get("verify"), Some(&2), "{text}");
        assert_eq!(by_op.get("status"), Some(&1), "{text}");
        assert!(hists.iter().all(|(_, h)| h.quantile(0.99) >= h.quantile(0.5)));

        // status mirrors the same per-op counts (verify only sees the
        // requests served before it).
        let status = StatusInfo::from_json(&lines[2]).unwrap();
        let ops: std::collections::BTreeMap<&str, u64> = status
            .ops
            .iter()
            .map(|(op, n)| (op.as_str(), *n))
            .collect();
        assert_eq!(ops.get("verify"), Some(&2), "{text}");
        assert!(status.started_at_unix_ms > 0);

        // logs: `since 1` skips the first event; seqs strictly increase
        // and every record names its op and request id.
        let page = crate::protocol::logs_from_json(&lines[4]).unwrap();
        assert!(page.events.windows(2).all(|w| w[0].seq < w[1].seq));
        assert!(page.events.iter().all(|e| e.seq > 1));
        assert!(page.events.iter().any(|e| e.op == "verify"));
        assert!(page.events.iter().all(|e| !e.request_id.is_empty()));
        assert_eq!(page.dropped, 0);
        assert!(page.last_seq >= 4, "{text}");
    }

    #[test]
    fn histograms_and_logs_ops_are_v2_guarded() {
        let server = server();
        let input = format!(
            "{}\n{}\n{}\n",
            Request::Hello { protocol: 1 }.encode(),
            Request::Histograms.encode(),
            Request::Logs { since: None }.encode(),
        );
        let mut output = Vec::new();
        server.serve_stream(input.as_bytes(), &mut output).unwrap();
        let text = String::from_utf8(output).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert!(lines[1].contains("requires protocol v2"), "{text}");
        assert!(lines[2].contains("requires protocol v2"), "{text}");
    }

    #[test]
    fn slow_requests_are_flagged_with_span_aggregates() {
        let server = Server::new(
            ServerConfig {
                threads: 1,
                cache: CacheConfig::memory_only(64),
                verifier: VerifierConfig::default(),
                // Everything is "slow" against a threshold the clamp
                // floor turns into the minimum expressible value.
                slow_request_ms: 1,
                ..Default::default()
            },
            toy_compiler(),
        );
        // Compile + verify of a real program takes well over a
        // microsecond, but not reliably over a millisecond — drive the
        // observation path directly for determinism.
        server.observe_request("verify", "r1", 5_000_000, true);
        let events = server.event_log().since(0);
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].outcome, "ok");
        assert!(events[0].detail.starts_with("slow: "), "{}", events[0].detail);
        assert!(events[0].detail.contains("p99"), "{}", events[0].detail);
        assert_eq!(server.metrics().get("daemon.requests.slow"), Some(1));
    }
}
