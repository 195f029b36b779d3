//! The shard pool: N shared-nothing verifier workers behind one
//! consistent-hash router.
//!
//! Each shard is a full [`Server`] with its own verdict/obligation
//! cache and per-session `Workspace`s — shards share *nothing*, so a
//! pool is exactly N independent daemons plus deterministic routing:
//!
//! * v1 requests (`verify`, `verify_batch`, `lint`) route on the
//!   **program content hash**, so a given program always lands on the
//!   shard whose caches are warm for it;
//! * v2 workspace ops (`open`/`update`/`close`) route on **document
//!   identity**, so a document's incremental state stays on one shard
//!   across revisions;
//! * `cache_get` asks the content-owner shard first and falls back to
//!   scattering across the remaining live shards; `cache_put` admits on
//!   the owner only.
//!
//! The router is itself a protocol endpoint: it assigns request ids,
//! stamps responses, and keeps its own latency histograms and event log
//! (`status`/`metrics` aggregate the shards; `histograms`/`logs` are
//! the router's own view of the traffic). Responses are byte-identical
//! to a single-process daemon's — routing must never be observable in
//! the payload, only in the latency.

use std::collections::BTreeMap;
use std::io::{self, Write};
use std::net::TcpListener;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::time::Instant;

use commcsl_server::daemon::{
    accept_loop, for_each_ndjson_line, Server, Session, Transport,
};
use commcsl_server::json::Json;
use commcsl_server::protocol::{
    error_json, histograms_response_json, logs_response_json,
    metrics_response_json, with_request_id, CacheTier, LogsPage, Request,
    StatusInfo, VerifyItem,
};
use commcsl_telemetry::{EventLog, Histogram, MetricsSnapshot};
use commcsl_verifier::hash::StableHasher;

use crate::ring::HashRing;

/// The content key a request routes on.
fn route_key(tag: &str, parts: &[&str]) -> u128 {
    let mut h = StableHasher::new();
    h.tag(tag);
    for part in parts {
        h.write_str(part);
    }
    h.finish().0
}

/// A pool of shared-nothing verifier shards behind one endpoint.
pub struct ShardPool {
    shards: Vec<Arc<Server>>,
    ring: RwLock<HashRing>,
    started: Instant,
    requests: AtomicU64,
    next_request_id: AtomicU64,
    bytes_streamed: AtomicU64,
    decode_errors: AtomicU64,
    slow_requests: AtomicU64,
    slow_request_ns: u64,
    histograms: Mutex<BTreeMap<String, Histogram>>,
    events: EventLog,
    endpoint: Mutex<(String, String)>,
    shutdown: AtomicBool,
}

/// One client connection's state across the pool: a [`Session`] per
/// shard (documents live on their routed shard; the others stay empty)
/// plus the session-wide negotiation the router replays onto every
/// shard session so guards and event streaming behave identically to a
/// single daemon.
pub struct PoolSession {
    sessions: Vec<Session>,
}

impl ShardPool {
    /// Builds a pool over pre-constructed shards (each its own
    /// [`Server`] — typically with per-shard cache directories).
    pub fn new(shards: Vec<Arc<Server>>) -> ShardPool {
        let count = shards.len();
        ShardPool {
            shards,
            ring: RwLock::new(HashRing::new(count, 0)),
            started: Instant::now(),
            requests: AtomicU64::new(0),
            next_request_id: AtomicU64::new(0),
            bytes_streamed: AtomicU64::new(0),
            decode_errors: AtomicU64::new(0),
            slow_requests: AtomicU64::new(0),
            slow_request_ns: 250 * 1_000_000,
            histograms: Mutex::new(BTreeMap::new()),
            events: EventLog::default(),
            endpoint: Mutex::new((String::new(), String::new())),
            shutdown: AtomicBool::new(false),
        }
    }

    /// The shards, for tests and per-shard inspection.
    pub fn shards(&self) -> &[Arc<Server>] {
        &self.shards
    }

    /// A fresh connection's pool session.
    pub fn new_session(&self) -> PoolSession {
        PoolSession {
            sessions: self.shards.iter().map(|s| s.new_session()).collect(),
        }
    }

    /// `true` once a `shutdown` request was served or a shard/router
    /// fatal error wound the pool down.
    pub fn shutdown_requested(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    /// Winds down the router and every shard.
    pub fn request_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        for shard in &self.shards {
            shard.request_shutdown();
        }
    }

    /// Marks a shard dead: the ring re-routes its key range to the
    /// clockwise successors and the shard itself winds down. Requests
    /// in flight on other shards are unaffected; re-sent programs
    /// re-verify (or re-warm) on their new owner with identical
    /// verdicts — content addressing makes failover invisible.
    pub fn kill_shard(&self, shard: usize) {
        self.ring
            .write()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .kill(shard);
        if let Some(s) = self.shards.get(shard) {
            s.request_shutdown();
        }
    }

    /// Routes a content key to its live owner shard.
    fn route(&self, key: u128) -> Option<usize> {
        self.ring
            .read()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .route(key)
    }

    /// The live shards, owner (if any) first — the `cache_get` probe
    /// order.
    fn probe_order(&self, key: u128) -> Vec<usize> {
        let ring = self
            .ring
            .read()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let owner = ring.route(key);
        let mut order: Vec<usize> = owner.into_iter().collect();
        for shard in 0..self.shards.len() {
            if ring.is_alive(shard) && Some(shard) != owner {
                order.push(shard);
            }
        }
        order
    }

    /// The shard a request routes to, by op semantics. `None` for ops
    /// the router answers itself (or when every shard is dead).
    fn route_request(&self, request: &Request) -> Option<usize> {
        let key = match request {
            Request::Verify(VerifyItem { source, .. })
            | Request::Lint(VerifyItem { source, .. }) => {
                route_key("cluster.route.program", &[source])
            }
            // The batch routes as a unit (fail-fast ordering is batch
            // state); its key folds every member so identical batches
            // stay warm.
            Request::VerifyBatch { items, .. } => {
                let sources: Vec<&str> =
                    items.iter().map(|i| i.source.as_str()).collect();
                route_key("cluster.route.batch", &sources)
            }
            Request::Open { doc, .. }
            | Request::Update { doc, .. }
            | Request::Close { doc } => {
                route_key("cluster.route.doc", &[doc])
            }
            Request::CachePut { key, .. } => {
                route_key("cluster.route.cache", &[key])
            }
            _ => return None,
        };
        self.route(key)
    }

    /// Serves one protocol request against the pool. Mirrors
    /// [`Server::handle_session_request`]: emits one or more response
    /// lines, returns whether the endpoint should shut down after.
    pub fn handle_pool_request(
        &self,
        session: &mut PoolSession,
        request: &Request,
        emit: &mut dyn FnMut(&Json) -> io::Result<()>,
    ) -> io::Result<bool> {
        self.requests.fetch_add(1, Ordering::Relaxed);
        match request {
            // Session-wide negotiation: replayed onto *every* shard
            // session so v1 guards and event subscriptions behave
            // identically to a single daemon; the client sees one
            // response (any shard's — they are byte-identical).
            Request::Hello { .. } | Request::Subscribe { .. } => {
                self.fanout_session_op(session, request, emit)
            }
            Request::Status => {
                emit(&self.status().to_json())?;
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
            Request::Shutdown => {
                self.request_shutdown();
                emit(&Json::obj([
                    ("ok", Json::Bool(true)),
                    ("shutting_down", Json::Bool(true)),
                ]))?;
                Ok(true)
            }
            Request::CacheGet { tier, key } => {
                self.serve_pool_cache_get(session, *tier, key, emit)?;
                Ok(false)
            }
            // Everything else routes to exactly one shard.
            _ => match self.route_request(request) {
                Some(shard) => self.shards[shard].handle_session_request(
                    &mut session.sessions[shard],
                    request,
                    emit,
                ),
                None => {
                    emit(&error_json("no live shards"))?;
                    Ok(false)
                }
            },
        }
    }

    /// Applies a session op (`hello`/`subscribe`) to every shard
    /// session; the first shard's response goes to the client, the
    /// replays are sunk.
    fn fanout_session_op(
        &self,
        session: &mut PoolSession,
        request: &Request,
        emit: &mut dyn FnMut(&Json) -> io::Result<()>,
    ) -> io::Result<bool> {
        let mut stop = false;
        for (i, (shard, shard_session)) in self
            .shards
            .iter()
            .zip(session.sessions.iter_mut())
            .enumerate()
        {
            // Session ops run locally on each shard — no I/O, no
            // verification. Each shard also counts the request; status
            // reports the *router's* request counter, so the client's
            // view stays single-daemon-identical.
            let mut sink = |json: &Json| -> io::Result<()> {
                if i == 0 {
                    emit(json)
                } else {
                    Ok(())
                }
            };
            stop |= shard.handle_session_request(
                shard_session,
                request,
                &mut sink,
            )?;
        }
        Ok(stop)
    }

    /// `cache_get` probes the content owner first, then the remaining
    /// live shards (shards are shared-nothing; the entry may have been
    /// verified anywhere before this pool existed). First hit wins; the
    /// last miss (or a key error) answers otherwise.
    fn serve_pool_cache_get(
        &self,
        session: &mut PoolSession,
        tier: CacheTier,
        key: &str,
        emit: &mut dyn FnMut(&Json) -> io::Result<()>,
    ) -> io::Result<()> {
        let order = self.probe_order(route_key("cluster.route.cache", &[key]));
        if order.is_empty() {
            return emit(&error_json("no live shards"));
        }
        let request = Request::CacheGet {
            tier,
            key: key.to_owned(),
        };
        let mut last: Option<Json> = None;
        for shard in order {
            let mut captured: Option<Json> = None;
            self.shards[shard].handle_session_request(
                &mut session.sessions[shard],
                &request,
                &mut |json| {
                    captured = Some(json.clone());
                    Ok(())
                },
            )?;
            let response = captured
                .unwrap_or_else(|| error_json("cache_get produced no response"));
            if response.get("hit").and_then(Json::as_bool) == Some(true) {
                return emit(&response);
            }
            last = Some(response);
        }
        emit(&last.expect("probe order was non-empty"))
    }

    /// The router-level v2 guard, identical in wording to the shard
    /// one. Pool sessions negotiate on shard session 0 (hello fans out,
    /// so every shard agrees).
    fn v1_guard(&self, session: &PoolSession, op: &str) -> Option<Json> {
        let protocol = session
            .sessions
            .first()
            .map(|s| s.protocol())
            .unwrap_or(1);
        (protocol < 2).then(|| {
            error_json(&format!(
                "op `{op}` requires protocol v2 (session negotiated v{protocol})"
            ))
        })
    }

    /// Aggregated pool statistics: router-level request accounting,
    /// shard counters summed, plus the per-shard table.
    pub fn status(&self) -> StatusInfo {
        let ring = self
            .ring
            .read()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let shard_statuses: Vec<StatusInfo> =
            self.shards.iter().map(|s| s.status()).collect();
        let (transport, addr) = self
            .endpoint
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .clone();
        let sum = |f: &dyn Fn(&StatusInfo) -> u64| -> u64 {
            shard_statuses.iter().map(f).sum()
        };
        let mut info = StatusInfo {
            version: env!("CARGO_PKG_VERSION").to_owned(),
            uptime_ms: self.started.elapsed().as_secs_f64() * 1000.0,
            requests: self.requests.load(Ordering::Relaxed),
            ops: self
                .histogram_snapshot()
                .iter()
                .map(|(op, h)| (op.clone(), h.count()))
                .collect(),
            programs: sum(&|s| s.programs),
            documents: sum(&|s| s.documents),
            memory_hits: sum(&|s| s.memory_hits),
            disk_hits: sum(&|s| s.disk_hits),
            misses: sum(&|s| s.misses),
            evictions: sum(&|s| s.evictions),
            memory_entries: sum(&|s| s.memory_entries),
            obligation_hits: sum(&|s| s.obligation_hits),
            obligation_misses: sum(&|s| s.obligation_misses),
            statically_proven: sum(&|s| s.statically_proven),
            solver_checked: sum(&|s| s.solver_checked),
            bytes_streamed: self.bytes_streamed.load(Ordering::Relaxed),
            transport,
            addr,
            shards: ring.alive_count() as u64,
            remote_hits: sum(&|s| s.remote_hits),
            remote_misses: sum(&|s| s.remote_misses),
            remote_stores: sum(&|s| s.remote_stores),
            per_shard: shard_statuses
                .iter()
                .enumerate()
                .map(|(i, s)| commcsl_server::protocol::ShardStatus {
                    shard: i as u64,
                    alive: ring.is_alive(i),
                    documents: s.documents,
                    programs: s.programs,
                    obligation_hits: s.obligation_hits,
                    obligation_misses: s.obligation_misses,
                })
                .collect(),
            ..Default::default()
        };
        if let Some(first) = shard_statuses.first() {
            info.format_version = first.format_version;
            info.protocol_version = first.protocol_version;
            info.backend = first.backend.clone();
            info.started_at_unix_ms = first.started_at_unix_ms;
            info.threads = first.threads;
            info.remote = first.remote.clone();
        }
        info
    }

    /// Pool-wide counters: shard snapshots summed name-wise, with the
    /// router's own request/byte accounting taking over the `daemon.*`
    /// traffic counters (shard-side ones would double-count fan-outs).
    pub fn metrics(&self) -> MetricsSnapshot {
        let mut summed: BTreeMap<String, u64> = BTreeMap::new();
        for shard in &self.shards {
            for (name, value) in &shard.metrics().counters {
                *summed.entry(name.clone()).or_insert(0) += *value;
            }
        }
        summed.insert(
            "daemon.requests".into(),
            self.requests.load(Ordering::Relaxed),
        );
        summed.insert(
            "daemon.bytes_streamed".into(),
            self.bytes_streamed.load(Ordering::Relaxed),
        );
        summed.insert(
            "daemon.request.decode_error".into(),
            self.decode_errors.load(Ordering::Relaxed),
        );
        summed.insert(
            "daemon.requests.slow".into(),
            self.slow_requests.load(Ordering::Relaxed),
        );
        summed.insert("daemon.events.dropped".into(), self.events.dropped());
        summed.insert(
            "cluster.shards".into(),
            self.ring
                .read()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                .alive_count() as u64,
        );
        MetricsSnapshot::from_pairs(summed)
    }

    /// The router's per-op latency histograms (nanoseconds), sorted by
    /// op name.
    pub fn histogram_snapshot(&self) -> Vec<(String, Histogram)> {
        let hists = self
            .histograms
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        hists.iter().map(|(op, h)| (op.clone(), h.clone())).collect()
    }

    /// The router's request event log.
    pub fn event_log(&self) -> &EventLog {
        &self.events
    }

    fn assign_request_id(&self) -> String {
        format!("r{}", self.next_request_id.fetch_add(1, Ordering::Relaxed) + 1)
    }

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

    /// Serves one protocol line: decode, assign/extract the request id,
    /// route, stamp every emitted line, record latency. The wire twin
    /// of [`Server::handle_session_line`].
    pub fn handle_pool_line(
        &self,
        session: &mut PoolSession,
        line: &str,
        emit: &mut dyn FnMut(&Json) -> io::Result<()>,
    ) -> io::Result<bool> {
        match Request::decode_with_request_id(line.trim()) {
            Ok((request, client_id)) => {
                let request_id =
                    client_id.unwrap_or_else(|| self.assign_request_id());
                let op = request.op_name();
                let started = Instant::now();
                let mut outcome_ok = true;
                let result = {
                    let mut stamped = |json: &Json| -> io::Result<()> {
                        if let Some(ok) = json.get("ok").and_then(Json::as_bool)
                        {
                            outcome_ok = ok;
                        }
                        emit(&with_request_id(json, &request_id))
                    };
                    self.handle_pool_request(session, &request, &mut stamped)
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
                self.decode_errors.fetch_add(1, Ordering::Relaxed);
                self.events
                    .push("decode", &request_id, 0, "decode_error", &message);
                emit(&with_request_id(&error_json(&message), &request_id))?;
                Ok(false)
            }
        }
    }

    /// Runs one NDJSON session over a reader/writer pair until EOF or
    /// shutdown (the per-connection loop of [`ShardPool::serve_tcp`]).
    pub fn serve_stream(
        &self,
        reader: impl io::Read,
        mut writer: impl Write,
    ) -> io::Result<()> {
        let mut session = self.new_session();
        let result =
            for_each_ndjson_line(reader, &|| self.shutdown_requested(), |line| {
                let mut emit = |json: &Json| -> io::Result<()> {
                    let rendered = json.to_string();
                    writeln!(writer, "{rendered}")?;
                    writer.flush()?;
                    self.bytes_streamed
                        .fetch_add(rendered.len() as u64 + 1, Ordering::Relaxed);
                    Ok(())
                };
                let stop = match std::str::from_utf8(line) {
                    Ok(text) if text.trim().is_empty() => false,
                    Ok(text) => {
                        self.handle_pool_line(&mut session, text, &mut emit)?
                    }
                    Err(_) => {
                        let request_id = self.assign_request_id();
                        let message = "bad request: line is not UTF-8";
                        self.decode_errors.fetch_add(1, Ordering::Relaxed);
                        self.events.push(
                            "decode",
                            &request_id,
                            0,
                            "decode_error",
                            message,
                        );
                        emit(&with_request_id(&error_json(message), &request_id))?;
                        false
                    }
                };
                Ok(stop || self.shutdown_requested())
            });
        self.release_session(&session);
        result
    }

    /// Releases a finished connection's documents from each shard's
    /// open-documents gauge.
    fn release_session(&self, session: &PoolSession) {
        for (shard, shard_session) in
            self.shards.iter().zip(session.sessions.iter())
        {
            shard.release_session(shard_session);
        }
    }

    /// Serves connections on a bound TCP listener until shutdown
    /// (build one with [`Server::bind_tcp`]).
    pub fn serve_tcp(&self, listener: &TcpListener) -> io::Result<()> {
        let (transport, addr) = Transport::endpoint(listener);
        {
            let mut endpoint = self
                .endpoint
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            *endpoint = (transport, addr);
        }
        accept_loop(
            listener,
            &|| self.shutdown_requested(),
            &|| self.request_shutdown(),
            &|stream| {
                if let Ok((reader, writer)) =
                    <TcpListener as Transport>::split(stream)
                {
                    let _ = self.serve_stream(reader, writer);
                }
            },
        )
    }
}
