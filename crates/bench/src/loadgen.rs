//! Sustained-load harness over a live in-process verification daemon.
//!
//! [`loadgen_run`] boots a real [`Server`] on a temporary Unix socket,
//! connects `clients` concurrent [`Client`] connections, and drives an
//! interleaved v2 workload — `verify` over the `.csl` corpus and the
//! `scale-map-report-*` stress programs, `open`/`update` workspace
//! sessions, and periodic `status` polls. Each client measures its own
//! per-op latencies; at the end the harness reads the daemon's own
//! per-op histograms and event log back over the wire, so the two
//! views of the same traffic can be cross-checked (`daemon p50 within
//! 20% of client p50`, sequence numbers strictly increasing, every
//! response stamped with a request id).
//!
//! With [`LoadgenConfig::deterministic`], recorded durations are a
//! fixed function of `(client, op, ordinal)` instead of wall-clock
//! time: the requests still cross the wire, but the reported histogram
//! JSON is byte-identical across runs — the determinism contract the
//! `loadgen` CI gate and `tests/loadgen_determinism.rs` pin.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use commcsl::server::client::Client;
use commcsl::server::daemon::{Server, ServerConfig};
use commcsl::server::json::Json;
use commcsl::server::protocol::{request_id_of, Request};
use commcsl::telemetry::{histogram_to_json, Histogram};
use commcsl::verifier::cache::CacheConfig;
use commcsl::verifier::program::AnnotatedProgram;
use commcsl::verifier::report::VerifierConfig;

/// Sustained-load harness configuration.
#[derive(Debug, Clone)]
pub struct LoadgenConfig {
    /// Concurrent client connections.
    pub clients: usize,
    /// Requests each client issues.
    pub requests_per_client: usize,
    /// Daemon worker threads (0 = one per CPU).
    pub threads: usize,
    /// Record synthetic, reproducible durations instead of wall time.
    pub deterministic: bool,
    /// Drive the load over TCP loopback instead of a Unix socket (the
    /// snapshot is then named `loadgen_tcp`).
    pub tcp: bool,
}

impl Default for LoadgenConfig {
    fn default() -> Self {
        LoadgenConfig {
            clients: 4,
            requests_per_client: 40,
            threads: 0,
            deterministic: false,
            tcp: false,
        }
    }
}

/// One op's view of the load: the client-side histogram (what callers
/// experienced) and the daemon-side histogram (what the service
/// recorded for the same traffic).
#[derive(Debug, Clone)]
pub struct OpStats {
    /// Protocol op name.
    pub op: String,
    /// Client-side latency histogram (nanoseconds; synthetic under
    /// deterministic mode).
    pub client: Histogram,
    /// Daemon-side latency histogram, read back over the wire. Empty
    /// when the daemon saw no such op (never the case for ops we sent).
    pub daemon: Histogram,
}

impl OpStats {
    /// Whether the daemon's p50 agrees with the client's within 20%
    /// relative error or `queue_slack_ns` absolute slack. Fast ops are
    /// dominated by costs the daemon-side timer cannot see — the socket
    /// round-trip, the scheduler handoff back to the client thread, and
    /// queueing behind other clients' in-flight requests — so the
    /// relative bound only becomes meaningful once the op itself
    /// outweighs transport. The slack is load-derived (see
    /// [`LoadgenRun::queue_slack_ns`]) because the queueing component
    /// scales with how oversubscribed the host is.
    pub fn p50_agrees(&self, queue_slack_ns: f64) -> bool {
        let client = self.client.quantile(0.5) as f64;
        let daemon = self.daemon.quantile(0.5) as f64;
        let abs = (client - daemon).abs();
        abs <= queue_slack_ns || abs <= 0.2 * client.max(daemon)
    }
}

/// Results of one sustained-load run.
#[derive(Debug, Clone)]
pub struct LoadgenRun {
    /// Concurrent connections driven.
    pub clients: usize,
    /// Total requests issued by the harness (excluding the final
    /// observability reads).
    pub requests: u64,
    /// Wall-clock time for the loaded phase.
    pub wall_ms: f64,
    /// Per-op statistics, sorted by op name.
    pub ops: Vec<OpStats>,
    /// Canonical client-side histogram JSON (`{"op":{...},...}`,
    /// sorted): byte-identical across runs under deterministic mode.
    pub histogram_json: String,
    /// Events the daemon retained, read back through the `logs` op.
    pub daemon_events: u64,
    /// Events the daemon dropped to stay within its ring capacity.
    pub daemon_events_dropped: u64,
    /// Whether the event log's sequence numbers were strictly
    /// increasing.
    pub seqs_strictly_increasing: bool,
    /// Whether every sampled response carried a `request_id`.
    pub request_ids_present: bool,
    /// Verify requests whose verdict was not the expected "verified".
    pub verify_failures: u64,
}

impl LoadgenRun {
    /// Requests per second over the loaded phase.
    pub fn throughput_rps(&self) -> f64 {
        self.requests as f64 / (self.wall_ms / 1000.0).max(f64::EPSILON)
    }

    /// The absolute slack allowed between the client-side and
    /// daemon-side p50 of one op: by Little's law, a request on a
    /// saturated host waits behind up to `clients` in-flight requests,
    /// each taking `wall / requests` on average to drain — so that
    /// product bounds the queueing delay the client clock sees but the
    /// daemon's per-request timer cannot. Floored at 5 ms so unloaded
    /// runs keep a transport allowance.
    pub fn queue_slack_ns(&self) -> f64 {
        let mean_drain_ns = self.wall_ms * 1e6 / (self.requests as f64).max(1.0);
        (self.clients as f64 * mean_drain_ns).max(5_000_000.0)
    }

    /// Whether every op's daemon-side p50 agrees with the client-side
    /// p50 (see [`OpStats::p50_agrees`]). Meaningless under
    /// deterministic mode, where client durations are synthetic.
    pub fn p50_agreement(&self) -> bool {
        let slack = self.queue_slack_ns();
        self.ops.iter().all(|op| op.p50_agrees(slack))
    }

    /// Every op's p99 is at least its p50 (quantile sanity).
    pub fn p99_sane(&self) -> bool {
        self.ops
            .iter()
            .all(|o| o.client.quantile(0.99) >= o.client.quantile(0.5))
    }
}

/// The `.csl` corpus the workload cycles over: every program under
/// `examples/programs`, sorted by file name.
pub fn corpus() -> Vec<(String, String)> {
    let dir = PathBuf::from(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../examples/programs"
    ));
    let mut files: Vec<(String, String)> = std::fs::read_dir(&dir)
        .unwrap_or_else(|e| panic!("cannot read corpus dir {}: {e}", dir.display()))
        .filter_map(|entry| {
            let path = entry.ok()?.path();
            if path.extension().is_some_and(|x| x == "csl") {
                let name = path.file_name()?.to_string_lossy().into_owned();
                let source = std::fs::read_to_string(&path).ok()?;
                Some((name, source))
            } else {
                None
            }
        })
        .collect();
    files.sort();
    assert!(!files.is_empty(), "empty corpus in {}", dir.display());
    files
}

/// The daemon compiler used by the harness: `.csl` sources go through
/// the real front-end; a `@scale <name>` line resolves one of the
/// builder-constructed `scale-map-report-*` stress programs, which have
/// no surface syntax.
fn loadgen_compile(src: &str) -> Result<AnnotatedProgram, String> {
    if let Some(rest) = src.strip_prefix("@scale ") {
        let name = rest.split_whitespace().next().unwrap_or("");
        crate::reverify_programs()
            .into_iter()
            .find(|p| p.name == name)
            .ok_or_else(|| format!("1:1: unknown scale program `{name}`"))
    } else {
        commcsl::front::compile(src).map_err(|e| e.to_string())
    }
}

/// A reproducible pseudo-latency for deterministic mode: a fixed
/// function of the client index, op slot, and request ordinal, spread
/// over 0.05–50 ms so quantiles land in distinct buckets.
fn synthetic_ns(client: usize, op_slot: usize, ordinal: usize) -> u64 {
    let mix = (client as u64)
        .wrapping_mul(1_000_003)
        .wrapping_add(op_slot as u64 * 10_007)
        .wrapping_add(ordinal as u64 * 101);
    50_000 + (mix % 1000) * 50_000
}

/// Unique-per-process socket path for one run.
fn socket_path() -> PathBuf {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!(
        "commcsl-loadgen-{}-{n}.sock",
        std::process::id()
    ))
}

/// Boots a daemon, drives the configured load through it, and reads the
/// service's own telemetry back over the wire.
///
/// # Panics
///
/// On harness-level failures (socket cannot bind, a client cannot
/// connect, a protocol response is malformed). Workload-level outcomes
/// — verdict mismatches, quantile disagreement — are *reported* in the
/// returned [`LoadgenRun`] so the caller can gate on them.
pub fn loadgen_run(config: &LoadgenConfig) -> LoadgenRun {
    use std::collections::BTreeMap;
    use std::sync::Mutex;

    let tcp = config.tcp;
    let server = Server::new(
        ServerConfig {
            threads: config.threads,
            cache: CacheConfig::memory_only(4096),
            verifier: VerifierConfig::default(),
            ..Default::default()
        },
        Box::new(loadgen_compile),
    );
    let socket = (!tcp).then(socket_path);
    if let Some(sock) = &socket {
        let _ = std::fs::remove_file(sock);
    }
    let listener =
        tcp.then(|| Server::bind_tcp("127.0.0.1:0").expect("bind loopback"));
    let addr = listener
        .as_ref()
        .map(|l| l.local_addr().expect("bound address").to_string());
    let connect = || match (&addr, &socket) {
        (Some(addr), _) => Client::connect_tcp(addr),
        (None, Some(sock)) => Client::connect(sock),
        (None, None) => unreachable!("loadgen has an endpoint"),
    };

    let corpus = corpus();
    let scale_names = ["scale-map-report-6x24", "scale-map-report-9x36"];

    // Client-side per-op histograms and correctness flags, merged under
    // one lock (contention is per-request, not per-sample: each client
    // merges once at the end).
    let merged: Mutex<BTreeMap<String, Histogram>> = Mutex::new(BTreeMap::new());
    let verify_failures = AtomicU64::new(0);
    let missing_request_ids = AtomicU64::new(0);

    struct StopOnDrop<'a>(&'a Server);
    impl Drop for StopOnDrop<'_> {
        fn drop(&mut self) {
            self.0.request_shutdown();
        }
    }

    let mut wall_ms = 0.0;
    let mut daemon_hists: Vec<(String, Histogram)> = Vec::new();
    let mut daemon_events = 0u64;
    let mut daemon_events_dropped = 0u64;
    let mut seqs_strictly_increasing = true;

    std::thread::scope(|scope| {
        let _stop = StopOnDrop(&server);
        scope.spawn(|| match (&listener, &socket) {
            (Some(listener), _) => server.serve_tcp(listener),
            (None, Some(sock)) => server.serve_unix(sock),
            (None, None) => unreachable!("loadgen has an endpoint"),
        });
        let deadline = Instant::now() + std::time::Duration::from_secs(10);
        while connect().is_err() {
            assert!(Instant::now() < deadline, "loadgen daemon never came up");
            std::thread::sleep(std::time::Duration::from_millis(5));
        }

        let started = Instant::now();
        std::thread::scope(|clients| {
            for c in 0..config.clients {
                let corpus = &corpus;
                let merged = &merged;
                let verify_failures = &verify_failures;
                let missing_request_ids = &missing_request_ids;
                let connect = &connect;
                clients.spawn(move || {
                    let mut client = connect().expect("client connects");
                    client.hello_latest().expect("hello");
                    let mut local: BTreeMap<&'static str, Histogram> =
                        BTreeMap::new();
                    let doc = format!("loadgen-{c}.csl");
                    for j in 0..config.requests_per_client {
                        let (name, source) = &corpus[(c + j) % corpus.len()];
                        let op_slot = j % 5;
                        let begun = Instant::now();
                        let op: &'static str = match op_slot {
                            0 => {
                                let outcome = client
                                    .verify(name.clone(), source.clone())
                                    .expect("verify answers");
                                if !outcome
                                    .as_ref()
                                    .is_ok_and(|ok| ok.report.verified())
                                {
                                    verify_failures
                                        .fetch_add(1, Ordering::Relaxed);
                                }
                                "verify"
                            }
                            1 => {
                                let outcome = client
                                    .open(doc.clone(), source.clone())
                                    .expect("open answers");
                                if outcome.is_err() {
                                    verify_failures
                                        .fetch_add(1, Ordering::Relaxed);
                                }
                                "open"
                            }
                            2 => {
                                // A trailing comment: new revision, same
                                // program — the incremental path the
                                // daemon serves cheaply.
                                let edited =
                                    format!("{source}\n// loadgen edit {j}\n");
                                let outcome = client
                                    .update(doc.clone(), edited)
                                    .expect("update answers");
                                if outcome.is_err() {
                                    verify_failures
                                        .fetch_add(1, Ordering::Relaxed);
                                }
                                "update"
                            }
                            3 => {
                                // Raw round-trip so the response's
                                // request_id stamp is observable.
                                let response = client
                                    .roundtrip(&Request::Status)
                                    .expect("status answers");
                                if request_id_of(&response).is_none() {
                                    missing_request_ids
                                        .fetch_add(1, Ordering::Relaxed);
                                }
                                "status"
                            }
                            _ => {
                                let scale = scale_names[(j / 5) % 2];
                                let outcome = client
                                    .verify(scale, format!("@scale {scale}"))
                                    .expect("scale verify answers");
                                if !outcome
                                    .as_ref()
                                    .is_ok_and(|ok| ok.report.verified())
                                {
                                    verify_failures
                                        .fetch_add(1, Ordering::Relaxed);
                                }
                                "verify"
                            }
                        };
                        let dur_ns = if config.deterministic {
                            synthetic_ns(c, op_slot, j)
                        } else {
                            u64::try_from(begun.elapsed().as_nanos())
                                .unwrap_or(u64::MAX)
                        };
                        local.entry(op).or_default().record(dur_ns);
                    }
                    client.close(doc).expect("close answers");
                    let mut merged = merged.lock().expect("merge lock");
                    for (op, hist) in local {
                        merged.entry(op.to_owned()).or_default().merge(&hist);
                    }
                });
            }
        });
        wall_ms = started.elapsed().as_secs_f64() * 1000.0;

        // Read the daemon's own view of the traffic back over the wire.
        let mut control = connect().expect("control connects");
        daemon_hists = control.histograms().expect("histograms answer");
        let page = control.logs(None).expect("logs answer");
        daemon_events = page.events.len() as u64;
        daemon_events_dropped = page.dropped;
        seqs_strictly_increasing =
            page.events.windows(2).all(|w| w[0].seq < w[1].seq);
        control.shutdown().expect("shutdown acknowledged");
    });
    if let Some(sock) = &socket {
        let _ = std::fs::remove_file(sock);
    }

    let merged = merged.into_inner().expect("merge lock");
    let histogram_json = Json::Obj(
        merged
            .iter()
            .map(|(op, h)| (op.clone(), histogram_to_json(h)))
            .collect(),
    )
    .to_string();
    let daemon_by_op: BTreeMap<&str, &Histogram> = daemon_hists
        .iter()
        .map(|(op, h)| (op.as_str(), h))
        .collect();
    let ops = merged
        .iter()
        .map(|(op, client_hist)| OpStats {
            op: op.clone(),
            client: client_hist.clone(),
            daemon: daemon_by_op
                .get(op.as_str())
                .map(|h| (*h).clone())
                .unwrap_or_default(),
        })
        .collect();

    LoadgenRun {
        clients: config.clients,
        requests: (config.clients * config.requests_per_client) as u64,
        wall_ms,
        ops,
        histogram_json,
        daemon_events,
        daemon_events_dropped,
        seqs_strictly_increasing,
        request_ids_present: missing_request_ids.load(Ordering::Relaxed) == 0,
        verify_failures: verify_failures.load(Ordering::Relaxed),
    }
}

/// Renders a [`LoadgenRun`] as one appendable JSON snapshot line (same
/// trajectory file as `table1_json`, distinguished by `"bench"`).
pub fn loadgen_json(run: &LoadgenRun, config: &LoadgenConfig) -> String {
    let ms = |ns: u64| ns as f64 / 1e6;
    let ops: Vec<String> = run
        .ops
        .iter()
        .map(|o| {
            format!(
                "{{\"op\":{},\"count\":{},\"client_p50_ms\":{:.6},\
                 \"client_p99_ms\":{:.6},\"daemon_p50_ms\":{:.6},\
                 \"daemon_p99_ms\":{:.6}}}",
                Json::str(&o.op),
                o.client.count(),
                ms(o.client.quantile(0.5)),
                ms(o.client.quantile(0.99)),
                ms(o.daemon.quantile(0.5)),
                ms(o.daemon.quantile(0.99)),
            )
        })
        .collect();
    let bench = if config.tcp {
        "loadgen_tcp"
    } else {
        "loadgen"
    };
    format!(
        "{{\"bench\":\"{bench}\",\"clients\":{},\"requests\":{},\
         \"threads\":{},\"deterministic\":{},\"wall_ms\":{:.6},\
         \"throughput_rps\":{:.3},\"verify_failures\":{},\
         \"events\":{},\"events_dropped\":{},\"seqs_increasing\":{},\
         \"request_ids\":{},\"ops\":[{}]}}",
        run.clients,
        run.requests,
        config.threads,
        config.deterministic,
        run.wall_ms,
        run.throughput_rps(),
        run.verify_failures,
        run.daemon_events,
        run.daemon_events_dropped,
        run.seqs_strictly_increasing,
        run.request_ids_present,
        ops.join(","),
    )
}
