//! Satellite: two deterministic single-threaded loadgen runs produce
//! byte-identical histogram JSON — the reproducibility contract the
//! `--deterministic` flag documents. The requests still cross a real
//! Unix socket into a real daemon; only the recorded durations are a
//! fixed function of `(client, op, ordinal)`.

#![cfg(unix)]

use commcsl_bench::loadgen::{loadgen_run, LoadgenConfig};

#[test]
fn deterministic_runs_produce_byte_identical_histogram_json() {
    let config = LoadgenConfig {
        clients: 2,
        requests_per_client: 10,
        threads: 1,
        deterministic: true,
        ..LoadgenConfig::default()
    };
    let first = loadgen_run(&config);
    let second = loadgen_run(&config);

    assert!(!first.histogram_json.is_empty());
    assert_eq!(
        first.histogram_json, second.histogram_json,
        "deterministic histogram JSON must be byte-identical"
    );

    // The same deterministic workload over TCP: synthetic durations are
    // a fixed function of (client, op, ordinal), so the transport must
    // not change a byte of the JSON — and every verdict must stay as
    // expected.
    let tcp = loadgen_run(&LoadgenConfig {
        tcp: true,
        ..config.clone()
    });
    assert_eq!(
        first.histogram_json, tcp.histogram_json,
        "the TCP transport must not change the deterministic histogram"
    );
    assert_eq!(tcp.verify_failures, 0);
    assert!(tcp.request_ids_present);
    assert!(tcp.seqs_strictly_increasing);

    // The load actually went through the daemon: its own histograms
    // counted every request, its event log retained them in order, and
    // nothing failed.
    assert_eq!(first.verify_failures, 0);
    assert!(first.request_ids_present);
    assert!(first.seqs_strictly_increasing);
    assert!(first.daemon_events > 0);
    assert!(first.p99_sane());
    let total_client: u64 = first.ops.iter().map(|o| o.client.count()).sum();
    assert_eq!(total_client, first.requests);
}
