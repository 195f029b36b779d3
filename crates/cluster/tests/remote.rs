//! The remote obligation-cache tier end to end: a plain TCP daemon
//! serves the corpus cold, and a second daemon that chains it as its
//! remote tier reproduces its reports byte for byte from remote hits.

use std::thread;
use std::time::Duration;

use commcsl_cluster::remote::RemoteCacheClient;
use commcsl_server::client::Client;
use commcsl_server::daemon::{Server, ServerConfig};
use commcsl_server::json::Json;
use commcsl_server::protocol::{Request, VerifyItem};
use commcsl_verifier::cache::CacheConfig;

fn front_server(cache: CacheConfig) -> Server {
    Server::new(
        ServerConfig {
            threads: 2,
            cache,
            ..Default::default()
        },
        Box::new(|src| commcsl_front::compile(src).map_err(|e| e.to_string())),
    )
}

/// The first six programs of the bundled `.csl` corpus, sorted for
/// determinism.
fn corpus_items() -> Vec<VerifyItem> {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../examples/programs");
    let mut entries: Vec<std::path::PathBuf> = std::fs::read_dir(dir)
        .expect("examples/programs exists")
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|e| e == "csl"))
        .collect();
    entries.sort();
    entries
        .into_iter()
        .take(6)
        .map(|path| VerifyItem {
            name: path.display().to_string(),
            source: std::fs::read_to_string(&path).expect("readable fixture"),
        })
        .collect()
}

/// Drops → shutdown, so a panicking assertion can't hang the
/// accept-loop join.
struct StopOnDrop<'a>(&'a Server);

impl Drop for StopOnDrop<'_> {
    fn drop(&mut self) {
        self.0.request_shutdown();
    }
}

#[test]
fn remote_cache_tier_shares_obligations_across_daemons() {
    // Daemon A: serves the corpus cold over TCP, filling its
    // obligation store.
    let a = front_server(CacheConfig::memory_only(256));
    let listener = Server::bind_tcp("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();

    thread::scope(|scope| {
        let _stop = StopOnDrop(&a);
        let a_ref = &a;
        scope.spawn(move || a_ref.serve_tcp(&listener));
        let mut warm =
            Client::connect_tcp_retry(&addr, Duration::from_secs(5))
                .expect("daemon A comes up");
        let items = corpus_items();
        let from_a = warm.verify_batch(items.clone()).expect("A verifies");
        assert!(a.status().obligation_misses > 0, "A filled its store");

        // A's status, read over the wire, names its endpoint: the
        // transport and the actual bound address.
        let status = warm.status().expect("A status");
        assert_eq!(status.transport, "tcp");
        assert_eq!(status.addr, addr);

        // Daemon B: fresh caches, A chained as its remote tier. Its
        // verification consults A for every obligation it misses
        // locally — remote hits replace solver work, verdicts stay
        // byte-identical.
        let b = front_server(CacheConfig::memory_only(256));
        b.set_remote_cache(Box::new(RemoteCacheClient::new(addr.clone())));
        let (response, _) = b.handle_request(&Request::VerifyBatch {
            items: items.clone(),
            fail_fast: false,
        });
        assert_eq!(response.get("ok").and_then(Json::as_bool), Some(true));
        let results = response.get("results").and_then(Json::as_arr).unwrap();
        assert_eq!(results.len(), from_a.len());
        for (result, outcome) in results.iter().zip(&from_a) {
            let a_ok = outcome.as_ref().unwrap();
            assert_eq!(
                result.get("report").unwrap().to_string(),
                a_ok.report.to_json(),
                "remote-hit path must reproduce A's bytes"
            );
        }
        let status = b.status();
        assert_eq!(status.remote, format!("tcp://{addr}"));
        assert!(
            status.remote_hits > 0,
            "B served obligations from A: {status:?}"
        );
        assert!(
            status.remote_hits
                >= 9 * (status.remote_hits + status.remote_misses) / 10,
            "a fully warm remote yields >=90% remote hits: {status:?}"
        );
    });
}
