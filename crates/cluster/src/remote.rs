//! The remote obligation-cache tier, as a protocol client.
//!
//! [`RemoteCacheClient`] plugs a *remote daemon* (any `commcsl serve
//! --tcp` endpoint) in behind a local [`VerdictCache`]'s memory
//! and disk tiers via [`RemoteObligationTier`]. The transport is the
//! same NDJSON protocol, ops `cache_get`/`cache_put`, exchanging the
//! self-validating entry text — the local cache re-validates every
//! fetched entry against the requested key and `HASH_FORMAT_VERSION`,
//! so this client stays deliberately dumb: no parsing, no versioning,
//! no trust.
//!
//! Failure policy is fail-open, as the trait demands: fetches run under
//! the cache lock on the verification hot path, so the client uses a
//! short response timeout, drops its connection on any I/O error
//! (reconnecting lazily on the next call), and gives up for good after
//! a run of consecutive connect failures — an unplugged remote must
//! cost a few milliseconds once, not per lookup.
//!
//! [`VerdictCache`]: commcsl_verifier::cache::VerdictCache

use std::time::Duration;

use commcsl_server::client::Client;
use commcsl_server::protocol::CacheTier;
use commcsl_verifier::cache::RemoteObligationTier;
use commcsl_verifier::obligation::ObligationKey;

/// Consecutive failed connect attempts before the tier wires itself
/// off.
const MAX_CONNECT_FAILURES: u32 = 3;

/// Response timeout for remote cache calls — short, because they run
/// under the verdict-cache lock.
const REMOTE_TIMEOUT: Duration = Duration::from_secs(2);

/// A [`RemoteObligationTier`] speaking `cache_get`/`cache_put` to a
/// daemon over TCP.
pub struct RemoteCacheClient {
    addr: String,
    client: Option<Client>,
    connect_failures: u32,
}

impl RemoteCacheClient {
    /// A tier pointed at `host:port` (nothing is contacted until the
    /// first lookup).
    pub fn new(addr: impl Into<String>) -> RemoteCacheClient {
        RemoteCacheClient {
            addr: addr.into(),
            client: None,
            connect_failures: 0,
        }
    }

    /// The live connection, dialing lazily. `None` once the failure
    /// budget is spent.
    fn client(&mut self) -> Option<&mut Client> {
        if self.client.is_none() {
            if self.connect_failures >= MAX_CONNECT_FAILURES {
                return None;
            }
            match Client::connect_tcp_with_timeout(&self.addr, REMOTE_TIMEOUT) {
                Ok(client) => {
                    self.client = Some(client);
                    self.connect_failures = 0;
                }
                Err(_) => {
                    self.connect_failures += 1;
                    return None;
                }
            }
        }
        self.client.as_mut()
    }

    /// Drops the connection after an I/O error; the next call redials.
    fn disconnect(&mut self) {
        self.client = None;
    }
}

impl RemoteObligationTier for RemoteCacheClient {
    fn fetch(&mut self, key: ObligationKey) -> Option<String> {
        let key = key.to_string();
        let result = self
            .client()?
            .cache_get(CacheTier::Obligation, &key);
        match result {
            Ok(entry) => entry,
            Err(_) => {
                self.disconnect();
                None
            }
        }
    }

    fn publish(&mut self, key: ObligationKey, entry: &str) {
        let key = key.to_string();
        let result = match self.client() {
            Some(client) => client.cache_put(CacheTier::Obligation, &key, entry),
            None => return,
        };
        if result.is_err() {
            self.disconnect();
        }
    }

    fn endpoint(&self) -> String {
        format!("tcp://{}", self.addr)
    }
}
