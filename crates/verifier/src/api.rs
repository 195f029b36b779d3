//! The [`Verifier`]: the one batch entry point of the verification
//! pipeline.
//!
//! ```
//! use commcsl_verifier::api::Verifier;
//! use commcsl_verifier::program::{AnnotatedProgram, VStmt};
//! use commcsl_pure::{Sort, Term};
//! use commcsl_smt::BackendKind;
//!
//! let verifier = Verifier::new()
//!     .with_backend(BackendKind::Incremental)
//!     .with_threads(2)
//!     .with_fail_fast(false);
//! let program = AnnotatedProgram::new("ok").with_body([
//!     VStmt::input("x", Sort::Int, true),
//!     VStmt::Output(Term::var("x")),
//! ]);
//! let outcome = verifier.verify(&program);
//! assert!(outcome.report.verified());
//! assert_eq!(outcome.cached, None, "no cache configured");
//! ```
//!
//! A batch runs on one work-stealing pool whose last worker is the
//! calling thread. Add `.with_cache(..)` and the same calls route through
//! the content-addressed [`VerdictCache`]: the program tier answers
//! unchanged programs, and misses run through
//! [`verify_incremental`] over the cache's obligation tier. Reports are
//! byte-identical either way (`outcome.report.to_json()` never depends
//! on the route). The CLI, the daemon and the benches all build their
//! pipelines through this type, and [`Workspace`](crate::workspace::Workspace)
//! shares its program-tier lookup and store.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use commcsl_smt::{BackendKind, SessionStats};

use crate::cache::{
    lookup_verdicts, store_verdicts, CacheConfig, CacheStats, SharedObligationStore, VerdictCache,
};
use crate::hash::{program_hash, ProgramHash};
use crate::obligation::DischargeStats;
use crate::program::AnnotatedProgram;
use crate::report::{VerifierConfig, VerifierReport};
use crate::symexec::{verify_incremental, verify_with_stats};

/// The outcome of one program verified through a [`Verifier`].
///
/// One shape whatever the route: uncached, cache hit, or cache miss.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Position in the input batch (0 for single-program calls).
    pub index: usize,
    /// Program name.
    pub program: String,
    /// The verification report (a placeholder when `skipped`).
    pub report: VerifierReport,
    /// Wall-clock time for this program (lookup or verification).
    pub time: Duration,
    /// `Some(true)` when served from the verdict cache, `Some(false)`
    /// when computed through a cache, `None` when no cache is configured.
    pub cached: Option<bool>,
    /// The content address, when a cache is configured.
    pub key: Option<ProgramHash>,
    /// How the obligations were discharged (static pre-pass, solver, or
    /// replayed from the obligation tier). `None` for program-tier hits,
    /// which never re-run the discharge pipeline.
    pub stats: Option<DischargeStats>,
    /// Wall-clock settle time per obligation, in report order. Diagnostic
    /// payload only (nondeterministic); empty for program-tier hits.
    pub obligation_times: Vec<Duration>,
    /// Cumulative solver-session counters for this program's run
    /// (pushes, pops, asserts, checks, quiescence skips). `None` on the
    /// cached route, whose incremental engine does not expose them.
    /// Diagnostic payload only — never enters reports or cache keys.
    pub session: Option<SessionStats>,
    /// `true` when fail-fast stopped the batch before this program ran.
    /// Its report is a placeholder that never counts as verified and is
    /// never cached.
    pub skipped: bool,
}

impl Outcome {
    /// The placeholder for a program fail-fast stopped before dispatch.
    fn placeholder(index: usize, program: &AnnotatedProgram) -> Outcome {
        Outcome {
            index,
            program: program.name.clone(),
            report: VerifierReport {
                program: program.name.clone(),
                obligations: Vec::new(),
                errors: vec![
                    "skipped: fail-fast stopped the batch after an earlier failure".into(),
                ],
                hints: Vec::new(),
            },
            time: Duration::ZERO,
            cached: None,
            key: None,
            stats: Some(DischargeStats::default()),
            obligation_times: Vec::new(),
            session: Some(SessionStats::default()),
            skipped: true,
        }
    }

    /// A program-tier hit.
    fn hit(index: usize, key: ProgramHash, report: VerifierReport, time: Duration) -> Outcome {
        Outcome {
            index,
            program: report.program.clone(),
            report,
            time,
            cached: Some(true),
            key: Some(key),
            stats: None,
            obligation_times: Vec::new(),
            session: None,
            skipped: false,
        }
    }
}

/// A configured verification pipeline: backend choice, solver budgets,
/// pool size, fail-fast policy, and (optionally) a verdict cache.
///
/// Construction is builder-style; [`Verifier::with_cache`] creates the
/// cache at once, and clones share it, so a clone with another fail-fast
/// policy serves the same tiers. Cache keys cover the whole
/// [`VerifierConfig`], so changing the configuration after the cache has
/// been used can only cause misses, never stale verdicts. The type is
/// internally synchronized — share it behind an `Arc` or clone it.
#[derive(Debug, Clone, Default)]
pub struct Verifier {
    config: VerifierConfig,
    threads: usize,
    fail_fast: bool,
    cache: Option<Arc<Mutex<VerdictCache>>>,
}

impl Verifier {
    /// A verifier with default configuration: incremental backend, one
    /// worker per CPU, no cache, no fail-fast.
    pub fn new() -> Self {
        Verifier::default()
    }

    /// Replaces the full per-program verifier configuration.
    #[must_use]
    pub fn with_config(mut self, config: VerifierConfig) -> Self {
        self.config = config;
        self
    }

    /// Selects the solver backend for *both* program obligations and
    /// specification-validity checking.
    #[must_use]
    pub fn with_backend(mut self, backend: BackendKind) -> Self {
        self.config.backend = backend;
        self.config.validity.backend = backend;
        self
    }

    /// Sets the worker-pool size (`0` = one per available CPU).
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Stop dispatching new programs once one has *failed* verification.
    /// Programs already in flight on other workers still finish;
    /// never-dispatched programs come back with `skipped` set.
    /// With one thread the cut is deterministic: everything after the
    /// first failure is skipped. Through a cache, hits are always
    /// answered, and misses after the first failing hit are skipped.
    #[must_use]
    pub fn with_fail_fast(mut self, fail_fast: bool) -> Self {
        self.fail_fast = fail_fast;
        self
    }

    /// Routes verification through a new content-addressed verdict cache.
    #[must_use]
    pub fn with_cache(mut self, cache: CacheConfig) -> Self {
        self.cache = Some(Arc::new(Mutex::new(VerdictCache::new(cache))));
        self
    }

    /// Enables or disables the sound static low-ness pre-pass (on by
    /// default). Verdicts and reports are byte-identical either way; the
    /// knob only changes *how* obligations are discharged, and it is part
    /// of the content hash so cached verdicts never cross the setting.
    #[must_use]
    pub fn with_static_prepass(mut self, enabled: bool) -> Self {
        self.config.static_prepass = enabled;
        self
    }

    /// Enables delta-debugging minimization of counterexamples (off by
    /// default). When on, every falsified obligation's environment is
    /// shrunk to a minimal fact cone that still falsifies, so hovers and
    /// reports show the two or three bindings that exhibit the leak. The
    /// knob is part of the content hash — cached verdicts never cross the
    /// setting — and reports with it off stay byte-identical to builds
    /// that predate it.
    #[must_use]
    pub fn with_minimized_counterexamples(mut self, enabled: bool) -> Self {
        self.config.minimize_counterexamples = enabled;
        self
    }

    /// Enables proof-core tracking (off by default). When on, every
    /// proved obligation records which asserted facts its proof can have
    /// used, and the report aggregates per-program "unneeded annotation"
    /// hints. Part of the content hash, like
    /// [`with_minimized_counterexamples`](Self::with_minimized_counterexamples);
    /// reports with it off are byte-identical to builds that predate it.
    #[must_use]
    pub fn with_proof_cores(mut self, enabled: bool) -> Self {
        self.config.proof_cores = enabled;
        self
    }

    /// The effective per-program configuration.
    pub fn config(&self) -> &VerifierConfig {
        &self.config
    }

    /// The shared cache handle, when a cache is configured — hand it to
    /// [`Workspace::with_shared_cache`](crate::workspace::Workspace::with_shared_cache)
    /// so a program verified through one surface answers the other.
    pub fn shared_cache(&self) -> Option<Arc<Mutex<VerdictCache>>> {
        self.cache.clone()
    }

    /// Cumulative cache counters, when a cache is configured.
    pub fn cache_stats(&self) -> Option<CacheStats> {
        let cache = self.cache.as_ref()?;
        Some(cache.lock().expect("verdict cache poisoned").stats())
    }

    /// The pool size for a batch of `jobs` programs: never zero, never
    /// more threads than jobs.
    pub fn effective_threads(&self, jobs: usize) -> usize {
        let requested = if self.threads == 0 {
            thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        } else {
            self.threads
        };
        requested.min(jobs).max(1)
    }

    /// Verifies one program.
    pub fn verify(&self, program: &AnnotatedProgram) -> Outcome {
        self.verify_batch(&[program]).remove(0)
    }

    /// Verifies a batch and returns one [`Outcome`] per program, in input
    /// order. Cache hits (when a cache is configured) are answered
    /// immediately; everything else runs through the work-stealing pool.
    /// Reports are byte-identical to [`crate::symexec::verify`] whatever
    /// route, thread count or schedule served them.
    pub fn verify_batch(&self, programs: &[&AnnotatedProgram]) -> Vec<Outcome> {
        match &self.cache {
            None => self.run_pool(programs, |program| {
                let (report, stats, times, session) = verify_with_stats(program, &self.config);
                (report, stats, times, Some(session))
            }),
            Some(cache) => self.verify_cached(programs, cache),
        }
    }

    /// The cached route. Memory probes run under one lock hold and disk
    /// reads with the lock released ([`lookup_verdicts`]); with fail-fast,
    /// misses after the first failing hit are skipped; duplicate keys are
    /// verified once; misses run through [`verify_incremental`] over the
    /// shared obligation tier; fresh verdicts are stored with the file
    /// writes outside the lock ([`store_verdicts`]). Skipped placeholders
    /// are never stored.
    fn verify_cached(
        &self,
        programs: &[&AnnotatedProgram],
        cache: &Mutex<VerdictCache>,
    ) -> Vec<Outcome> {
        let keys: Vec<ProgramHash> = programs
            .iter()
            .map(|p| program_hash(p, &self.config))
            .collect();
        let mut results: Vec<Option<Outcome>> = lookup_verdicts(cache, &keys)
            .into_iter()
            .enumerate()
            .map(|(index, hit)| {
                hit.map(|(report, time)| Outcome::hit(index, keys[index], report, time))
            })
            .collect();
        let skip = |index: usize| Outcome {
            cached: Some(false),
            key: Some(keys[index]),
            ..Outcome::placeholder(index, programs[index])
        };

        let mut misses: Vec<usize> = (0..programs.len())
            .filter(|&i| results[i].is_none())
            .collect();
        if self.fail_fast {
            let first_failed_hit = results
                .iter()
                .flatten()
                .find(|o| !o.report.verified())
                .map(|o| o.index);
            if let Some(stop) = first_failed_hit {
                for &slot in misses.iter().filter(|&&s| s > stop) {
                    results[slot] = Some(skip(slot));
                }
                misses.retain(|&s| s < stop);
            }
        }

        // Duplicate keys within one batch are verified once; the extra
        // occurrences are served from their first occurrence's fresh
        // verdict (NOT from the cache, whose LRU may already have evicted
        // it).
        let mut first: HashMap<ProgramHash, usize> = HashMap::new();
        let unique: Vec<usize> = misses
            .iter()
            .copied()
            .filter(|&s| *first.entry(keys[s]).or_insert(s) == s)
            .collect();
        let unique_programs: Vec<&AnnotatedProgram> = unique.iter().map(|&s| programs[s]).collect();
        let verified = self.run_pool(&unique_programs, |program| {
            let mut times = Vec::new();
            let (report, stats) = verify_incremental(
                program,
                &self.config,
                &mut SharedObligationStore(cache),
                &mut |event| times.push(event.time),
            );
            (report, stats, times, None)
        });
        for (&slot, outcome) in unique.iter().zip(verified) {
            results[slot] = Some(Outcome {
                index: slot,
                cached: Some(false),
                key: Some(keys[slot]),
                session: None,
                ..outcome
            });
        }
        store_verdicts(
            cache,
            unique
                .iter()
                .filter_map(|&s| results[s].as_ref())
                .filter(|o| !o.skipped)
                .map(|o| (keys[o.index], &o.report)),
        );

        for slot in misses {
            if results[slot].is_none() {
                let outcome = match &results[first[&keys[slot]]] {
                    Some(o) if !o.skipped => {
                        Outcome::hit(slot, keys[slot], o.report.clone(), Duration::ZERO)
                    }
                    // The duplicate's first occurrence was skipped by
                    // fail-fast; this slot is skipped too.
                    _ => skip(slot),
                };
                results[slot] = Some(outcome);
            }
        }
        results
            .into_iter()
            .map(|r| r.expect("every slot is a hit, a verified miss or skipped"))
            .collect()
    }

    /// The work-stealing pool: `job` verifies one program and returns its
    /// report plus the diagnostic payloads. Workers claim the next index
    /// from a shared cursor, so long programs do not stall the queue, and
    /// fill slots by input index, so output order is input order. The
    /// calling thread is the last worker: `threads - 1` are spawned.
    fn run_pool(
        &self,
        programs: &[&AnnotatedProgram],
        job: impl Fn(
                &AnnotatedProgram,
            ) -> (
                VerifierReport,
                DischargeStats,
                Vec<Duration>,
                Option<SessionStats>,
            ) + Sync,
    ) -> Vec<Outcome> {
        let jobs = programs.len();
        let cursor = AtomicUsize::new(0);
        let stop = AtomicBool::new(false);
        let slots: Vec<Mutex<Option<Outcome>>> = (0..jobs).map(|_| Mutex::new(None)).collect();
        let worker = || loop {
            let index = cursor.fetch_add(1, Ordering::Relaxed);
            if index >= jobs {
                break;
            }
            let program = programs[index];
            let outcome = if self.fail_fast && stop.load(Ordering::Relaxed) {
                Outcome::placeholder(index, program)
            } else {
                let start = Instant::now();
                let (report, stats, obligation_times, session) = job(program);
                let time = start.elapsed();
                if self.fail_fast && !report.verified() {
                    stop.store(true, Ordering::Relaxed);
                }
                Outcome {
                    index,
                    program: program.name.clone(),
                    report,
                    time,
                    cached: None,
                    key: None,
                    stats: Some(stats),
                    obligation_times,
                    session,
                    skipped: false,
                }
            };
            *slots[index].lock().expect("batch slot poisoned") = Some(outcome);
        };
        thread::scope(|scope| {
            for _ in 1..self.effective_threads(jobs) {
                scope.spawn(worker);
            }
            worker();
        });
        slots
            .into_iter()
            .map(|slot| {
                slot.into_inner()
                    .expect("batch slot poisoned")
                    .expect("every claimed index is filled before scope exit")
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use commcsl_pure::{Sort, Term};

    use super::*;
    use crate::program::VStmt;
    use crate::symexec::verify;

    fn ok_program(name: &str) -> AnnotatedProgram {
        AnnotatedProgram::new(name).with_body([
            VStmt::input("x", Sort::Int, true),
            VStmt::Output(Term::var("x")),
        ])
    }

    fn leaky_program(name: &str) -> AnnotatedProgram {
        AnnotatedProgram::new(name).with_body([
            VStmt::input("h", Sort::Int, false),
            VStmt::Output(Term::var("h")),
        ])
    }

    #[test]
    fn uncached_and_cached_routes_agree_byte_for_byte() {
        let ok = ok_program("api-ok");
        let leaky = leaky_program("api-leaky");
        let programs: Vec<&AnnotatedProgram> = vec![&ok, &leaky];

        let plain = Verifier::new().with_threads(2);
        let caching = Verifier::new()
            .with_threads(2)
            .with_cache(CacheConfig::memory_only(16));

        let direct: Vec<String> = programs
            .iter()
            .map(|p| verify(p, plain.config()).to_json())
            .collect();
        let uncached = plain.verify_batch(&programs);
        let cold = caching.verify_batch(&programs);
        let warm = caching.verify_batch(&programs);

        for (((d, u), c), w) in direct.iter().zip(&uncached).zip(&cold).zip(&warm) {
            assert_eq!(&u.report.to_json(), d);
            assert_eq!(&c.report.to_json(), d);
            assert_eq!(&w.report.to_json(), d);
            assert_eq!(c.key, w.key);
        }
        assert!(uncached
            .iter()
            .all(|o| o.cached.is_none() && o.key.is_none()));
        assert!(cold.iter().all(|o| o.cached == Some(false)));
        assert!(warm.iter().all(|o| o.cached == Some(true)));
        assert!(warm.iter().all(|o| o.key.is_some()));
        let stats = caching.cache_stats().expect("cache configured");
        assert_eq!(stats.misses, 2);
        assert_eq!(stats.memory_hits, 2);
        assert_eq!(stats.stores, 2);
        assert_eq!(plain.cache_stats(), None);

        // Misses carry their discharge counters; hits carry none.
        for (o, r) in cold.iter().zip(&direct) {
            let stats = o.stats.expect("a miss runs the discharge pipeline");
            assert_eq!(
                stats.statically_proven + stats.checked,
                o.report.obligations.len(),
                "{r}"
            );
            assert_eq!(o.obligation_times.len(), o.report.obligations.len());
        }
        assert!(warm
            .iter()
            .all(|o| o.stats.is_none() && o.obligation_times.is_empty()));
    }

    #[test]
    fn empty_batch_is_empty() {
        assert!(Verifier::new().verify_batch(&[]).is_empty());
        let caching = Verifier::new().with_cache(CacheConfig::memory_only(4));
        assert!(caching.verify_batch(&[]).is_empty());
    }

    #[test]
    fn effective_threads_is_clamped() {
        assert_eq!(Verifier::new().with_threads(16).effective_threads(3), 3);
        assert_eq!(Verifier::new().with_threads(2).effective_threads(3), 2);
        assert!(Verifier::new().effective_threads(100) >= 1);
        assert_eq!(Verifier::new().with_threads(4).effective_threads(0), 1);
    }

    #[test]
    fn backend_choice_flows_into_both_configs() {
        let v = Verifier::new().with_backend(commcsl_smt::BackendKind::Fresh);
        assert_eq!(v.config().backend, commcsl_smt::BackendKind::Fresh);
        assert_eq!(v.config().validity.backend, commcsl_smt::BackendKind::Fresh);
        let report = v.verify(&ok_program("fresh-backend")).report;
        assert!(report.verified());
    }

    #[test]
    fn fail_fast_flows_through_both_routes() {
        let a = leaky_program("ff-a");
        let b = ok_program("ff-b");
        let programs: Vec<&AnnotatedProgram> = vec![&a, &b];

        let plain = Verifier::new().with_threads(1).with_fail_fast(true);
        let results = plain.verify_batch(&programs);
        assert!(!results[0].skipped && !results[0].report.verified());
        assert!(results[1].skipped);
        assert!(
            !results[1].report.verified(),
            "skipped never counts as verified"
        );
        assert!(results[1].report.errors[0].contains("fail-fast"));
        // Without fail-fast everything runs.
        let results = plain.clone().with_fail_fast(false).verify_batch(&programs);
        assert!(results.iter().all(|r| !r.skipped));
        assert!(results[1].report.verified());

        let caching = Verifier::new()
            .with_threads(1)
            .with_fail_fast(true)
            .with_cache(CacheConfig::memory_only(16));
        let cold = caching.verify_batch(&programs);
        assert!(cold[1].skipped);
        // The skipped program was never cached: verifying it alone misses.
        let solo = caching.verify_batch(&[&b]);
        assert_eq!(solo[0].cached, Some(false), "skip must not be cached");
        assert!(solo[0].report.verified());
        // The failing program's verdict *was* cached.
        let again = caching.verify_batch(&[&a]);
        assert_eq!(again[0].cached, Some(true));
    }

    #[test]
    fn a_failing_hit_cuts_later_misses_and_clones_share_the_cache() {
        let a = leaky_program("cut-a");
        let b = ok_program("cut-b");
        let caching = Verifier::new()
            .with_threads(1)
            .with_cache(CacheConfig::memory_only(16));
        assert_eq!(caching.verify(&a).cached, Some(false));

        // A clone with fail-fast on serves the same tiers: `a` is a
        // failing hit, so the miss after it is skipped, not verified.
        let results = caching.clone().with_fail_fast(true).verify_batch(&[&a, &b]);
        assert_eq!(results[0].cached, Some(true));
        assert!(results[1].skipped && results[1].cached == Some(false));
        assert_eq!(results[1].key, Some(program_hash(&b, caching.config())));
        // Misses *before* the failing hit still run.
        let results = caching.clone().with_fail_fast(true).verify_batch(&[&b, &a]);
        assert!(!results[0].skipped && results[0].report.verified());
        assert_eq!(caching.cache_stats().unwrap().memory_hits, 2);
    }

    #[test]
    fn duplicate_keys_survive_immediate_lru_eviction() {
        // With a capacity-1 memory tier and no disk tier, verifying
        // [A, B, A] evicts A's fresh verdict before the duplicate slot is
        // served; the duplicate must be answered from the batch's own
        // results, not the (already-evicted) cache.
        let verifier = Verifier::new()
            .with_threads(1)
            .with_cache(CacheConfig::memory_only(1));
        let a = ok_program("dup-a");
        let b = ok_program("dup-b");
        let results = verifier.verify_batch(&[&a, &b, &a]);
        assert_eq!(results.len(), 3);
        assert_eq!(results[0].cached, Some(false));
        assert_eq!(results[1].cached, Some(false));
        assert_eq!(
            results[2].cached,
            Some(true),
            "duplicate slot is served, not recomputed"
        );
        assert_eq!(results[2].index, 2);
        assert_eq!(results[0].key, results[2].key);
        assert_eq!(results[0].report.to_json(), results[2].report.to_json());
        assert_eq!(verifier.cache_stats().unwrap().stores, 2);
    }

    #[test]
    fn cached_misses_replay_the_obligation_tier_byte_identically() {
        let ok = ok_program("tier-ok");
        let leaky = leaky_program("tier-leaky");
        let programs: Vec<&AnnotatedProgram> = vec![&ok, &leaky];
        let plain = Verifier::new().with_threads(2).verify_batch(&programs);
        let caching = Verifier::new()
            .with_threads(2)
            .with_cache(CacheConfig::memory_only(64));
        let cold = caching.verify_batch(&programs);
        for (p, c) in plain.iter().zip(&cold) {
            assert_eq!(
                p.report.to_json(),
                c.report.to_json(),
                "cached pool changed report bytes"
            );
        }
        // Renamed copies miss the program tier (a different address) but
        // replay every obligation from the obligation tier.
        let renamed: Vec<AnnotatedProgram> = programs
            .iter()
            .map(|&p| {
                let mut renamed = p.clone();
                renamed.name = format!("{}-renamed", p.name);
                renamed
            })
            .collect();
        let again = caching
            .with_threads(1)
            .verify_batch(&renamed.iter().collect::<Vec<_>>());
        for (program, outcome) in renamed.iter().zip(&again) {
            assert_eq!(outcome.cached, Some(false), "{}", program.name);
            assert_eq!(
                outcome.report.to_json(),
                verify(program, &VerifierConfig::default()).to_json()
            );
            let stats = outcome.stats.unwrap();
            assert_eq!(stats.reused, stats.total, "{}", program.name);
            assert_eq!(stats.checked, 0, "{}", program.name);
        }
    }

    #[test]
    fn same_body_different_name_is_a_different_address() {
        let verifier = Verifier::new().with_cache(CacheConfig::memory_only(64));
        let a = verifier.verify(&ok_program("name-a"));
        let b = verifier.verify(&ok_program("name-b"));
        assert_ne!(a.key, b.key);
        assert_eq!(
            b.cached,
            Some(false),
            "a renamed program must not hit a's verdict"
        );
    }
}
