//! `corpus` — a persistent, log-structured campaign corpus for
//! InstantCheck.
//!
//! The checker distills every run of a determinism campaign into a
//! small, durable witness: its per-checkpoint State Hashes plus a
//! handful of counters. This crate makes those witnesses *persistent*
//! and *shared*, behind one front door:
//!
//! * [`Corpus`] is the storage facade every consumer constructs, and
//!   the workspace's one [`RunCache`]: [`Corpus::open`] with a
//!   [`CorpusOptions`] builder pairs the on-disk log engine with a
//!   lock-free in-memory memo arena (`SharedCache`). A key's binary
//!   block ([`RunKey::with_bytes`]) and fingerprint are encoded once
//!   per call, on the stack, and serve the arena probe, the index
//!   probe, the stored-key compare and the append alike. There is no
//!   other way to assemble corpus storage; `sched`, `icd`, and every
//!   bench binary construct it the same way.
//! * On disk, completed runs live in an **append-only segment log**
//!   (`icseg-v4`) of fixed-layout binary records: a frame of the
//!   128-bit [`RunKey`] fingerprint, body length and one checksum,
//!   then the key block, counters and checkpoint hashes (see
//!   [`encode_record`]). Segments seal by atomic rename, the
//!   fingerprint index is rebuilt by scanning on first use (torn tails
//!   from crashed appends truncate away), inline compaction rewrites
//!   live records out of the most-garbage segment, and an optional
//!   size bound evicts whole segments oldest-first. Damaged records
//!   (truncation, checksum mismatch, a record stored under another
//!   key) are quarantined and recomputed, never trusted — and never
//!   poison their neighbors. [`Corpus::records`] reads them back for
//!   inspection (`corpus dump`).
//! * [`CampaignBaseline`] freezes a known-good campaign's reference
//!   hashes and summary verdicts as a JSON artifact; a later campaign
//!   is compared against it and any change surfaces as a [`Drift`],
//!   localized to the first divergent checkpoint.
//! * [`fingerprint_key`] is the ordered fingerprint of the key block
//!   all records and memo slots are addressed by.
//!
//! # Quick start
//!
//! ```
//! use std::sync::Arc;
//! use corpus::{Corpus, CorpusOptions};
//! use instantcheck::{Checker, CheckerConfig, Scheme};
//! use tsim::{ProgramBuilder, ValKind};
//!
//! let dir = std::env::temp_dir().join(format!("corpus-lib-doc-{}", std::process::id()));
//! let source = || {
//!     let mut b = ProgramBuilder::new(2);
//!     let g = b.global("G", ValKind::U64, 1);
//!     let lock = b.mutex();
//!     for t in 0..2u64 {
//!         b.thread(async move |ctx| {
//!             ctx.lock(lock).await;
//!             let v = ctx.load(g.at(0)).await;
//!             ctx.store(g.at(0), v + t + 1).await;
//!             ctx.unlock(lock).await;
//!         });
//!     }
//!     b.build()
//! };
//!
//! // Cold campaign: every run simulates, outcomes land in the log.
//! let corpus = Arc::new(Corpus::open(CorpusOptions::at(&dir)).unwrap());
//! let cfg = CheckerConfig::new(Scheme::HwInc)
//!     .with_runs(4)
//!     .with_run_cache(corpus.clone(), "g-plus-t:full");
//! let cold = Checker::new(cfg).expect("valid config").check(source).unwrap();
//! assert_eq!(corpus.run_count(), 4);
//! assert_eq!(corpus.stores(), 4);
//!
//! // Warm campaign — a fresh instance, as in a fresh process —
//! // replays every run from disk, byte-identically.
//! let warm_corpus = Arc::new(Corpus::open(CorpusOptions::at(&dir)).unwrap());
//! let cfg = CheckerConfig::new(Scheme::HwInc)
//!     .with_runs(4)
//!     .with_run_cache(warm_corpus.clone(), "g-plus-t:full");
//! let warm = Checker::new(cfg).expect("valid config").check(source).unwrap();
//! assert_eq!(cold, warm);
//! assert_eq!(warm_corpus.hits(), 4);
//! # std::fs::remove_dir_all(&dir).unwrap();
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod baseline;
mod compact;
mod error;
mod fingerprint;
mod index;
mod record;
mod segment;
mod shared;
mod store;
mod window;

use std::io;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use instantcheck::{CacheLease, CachedRun, RunCache, RunKey};
use obs::{Registry, Snapshot, Telemetry};

pub use baseline::{CampaignBaseline, Drift};
pub use error::CorpusError;
pub use fingerprint::{fingerprint_key, fnv64};
pub use index::CRASH_ENV;
pub use record::{
    decode_record, encode_record, frame_record, kind_token, record_sum, Corruption, FRAME_LEN,
};
pub use segment::{DEFAULT_SEGMENT_BYTES, SEGMENT_MAGIC, SEGMENT_VERSION};
pub use shared::{
    SharedCacheStats, CACHE_ACQUIRE_HISTOGRAM, CACHE_WAIT_HISTOGRAM, DEFAULT_CACHE_CAPACITY,
};
pub use store::{LogStats, StoredRecord, CORPUS_COMPACT_HISTOGRAM, CORPUS_OPEN_HISTOGRAM};
pub use window::thread_record_reads;

use fingerprint::fingerprint_block;
use shared::SharedCache;
use store::LogStore;

/// The largest memo arena [`Corpus::open`] builds, in slots: 1,024
/// times [`DEFAULT_CACHE_CAPACITY`]. A larger
/// [`cache_slots`](CorpusOptions::cache_slots) is refused, never
/// rounded or allocated.
pub const MAX_CACHE_SLOTS: usize = 1 << 24;

/// How to open a [`Corpus`]: where it lives and how it is shaped.
///
/// A builder with one entry point, [`at`](CorpusOptions::at), naming
/// the directory the log lives in. Everything else has a sensible
/// default.
#[derive(Debug, Clone)]
pub struct CorpusOptions {
    dir: PathBuf,
    segment_bytes: u64,
    max_bytes: Option<u64>,
    cache_slots: usize,
    registry: Option<Arc<Registry>>,
    telemetry: Option<Arc<Telemetry>>,
}

impl CorpusOptions {
    /// Options for a durable corpus rooted at `dir` (created if
    /// missing).
    pub fn at(dir: impl Into<PathBuf>) -> CorpusOptions {
        CorpusOptions {
            dir: dir.into(),
            segment_bytes: DEFAULT_SEGMENT_BYTES,
            max_bytes: None,
            cache_slots: DEFAULT_CACHE_CAPACITY,
            registry: None,
            telemetry: None,
        }
    }

    /// Size bound of the active segment before it seals (default 8
    /// MiB; floors at 4 KiB).
    #[must_use]
    pub fn segment_bytes(mut self, bytes: u64) -> CorpusOptions {
        self.segment_bytes = bytes;
        self
    }

    /// Total size bound of the log. When exceeded, whole segments are
    /// evicted oldest-first (default: unbounded).
    #[must_use]
    pub fn max_bytes(mut self, bytes: u64) -> CorpusOptions {
        self.max_bytes = Some(bytes);
        self
    }

    /// In-memory memo arena capacity in slots (default
    /// [`DEFAULT_CACHE_CAPACITY`]; rounded up to a power of two; at
    /// most [`MAX_CACHE_SLOTS`]).
    #[must_use]
    pub fn cache_slots(mut self, slots: usize) -> CorpusOptions {
        self.cache_slots = slots;
        self
    }

    /// Deterministic registry the memo layer counts
    /// `corpus.cache.memo_hits`/`memo_misses` into. Can also be bound
    /// after opening, via [`Corpus::bind_observers`].
    #[must_use]
    pub fn registry(mut self, registry: Arc<Registry>) -> CorpusOptions {
        self.registry = Some(registry);
        self
    }

    /// Wall-clock telemetry plane for acquire/wait, index-build, and
    /// compaction histograms. Can also be bound after opening, via
    /// [`Corpus::bind_observers`].
    #[must_use]
    pub fn telemetry(mut self, telemetry: Arc<Telemetry>) -> CorpusOptions {
        self.telemetry = Some(telemetry);
        self
    }

    /// Opens the corpus — sugar for [`Corpus::open`].
    pub fn open(self) -> Result<Corpus, CorpusError> {
        Corpus::open(self)
    }
}

/// The unified corpus: the log engine behind a lock-free memo arena,
/// constructed exclusively through [`Corpus::open`]. It is the
/// [`RunCache`] that plugs into
/// [`CheckerConfig::with_run_cache`](instantcheck::CheckerConfig::with_run_cache)
/// and the orchestrator.
///
/// See the [crate docs](crate) for a cold/warm round-trip example.
#[derive(Debug)]
pub struct Corpus {
    log: LogStore,
    cache: SharedCache,
}

impl Corpus {
    /// Opens a corpus as described by `options`.
    ///
    /// # Errors
    ///
    /// A [`CorpusError`] when the directory cannot be prepared
    /// ([`CorpusError::Open`]) or holds a store of a different on-disk
    /// format ([`CorpusError::FormatMismatch`]) — including a PR-4
    /// `icorpus` one-file-per-run store, which is refused, never
    /// silently misread. A `cache_slots` above [`MAX_CACHE_SLOTS`] is
    /// an [`CorpusError::Open`] with an
    /// [`InvalidInput`](io::ErrorKind::InvalidInput) source, reported
    /// before anything is created on disk.
    pub fn open(options: CorpusOptions) -> Result<Corpus, CorpusError> {
        if options.cache_slots > MAX_CACHE_SLOTS {
            return Err(CorpusError::Open {
                dir: options.dir,
                source: io::Error::new(
                    io::ErrorKind::InvalidInput,
                    format!(
                        "{} cache slots exceed the maximum of {MAX_CACHE_SLOTS}",
                        options.cache_slots
                    ),
                ),
            });
        }
        let log = LogStore::open(&options.dir, options.segment_bytes, options.max_bytes)?;
        let cache = SharedCache::new(options.cache_slots, options.registry);
        if let Some(t) = &options.telemetry {
            log.bind_telemetry(t);
            cache.bind_telemetry(t);
        }
        Ok(Corpus { log, cache })
    }

    /// Late-binds the deterministic registry and wall-clock telemetry
    /// planes — how the orchestrator attaches its own observers to a
    /// corpus the caller opened first. First binding of each wins.
    pub fn bind_observers(&self, registry: &Arc<Registry>, telemetry: &Arc<Telemetry>) {
        self.cache.bind_registry(registry);
        self.cache.bind_telemetry(telemetry);
        self.log.bind_telemetry(telemetry);
    }

    /// The corpus root directory.
    pub fn dir(&self) -> &Path {
        self.log.root()
    }

    /// The baselines directory (see [`CampaignBaseline`]).
    pub fn baselines_dir(&self) -> PathBuf {
        self.dir().join("baselines")
    }

    /// The store's private metrics registry. Counters: `corpus.hits`,
    /// `corpus.misses`, `corpus.stores`, `corpus.quarantined` (plus
    /// `corpus.quarantined.<class>` per [`Corruption::label`]),
    /// `corpus.compactions`, and `corpus.evicted`. Kept separate from
    /// any campaign registry so warm and cold campaigns report
    /// identical campaign metrics.
    pub fn metrics(&self) -> Snapshot {
        self.log.registry().snapshot()
    }

    /// Lookups satisfied from the log so far (this instance).
    pub fn hits(&self) -> u64 {
        self.log.registry().counter("corpus.hits").get()
    }

    /// Lookups that found no trustworthy record.
    pub fn misses(&self) -> u64 {
        self.log.registry().counter("corpus.misses").get()
    }

    /// Records written by this instance.
    pub fn stores(&self) -> u64 {
        self.log.registry().counter("corpus.stores").get()
    }

    /// Records quarantined by this instance.
    pub fn quarantined(&self) -> u64 {
        self.log.registry().counter("corpus.quarantined").get()
    }

    /// Live records in the store.
    pub fn run_count(&self) -> usize {
        self.log.run_count()
    }

    /// A point-in-time snapshot of the memo layer's contention stats.
    pub fn cache_stats(&self) -> SharedCacheStats {
        self.cache.stats()
    }

    /// A point-in-time snapshot of the log engine. Always `Some`: the
    /// log is the only backend, and the `Option` keeps existing
    /// `if let Some(..)` callers compiling.
    pub fn log_stats(&self) -> Option<LogStats> {
        Some(self.log.log_stats())
    }

    /// Every live record, in log order, read back and checked — the
    /// data behind `corpus dump`. A record that fails its checks carries
    /// its [`Corruption`] instead of a run; reading never quarantines
    /// or rewrites anything.
    ///
    /// # Errors
    ///
    /// [`CorpusError::Index`] when the segment scan fails.
    pub fn records(&self) -> Result<Vec<StoredRecord>, CorpusError> {
        self.log.records()
    }
}

impl RunCache for Corpus {
    fn begin(&self, key: &RunKey) -> CacheLease {
        // One disk read per key, under the claim.
        self.cache
            .acquire(key, |fp, block| self.log.lookup_prepared(fp, block))
    }

    fn store(&self, key: &RunKey, run: &Arc<CachedRun>) {
        key.with_bytes(|block| {
            let fp = fingerprint_block(block);
            // Write-through first: the log stays the source of truth
            // and is durable before the memo serves the entry back.
            self.log.store_prepared(fp, block, run);
            self.cache.publish(fp, run);
        })
    }

    fn abandon(&self, key: &RunKey) {
        self.cache.abandon(fingerprint_key(key));
    }
}
