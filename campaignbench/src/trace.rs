//! Spans recorded by the benchmark around its calls into each layer,
//! and the wall-clock attribution built from them.
//!
//! Nothing here reaches inside a crate. The hooks are the ones the
//! public API offers:
//!
//! * [`TimedCache`], a [`RunCache`] decorator around the corpus. A
//!   `begin` answered `Hit` is a corpus read, one answered `Compute` a
//!   corpus miss; the gap from that `begin` to the matching `store` on
//!   the same thread is build + simulate + hash; `store` is the append.
//! * [`timed_source`], a wrapper around the program-source closure,
//!   which times `workloads` builds (nested inside the compute gap).
//! * submit calls into `sched::Service`, timed by the daemon pass.
//!
//! Spans live in one in-memory buffer while tracing is on and are
//! written out when the benchmark ends.

use std::cell::Cell;
use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use corpus::Corpus;
use instantcheck::{CacheLease, CachedRun, RunCache, RunKey};
use tsim::Program;

/// What a span timed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Kind {
    /// `begin` answered from the corpus (memo or log).
    Hit,
    /// `begin` that told the checker to compute.
    Miss,
    /// `store`: the corpus append.
    Store,
    /// From a missing `begin` to its `store`/`abandon`.
    Gap,
    /// One program build.
    Build,
    /// One `Service::submit` call.
    Submit,
}

impl Kind {
    fn label(self) -> &'static str {
        match self {
            Kind::Hit => "corpus.hit",
            Kind::Miss => "corpus.miss",
            Kind::Store => "corpus.store",
            Kind::Gap => "compute.gap",
            Kind::Build => "workloads.build",
            Kind::Submit => "sched.submit",
        }
    }
}

/// One timed call, in nanoseconds since the benchmark's epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub kind: Kind,
    pub thread: u32,
    pub start: u64,
    pub end: u64,
}

impl Span {
    pub fn len(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

static EPOCH: OnceLock<Instant> = OnceLock::new();
static ON: AtomicBool = AtomicBool::new(false);
static SPANS: Mutex<Vec<Span>> = Mutex::new(Vec::new());
static NEXT_THREAD: AtomicU32 = AtomicU32::new(0);

thread_local! {
    static THREAD: u32 = NEXT_THREAD.fetch_add(1, Ordering::Relaxed);
    static GAP_START: Cell<u64> = const { Cell::new(0) };
}

/// Nanoseconds since the benchmark's epoch.
pub fn now() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

pub fn set_tracing(on: bool) {
    ON.store(on, Ordering::SeqCst);
}

pub fn tracing() -> bool {
    ON.load(Ordering::Relaxed)
}

fn record(kind: Kind, start: u64, end: u64) {
    let thread = THREAD.with(|t| *t);
    SPANS
        .lock()
        .expect("span buffer poisoned by a panicking thread")
        .push(Span {
            kind,
            thread,
            start,
            end,
        });
}

/// Records a span timed by the caller, if tracing is on.
pub fn record_if_tracing(kind: Kind, start: u64, end: u64) {
    if tracing() {
        record(kind, start, end);
    }
}

/// Takes every span recorded so far.
pub fn take() -> Vec<Span> {
    std::mem::take(
        &mut *SPANS
            .lock()
            .expect("span buffer poisoned by a panicking thread"),
    )
}

/// Writes spans as `kind thread start_ns end_ns` lines.
pub fn write_spans(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        writeln!(out, "{} {} {} {}", s.kind.label(), s.thread, s.start, s.end)?;
    }
    out.flush()
}

/// Work the decorator saw computed (stored) while tracing.
#[derive(Debug, Default)]
pub struct Computed {
    runs: AtomicU64,
    steps: AtomicU64,
    stores: AtomicU64,
    hash_updates: AtomicU64,
}

impl Computed {
    fn add(&self, run: &CachedRun) {
        self.runs.fetch_add(1, Ordering::Relaxed);
        self.steps.fetch_add(run.steps, Ordering::Relaxed);
        self.stores.fetch_add(run.hashes.stores, Ordering::Relaxed);
        self.hash_updates
            .fetch_add(run.hashes.hash_updates, Ordering::Relaxed);
    }

    /// Runs, scheduler steps, stores, hash updates.
    pub fn get(&self) -> [u64; 4] {
        [&self.runs, &self.steps, &self.stores, &self.hash_updates]
            .map(|c| c.load(Ordering::Relaxed))
    }
}

/// The timing decorator around a corpus. With tracing off it forwards
/// every call untouched.
#[derive(Debug)]
pub struct TimedCache {
    inner: Arc<Corpus>,
    computed: Arc<Computed>,
}

impl TimedCache {
    pub fn new(inner: Arc<Corpus>, computed: Arc<Computed>) -> TimedCache {
        TimedCache { inner, computed }
    }

    fn close_gap(&self, end: u64) {
        let start = GAP_START.with(Cell::get);
        record(Kind::Gap, start, end);
    }
}

impl RunCache for TimedCache {
    fn lookup(&self, key: &RunKey) -> Option<Arc<CachedRun>> {
        self.inner.lookup(key)
    }

    fn begin(&self, key: &RunKey) -> CacheLease {
        if !tracing() {
            return self.inner.begin(key);
        }
        let start = now();
        let lease = self.inner.begin(key);
        let end = now();
        match &lease {
            CacheLease::Hit(_) => record(Kind::Hit, start, end),
            CacheLease::Compute { .. } => {
                record(Kind::Miss, start, end);
                GAP_START.with(|g| g.set(end));
            }
        }
        lease
    }

    fn store(&self, key: &RunKey, run: &Arc<CachedRun>) {
        if !tracing() {
            return self.inner.store(key, run);
        }
        let start = now();
        self.close_gap(start);
        self.inner.store(key, run);
        record(Kind::Store, start, now());
        self.computed.add(run);
    }

    fn abandon(&self, key: &RunKey) {
        if tracing() {
            self.close_gap(now());
        }
        self.inner.abandon(key);
    }
}

pub type Source = Arc<dyn Fn() -> Program + Send + Sync>;

/// Wraps a program source so every build is timed while tracing.
pub fn timed_source(build: Source) -> Source {
    Arc::new(move || {
        if !tracing() {
            return build();
        }
        let start = now();
        let program = build();
        record(Kind::Build, start, now());
        program
    })
}

/// The layers wall time is attributed to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Layer {
    Workloads,
    Tsim,
    Corpus,
    Sched,
    /// The checker's own code: no sub-layer span open, inside a root
    /// (a checker call, or a service worker's campaign).
    Core,
    /// No span and no root open.
    Unattributed,
}

pub const LAYERS: [Layer; 6] = [
    Layer::Workloads,
    Layer::Tsim,
    Layer::Corpus,
    Layer::Sched,
    Layer::Core,
    Layer::Unattributed,
];

/// Leaf intervals: per thread, disjoint, each owned by one layer.
#[derive(Debug, Default)]
pub struct Leaves {
    pub leaves: Vec<(Layer, u64, u64)>,
    /// Per computed run: the compute gap minus the builds inside it.
    pub sim_ns: Vec<f64>,
    pub build_ns: Vec<f64>,
    pub hit_ns: Vec<f64>,
    pub miss_ns: Vec<f64>,
    pub store_ns: Vec<f64>,
    pub submit_ns: Vec<f64>,
}

/// Splits spans into per-thread disjoint leaves. Builds nest inside
/// compute gaps on the same thread; the gap's own leaves are what the
/// builds leave uncovered.
pub fn leaves(spans: &[Span]) -> Leaves {
    let mut out = Leaves::default();
    let mut builds: BTreeMap<u32, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        match s.kind {
            Kind::Build => {
                builds.entry(s.thread).or_default().push((s.start, s.end));
                out.build_ns.push(s.len() as f64);
                out.leaves.push((Layer::Workloads, s.start, s.end));
            }
            Kind::Hit => {
                out.hit_ns.push(s.len() as f64);
                out.leaves.push((Layer::Corpus, s.start, s.end));
            }
            Kind::Miss => {
                out.miss_ns.push(s.len() as f64);
                out.leaves.push((Layer::Corpus, s.start, s.end));
            }
            Kind::Store => {
                out.store_ns.push(s.len() as f64);
                out.leaves.push((Layer::Corpus, s.start, s.end));
            }
            Kind::Submit => {
                out.submit_ns.push(s.len() as f64);
                out.leaves.push((Layer::Sched, s.start, s.end));
            }
            Kind::Gap => {}
        }
    }
    for v in builds.values_mut() {
        v.sort_unstable();
    }
    for s in spans.iter().filter(|s| s.kind == Kind::Gap) {
        let inner = builds.get(&s.thread).map_or(&[][..], |v| {
            let from = v.partition_point(|b| b.0 < s.start);
            let to = v.partition_point(|b| b.0 < s.end);
            &v[from..to]
        });
        let mut cursor = s.start;
        let mut sim = 0;
        for &(bs, be) in inner {
            if bs > cursor {
                out.leaves.push((Layer::Tsim, cursor, bs));
                sim += bs - cursor;
            }
            cursor = cursor.max(be.min(s.end));
        }
        if s.end > cursor {
            out.leaves.push((Layer::Tsim, cursor, s.end));
            sim += s.end - cursor;
        }
        out.sim_ns.push(sim as f64);
    }
    out.leaves.sort_by_key(|l| (l.1, l.2));
    out
}

/// Wall-clock attribution of one window, in nanoseconds per layer.
pub type Split = [f64; LAYERS.len()];

/// Attributes every instant of `window` to a layer. Where several
/// leaves are open at once (on different threads) the instant is shared
/// equally among them; with none open it is [`Layer::Core`] when a
/// root covers it and [`Layer::Unattributed`] otherwise. `leaves` and
/// `roots` must be sorted by start; both are recorded inside the calls
/// a window times, so only those starting inside it are considered.
pub fn attribute(window: (u64, u64), leaves: &[(Layer, u64, u64)], roots: &[(u64, u64)]) -> Split {
    let (lo, hi) = window;
    let leaves =
        &leaves[leaves.partition_point(|l| l.1 < lo)..leaves.partition_point(|l| l.1 < hi)];
    let roots = &roots[roots.partition_point(|r| r.0 < lo)..roots.partition_point(|r| r.0 < hi)];
    // (time, +1/-1, slot): slots 0..LAYERS are leaf layers, LAYERS.len() is a root.
    let mut events: Vec<(u64, i32, usize)> = Vec::new();
    for &(layer, s, e) in leaves {
        let e = e.min(hi);
        if s < e {
            events.push((s, 1, layer as usize));
            events.push((e, -1, layer as usize));
        }
    }
    for &(s, e) in roots {
        let e = e.min(hi);
        if s < e {
            events.push((s, 1, LAYERS.len()));
            events.push((e, -1, LAYERS.len()));
        }
    }
    events.sort_unstable();
    let mut open = [0i32; LAYERS.len() + 1];
    let mut split = [0.0; LAYERS.len()];
    let mut at = lo;
    let credit = |open: &[i32; LAYERS.len() + 1], from: u64, to: u64, split: &mut Split| {
        if to <= from {
            return;
        }
        let len = (to - from) as f64;
        let k: i32 = open[..LAYERS.len()].iter().sum();
        if k > 0 {
            for (i, &n) in open[..LAYERS.len()].iter().enumerate() {
                split[i] += len * f64::from(n) / f64::from(k);
            }
        } else if open[LAYERS.len()] > 0 {
            split[Layer::Core as usize] += len;
        } else {
            split[Layer::Unattributed as usize] += len;
        }
    };
    for (t, delta, slot) in events {
        credit(&open, at, t, &mut split);
        at = at.max(t);
        open[slot] += delta;
    }
    credit(&open, at, hi, &mut split);
    split
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(kind: Kind, thread: u32, start: u64, end: u64) -> Span {
        Span {
            kind,
            thread,
            start,
            end,
        }
    }

    #[test]
    fn builds_nest_inside_gaps_on_their_own_thread() {
        let spans = [
            span(Kind::Miss, 0, 0, 10),
            span(Kind::Gap, 0, 10, 110),
            span(Kind::Build, 0, 10, 30),
            // A build on another thread does not shorten this gap.
            span(Kind::Build, 1, 40, 60),
            span(Kind::Store, 0, 110, 115),
        ];
        let l = leaves(&spans);
        assert_eq!(l.sim_ns, vec![80.0]);
        assert_eq!(l.build_ns, vec![20.0, 20.0]);
        let tsim: u64 = l
            .leaves
            .iter()
            .filter(|x| x.0 == Layer::Tsim)
            .map(|x| x.2 - x.1)
            .sum();
        assert_eq!(tsim, 80);
    }

    #[test]
    fn attribution_covers_the_window_exactly() {
        let leaves = vec![
            (Layer::Corpus, 10, 20),
            (Layer::Tsim, 20, 60),
            // Overlaps the tsim leaf on another thread: shared half and half.
            (Layer::Tsim, 40, 80),
        ];
        let split = attribute((0, 100), &leaves, &[(0, 90)]);
        assert_eq!(split[Layer::Corpus as usize], 10.0);
        assert_eq!(split[Layer::Tsim as usize], 60.0);
        // 0..10 and 80..90 have only the root open; 90..100 nothing.
        assert_eq!(split[Layer::Core as usize], 20.0);
        assert_eq!(split[Layer::Unattributed as usize], 10.0);
        assert_eq!(split.iter().sum::<f64>(), 100.0);
    }

    #[test]
    fn shared_instants_split_between_layers() {
        let leaves = vec![(Layer::Tsim, 0, 10), (Layer::Corpus, 0, 10)];
        let split = attribute((0, 10), &leaves, &[]);
        assert_eq!(split[Layer::Tsim as usize], 5.0);
        assert_eq!(split[Layer::Corpus as usize], 5.0);
    }
}
