//! The three workloads: set-up (inputs, references, recorded corpus)
//! and one timed pass each.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use corpus::{kind_token, CampaignBaseline, Corpus, CorpusOptions};
use instantcheck::{CampaignSpec, CheckReport, Checker, CheckerConfig, RunCache, RunHashes};
use instantcheck_workloads::AppSpec;
use obs::{HistogramSnapshot, Registry, Telemetry};
use sched::{
    CampaignStatus, Disposition, Orchestrator, OrchestratorConfig, ProgramSource, Resolver,
    Service, Submission, QUEUE_DWELL_HISTOGRAM,
};

use crate::gen::{self, Campaign, Submitted};
use crate::stats::Ratio;
use crate::trace::{self, Computed, Kind, Source, TimedCache};

/// Worker threads: the checker's `jobs` on the direct paths, the
/// service's width on the daemon path (each of its campaigns then runs
/// with one job). Results record the host's core count beside it.
pub const WORKERS: usize = 2;

/// Segment size of every corpus the benchmark opens: small enough that
/// a pass seals several segments, so seals land in the store tail and
/// warm lookups span several segment files.
pub const SEGMENT_BYTES: u64 = 1 << 20;

/// The flush policy in force, recorded with every result.
pub const FLUSH_POLICY: &str =
    "no fsync: appends reach the page cache only (process-death crash safety)";

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Cold,
    Warm,
    Daemon,
}

impl Workload {
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "cold-check" => Some(Workload::Cold),
            "warm-replay" => Some(Workload::Warm),
            "daemon-mix" => Some(Workload::Daemon),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::Cold => "cold-check",
            Workload::Warm => "warm-replay",
            Workload::Daemon => "daemon-mix",
        }
    }
}

/// Simulated counters the registry folds per completed run:
/// `checker.steps`, `checker.hash_updates`, `checker.checkpoints`.
pub type Counters = [u64; 3];

fn counters(reg: &Registry) -> Counters {
    [
        "checker.steps",
        "checker.hash_updates",
        "checker.checkpoints",
    ]
    .map(|n| reg.counter(n).get())
}

fn add(a: &mut Counters, b: &Counters) {
    for (x, y) in a.iter_mut().zip(b) {
        *x += y;
    }
}

/// A campaign ready to run, with what it must produce.
pub struct Prepared {
    pub campaign: Campaign,
    /// daemon-mix: the submitting tenant.
    pub tenant: &'static str,
    pub spec: CampaignSpec,
    pub source: Source,
    /// Report bytes the campaign must reproduce.
    pub reference: String,
    pub expected: Counters,
}

pub struct Setup {
    pub workload: Workload,
    /// cold-check and warm-replay: one pass, in order.
    pub campaigns: Vec<Prepared>,
    /// daemon-mix: batches of submissions, in order.
    pub batches: Vec<Vec<Prepared>>,
    pub resolver: Option<Resolver>,
    /// daemon-mix: the distinct runs one pass computes (runs, steps,
    /// stores, hash updates), from the references.
    pub distinct: [u64; 4],
    /// warm-replay: the recorded corpus.
    pub corpus_dir: Option<PathBuf>,
}

impl Setup {
    pub fn runs_per_pass(&self) -> usize {
        self.all().map(|p| p.campaign.runs).sum()
    }

    pub fn all(&self) -> impl Iterator<Item = &Prepared> {
        self.campaigns.iter().chain(self.batches.iter().flatten())
    }

    /// Alters one byte of one reference: the correctness gate must then
    /// fail every pass.
    pub fn corrupt_one_reference(&mut self) {
        let p = self
            .campaigns
            .first_mut()
            .or_else(|| self.batches.first_mut().and_then(|b| b.first_mut()))
            .expect("every plan has a campaign");
        let mut bytes = std::mem::take(&mut p.reference).into_bytes();
        let mid = bytes.len() / 2;
        bytes[mid] = if bytes[mid] == b'0' { b'1' } else { b'0' };
        p.reference = String::from_utf8(bytes).expect("ASCII reference");
    }
}

/// The apps behind every kernel, by workload id.
struct Apps(BTreeMap<String, AppSpec>);

impl Apps {
    fn new() -> Apps {
        let mut map = BTreeMap::new();
        for scaled in [true, false] {
            for app in if scaled {
                instantcheck_workloads::all_scaled()
            } else {
                instantcheck_workloads::all()
            } {
                map.insert(gen::workload_id(app.name, scaled), app);
            }
        }
        Apps(map)
    }

    fn get(&self, c: &Campaign) -> &AppSpec {
        self.0
            .get(&c.workload_id())
            .expect("every planned kernel is registered")
    }

    fn spec(&self, c: &Campaign, jobs: usize) -> CampaignSpec {
        let app = self.get(c);
        c.spec(app.expected_class, app.uses_fp, &app.ignore, jobs)
    }

    fn source(&self, c: &Campaign) -> Source {
        trace::timed_source(Arc::clone(&self.get(c).build))
    }
}

/// The report bytes of a campaign on the direct checker path: the
/// baseline artifact (reference hashes + verdict summary) followed by
/// every run's full hash sequence and cost counters.
pub fn render_runs(id: &str, spec: &CampaignSpec, runs: &[RunHashes]) -> String {
    use std::fmt::Write as _;
    let mut out = render_baseline(id, spec, runs);
    for r in runs {
        let _ = write!(
            out,
            "\n{:016x} {} {} {}",
            r.output_digest, r.stores, r.hash_updates, r.extra_instr
        );
        for cp in &r.checkpoints {
            let _ = write!(out, " {}={:016x}", kind_token(cp.kind), cp.hash.as_raw());
        }
    }
    out
}

/// The report artifact exactly as `sched` renders a completed campaign.
fn render_baseline(id: &str, spec: &CampaignSpec, runs: &[RunHashes]) -> String {
    let report = CheckReport::from_runs(runs);
    CampaignBaseline::capture(
        id,
        &spec.workload,
        spec.scheme,
        spec.base_seed,
        &runs[0],
        &report,
    )
    .to_json()
}

/// Checks `spec` solo: one job, no corpus.
fn solo(spec: &CampaignSpec, source: &Source) -> Result<(Vec<RunHashes>, Counters), String> {
    let mut solo = spec.clone();
    solo.jobs = Some(1);
    let reg = Arc::new(Registry::new());
    let cfg = CheckerConfig::from_spec(&solo).with_registry(Arc::clone(&reg));
    let runs = Checker::new(cfg)
        .map_err(|e| e.to_string())?
        .collect_runs(&|| source())
        .map_err(|e| format!("reference {}: {e}", spec.workload))?;
    if runs.len() != spec.runs {
        return Err(format!(
            "reference {}: {} of {} runs completed",
            spec.workload,
            runs.len(),
            spec.runs
        ));
    }
    Ok((runs, counters(&reg)))
}

pub fn setup(workload: Workload, seed: u64, work: &Path) -> Result<Setup, String> {
    let apps = Apps::new();
    let mut setup = Setup {
        workload,
        campaigns: Vec::new(),
        batches: Vec::new(),
        resolver: None,
        distinct: [0; 4],
        corpus_dir: None,
    };
    match workload {
        Workload::Cold => {
            for c in gen::cold_plan(seed) {
                let spec = apps.spec(&c, WORKERS);
                let source = apps.source(&c);
                let (runs, expected) = solo(&spec, &source)?;
                setup.campaigns.push(Prepared {
                    reference: render_runs(&c.id, &spec, &runs),
                    campaign: c,
                    tenant: "",
                    spec,
                    source,
                    expected,
                });
            }
        }
        Workload::Warm => {
            // Recording is a cold campaign through the corpus; its report
            // is the reference every replay must reproduce.
            let dir = work.join("warm-corpus");
            remove_dir(&dir)?;
            let corpus = Arc::new(open(&dir, None, None)?);
            for c in gen::warm_plan(seed) {
                let spec = apps.spec(&c, WORKERS);
                let source = apps.source(&c);
                let reg = Arc::new(Registry::new());
                let cfg = CheckerConfig::from_spec(&spec)
                    .with_registry(Arc::clone(&reg))
                    .with_run_cache(
                        Arc::clone(&corpus) as Arc<dyn RunCache>,
                        spec.workload.clone(),
                    );
                let runs = Checker::new(cfg)
                    .map_err(|e| e.to_string())?
                    .collect_runs(&|| source())
                    .map_err(|e| format!("recording {}: {e}", c.id))?;
                setup.campaigns.push(Prepared {
                    reference: render_runs(&c.id, &spec, &runs),
                    expected: counters(&reg),
                    campaign: c,
                    tenant: "",
                    spec,
                    source,
                });
            }
            setup.corpus_dir = Some(dir);
        }
        Workload::Daemon => {
            let mut sources: BTreeMap<String, ProgramSource> = BTreeMap::new();
            // One reference per distinct (family, runs); the largest
            // submission of a family covers every run key of the family.
            let mut refs: BTreeMap<(u64, usize), (Vec<RunHashes>, Counters)> = BTreeMap::new();
            let mut largest: BTreeMap<u64, usize> = BTreeMap::new();
            let plan = gen::daemon_plan(seed);
            for Submitted { campaign: c, .. } in plan.iter().flatten() {
                let spec = apps.spec(c, 1);
                let source = Arc::clone(
                    sources
                        .entry(spec.workload.clone())
                        .or_insert_with(|| apps.source(c)),
                );
                if let std::collections::btree_map::Entry::Vacant(e) =
                    refs.entry((c.base_seed, c.runs))
                {
                    e.insert(solo(&spec, &source)?);
                }
                let max = largest.entry(c.base_seed).or_insert(0);
                *max = (*max).max(c.runs);
            }
            for (seed, runs) in &largest {
                let (hashes, counters) = &refs[&(*seed, *runs)];
                let stores: u64 = hashes.iter().map(|r| r.stores).sum();
                let distinct = [*runs as u64, counters[0], stores, counters[1]];
                for (d, x) in setup.distinct.iter_mut().zip(distinct) {
                    *d += x;
                }
            }
            for batch in plan {
                let mut prepared = Vec::with_capacity(batch.len());
                for Submitted {
                    tenant,
                    campaign: c,
                } in batch
                {
                    let spec = apps.spec(&c, 1);
                    let (runs, expected) = &refs[&(c.base_seed, c.runs)];
                    prepared.push(Prepared {
                        reference: render_baseline(&c.id, &spec, runs),
                        expected: *expected,
                        source: Arc::clone(&sources[&spec.workload]),
                        spec,
                        campaign: c,
                        tenant,
                    });
                }
                setup.batches.push(prepared);
            }
            setup.resolver = Some(Arc::new(move |workload: &str| {
                sources.get(workload).cloned()
            }));
        }
    }
    Ok(setup)
}

pub fn remove_dir(dir: &Path) -> Result<(), String> {
    match std::fs::remove_dir_all(dir) {
        Ok(()) => Ok(()),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
        Err(e) => Err(format!("removing {}: {e}", dir.display())),
    }
}

fn open(
    dir: &Path,
    registry: Option<&Arc<Registry>>,
    telemetry: Option<&Arc<Telemetry>>,
) -> Result<Corpus, String> {
    let mut options = CorpusOptions::at(dir).segment_bytes(SEGMENT_BYTES);
    if let Some(r) = registry {
        options = options.registry(Arc::clone(r));
    }
    if let Some(t) = telemetry {
        options = options.telemetry(Arc::clone(t));
    }
    Corpus::open(options).map_err(|e| format!("opening corpus {}: {e}", dir.display()))
}

/// Everything one timed section (several passes) measured.
#[derive(Debug, Default)]
pub struct Section {
    /// Time inside timed calls: corpus opens plus campaign calls
    /// (direct paths) or service lifetimes (daemon path).
    pub timed_ns: u64,
    pub passes: u64,
    /// Run slots given a verdict over timed seconds, one per pass.
    pub pass_rates: Vec<Ratio>,
    pub campaigns: u64,
    pub failed: u64,
    /// Run slots of campaigns that got a verdict.
    pub slots: u64,
    pub latency_ms: Vec<f64>,
    /// Attribution windows, kept only while tracing: one per campaign
    /// (direct paths) or per batch (daemon path).
    pub windows: Vec<(u64, u64)>,
    /// Root spans, kept only while tracing: the checker calls, or the
    /// service's worker lanes.
    pub roots: Vec<(u64, u64)>,
    pub open_ms: Vec<f64>,
    pub checkpoints: u64,
    pub stores: u64,
    pub quarantined: u64,
    pub memo_hits: u64,
    pub memo_misses: u64,
    pub claim_waits: u64,
    pub claim_wait_ns: u64,
    pub acquire_ns: u64,
    pub segments: u64,
    pub live_bytes: u64,
    pub live_records: u64,
    pub dwell: Option<HistogramSnapshot>,
    pub shed: u64,
    pub lane_ns: u64,
    /// Runs the decorator saw computed, or (daemon path) the distinct
    /// runs the references say each pass computes.
    pub computed: [u64; 4],
    pub mismatches: Vec<String>,
}

impl Section {
    fn fail(&mut self, what: String) {
        self.failed += 1;
        self.note(what);
    }

    fn note(&mut self, what: String) {
        if self.mismatches.len() < 8 {
            self.mismatches.push(what);
        }
    }

    fn corpus_done(&mut self, corpus: &Corpus, registry: &Registry) {
        self.stores += corpus.stores();
        self.quarantined += corpus.quarantined();
        let cache = corpus.cache_stats();
        self.claim_waits += cache.waits;
        self.claim_wait_ns += cache.wait_ns;
        self.memo_hits += registry.counter("corpus.cache.memo_hits").get();
        self.memo_misses += registry.counter("corpus.cache.memo_misses").get();
        if let Some(log) = corpus.log_stats() {
            self.segments = log.segments;
            self.live_bytes = log.live_bytes;
            self.live_records = log.live_records;
        }
    }
}

/// One pass over the workload's campaigns, appending to `sec`.
pub fn pass(setup: &Setup, work: &Path, sec: &mut Section) -> Result<(), String> {
    let (slots, timed) = (sec.slots, sec.timed_ns);
    match setup.workload {
        Workload::Cold | Workload::Warm => direct_pass(setup, work, sec)?,
        Workload::Daemon => daemon_pass(setup, work, sec)?,
    }
    sec.pass_rates.push(Ratio::new(
        (sec.slots - slots) as f64,
        (sec.timed_ns - timed) as f64 / 1e9,
    ));
    Ok(())
}

fn direct_pass(setup: &Setup, work: &Path, sec: &mut Section) -> Result<(), String> {
    let (dir, fresh) = match &setup.corpus_dir {
        Some(dir) => (dir.clone(), false),
        None => (work.join(format!("pass-{}", sec.passes)), true),
    };
    let registry = Arc::new(Registry::new());
    let start = trace::now();
    let corpus = Arc::new(open(&dir, Some(&registry), None)?);
    let opened = trace::now() - start;
    sec.timed_ns += opened;
    let computed = Arc::new(Computed::default());
    let cache: Arc<dyn RunCache> =
        Arc::new(TimedCache::new(Arc::clone(&corpus), Arc::clone(&computed)));
    // Quarantines charged so far; one found while opening or building the
    // index is charged to the first campaign.
    let mut quarantined = 0;
    for p in &setup.campaigns {
        let reg = Arc::new(Registry::new());
        let cfg = CheckerConfig::from_spec(&p.spec)
            .with_registry(Arc::clone(&reg))
            .with_run_cache(Arc::clone(&cache), p.spec.workload.clone());
        let checker = Checker::new(cfg).map_err(|e| e.to_string())?;
        let source = &p.source;
        let t0 = trace::now();
        let result = checker.collect_runs(&|| source());
        let t1 = trace::now();
        sec.timed_ns += t1 - t0;
        if trace::tracing() {
            sec.windows.push((t0, t1));
            sec.roots.push((t0, t1));
        }
        sec.latency_ms.push((t1 - t0) as f64 / 1e6);
        sec.campaigns += 1;
        let got = counters(&reg);
        sec.checkpoints += got[2];
        let id = &p.campaign.id;
        let q = corpus.quarantined();
        let verdict = match result {
            Ok(runs) if runs.len() == p.spec.runs => {
                if render_runs(id, &p.spec, &runs) != p.reference {
                    Err(format!("{id}: report differs from its reference"))
                } else if got != p.expected {
                    Err(format!(
                        "{id}: counters {got:?}, reference {:?}",
                        p.expected
                    ))
                } else if q > quarantined {
                    Err(format!(
                        "{id}: {} corpus records quarantined",
                        q - quarantined
                    ))
                } else {
                    Ok(runs.len() as u64)
                }
            }
            Ok(runs) => Err(format!("{id}: {} of {} runs", runs.len(), p.spec.runs)),
            Err(e) => Err(format!("{id}: {e}")),
        };
        quarantined = q;
        match verdict {
            Ok(slots) => sec.slots += slots,
            Err(what) => sec.fail(what),
        }
    }
    // The index is built lazily on the first lookup: part of opening.
    let index_ns = corpus.log_stats().map_or(0, |l| l.open_ns);
    sec.open_ms.push((opened + index_ns) as f64 / 1e6);
    sec.corpus_done(&corpus, &registry);
    for (s, c) in sec.computed.iter_mut().zip(computed.get()) {
        *s += c;
    }
    drop(cache);
    drop(corpus);
    if fresh {
        remove_dir(&dir)?;
    }
    sec.passes += 1;
    Ok(())
}

fn daemon_pass(setup: &Setup, work: &Path, sec: &mut Section) -> Result<(), String> {
    let dir = work.join(format!("pass-{}", sec.passes));
    let registry = Arc::new(Registry::new());
    // Bound first, so the corpus's acquire/wait histograms land here for
    // the whole pass rather than in the first batch's service.
    let telemetry = Arc::new(Telemetry::new());
    let start = trace::now();
    let corpus = Arc::new(open(&dir, Some(&registry), Some(&telemetry))?);
    let opened = trace::now() - start;
    sec.timed_ns += opened;
    let resolver = setup
        .resolver
        .clone()
        .expect("daemon set-up builds a resolver");
    let config = OrchestratorConfig {
        width: WORKERS,
        job_budget: 1,
        ..OrchestratorConfig::default()
    };
    // Quarantines charged so far, as on the direct path.
    let mut quarantined = 0;
    for batch in &setup.batches {
        let w0 = trace::now();
        let svc = Service::new(Orchestrator::new(
            config.clone(),
            Arc::clone(&resolver),
            Some(Arc::clone(&corpus)),
        ));
        let (a, b, c) = (trace::now(), svc.telemetry().now_ns(), trace::now());
        // Service telemetry clock → benchmark clock.
        let offset = (a / 2 + c / 2) as i64 - b as i64;
        let mut submitted = Vec::with_capacity(batch.len());
        for p in batch {
            let t0 = trace::now();
            let (_, disposition) = svc.submit(
                Submission::new(p.campaign.id.clone(), p.spec.clone()).with_tenant(p.tenant),
            );
            let t1 = trace::now();
            trace::record_if_tracing(Kind::Submit, t0, t1);
            if let Disposition::Shed(reason) = disposition {
                sec.shed += 1;
                sec.fail(format!("{}: shed ({})", p.campaign.id, reason.label()));
            }
            submitted.push(t0);
        }
        let results = svc.drain();
        let w1 = trace::now();
        sec.timed_ns += w1 - w0;
        if trace::tracing() {
            sec.windows.push((w0, w1));
        }
        let snap = svc.telemetry().snapshot();
        for lane in snap
            .lanes
            .iter()
            .filter(|l| l.lane.starts_with("icd.w") && l.name == "campaign")
        {
            let s = (lane.start_ns as i64 + offset).max(0) as u64;
            let e = (lane.end_ns as i64 + offset).max(0) as u64;
            if trace::tracing() {
                sec.roots.push((s, e));
            }
            sec.lane_ns += e.saturating_sub(s);
        }
        if let Some(h) = snap.histograms.get(QUEUE_DWELL_HISTOGRAM) {
            sec.dwell = Some(match sec.dwell.take() {
                None => h.clone(),
                Some(acc) => merge(&acc, h),
            });
        }
        let got = counters(svc.registry());
        sec.checkpoints += got[2];
        let q = corpus.quarantined();
        let mut expected = [0; 3];
        let (mut ok, mut ok_slots) = (0, 0);
        for (p, t0) in batch.iter().zip(&submitted) {
            sec.campaigns += 1;
            sec.latency_ms.push((w1 - t0) as f64 / 1e6);
            add(&mut expected, &p.expected);
            let id = &p.campaign.id;
            match results.iter().find(|r| &r.id == id) {
                Some(r) if r.status == CampaignStatus::Completed => {
                    if r.report_json.as_deref() == Some(p.reference.as_str()) {
                        ok += 1;
                        ok_slots += p.campaign.runs as u64;
                    } else {
                        sec.fail(format!("{id}: report differs from its reference"));
                    }
                }
                // Already counted at submission.
                Some(r) if r.status == CampaignStatus::Shed => {}
                Some(r) => sec.fail(format!(
                    "{id}: {} {}",
                    r.status.label(),
                    r.error.as_deref().unwrap_or("")
                )),
                None => sec.fail(format!("{id}: no result")),
            }
        }
        // The registry is per batch, and the service does not say which
        // campaign met a quarantined record: a counter mismatch or a
        // quarantine fails every campaign of the batch not already failed.
        if got != expected {
            sec.failed += ok;
            sec.note(format!("batch counters {got:?}, reference {expected:?}"));
        } else if q > quarantined {
            sec.failed += ok;
            sec.note(format!(
                "batch: {} corpus records quarantined",
                q - quarantined
            ));
        } else {
            sec.slots += ok_slots;
        }
        quarantined = q;
    }
    sec.open_ms
        .push((opened + corpus.log_stats().map_or(0, |l| l.open_ns)) as f64 / 1e6);
    sec.acquire_ns += telemetry
        .snapshot()
        .histograms
        .get(corpus::CACHE_ACQUIRE_HISTOGRAM)
        .map_or(0, |h| h.sum);
    sec.corpus_done(&corpus, &registry);
    for (s, d) in sec.computed.iter_mut().zip(setup.distinct) {
        *s += d;
    }
    drop(corpus);
    remove_dir(&dir)?;
    sec.passes += 1;
    Ok(())
}

fn merge(a: &HistogramSnapshot, b: &HistogramSnapshot) -> HistogramSnapshot {
    let n = a.buckets.len().max(b.buckets.len());
    let at = |v: &[u64], i: usize| v.get(i).copied().unwrap_or(0);
    HistogramSnapshot {
        count: a.count + b.count,
        sum: a.sum + b.sum,
        buckets: (0..n)
            .map(|i| at(&a.buckets, i) + at(&b.buckets, i))
            .collect(),
    }
}
