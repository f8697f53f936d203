//! Setup images: a campaign executes its program's setup phase once and
//! starts every later computed run from a copy of the post-setup machine
//! state. Nothing a run reports may change because of it.
//!
//! The checker-path digests below fold whole campaigns —
//! [`Checker::collect_outcomes`] plus every computed run's steps, native
//! and zero-fill instructions and allocation log — at one and two
//! workers, cold and with a cache pre-seeded so that the first computed
//! attempt replays a log. They were recorded before setup images
//! existed, when every run executed its own setup.

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use adhash::FpRound;
use instantcheck::{
    CacheLease, CachedRun, CheckMonitor, Checker, CheckerConfig, DetClass, FailurePolicy,
    IgnoreSpec, RunCache, RunKey, Scheme,
};
use instantcheck_workloads::AppSpec;
use tsim::{
    Addr, AllocLog, BlockInfo, FaultKind, FaultPlan, FaultRecord, HashSpec, Monitor, NullMonitor,
    Program, RunConfig, RunOutcome, SetupImage, SimError, ThreadId, Trigger,
};

mod common;

struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    fn text(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.bytes(s.as_bytes());
    }
}

/// An in-memory run cache that also keeps every run the checker stores,
/// which is how a test sees a computed run's accounting and log. It
/// grants no claims: the checker computes every miss itself.
#[derive(Debug, Default)]
struct Recorder {
    runs: Mutex<HashMap<String, Arc<CachedRun>>>,
    stored: Mutex<Vec<(String, Arc<CachedRun>)>>,
}

/// The key's fields as `label=value;`, in label order — the form the
/// digests below fold.
fn canonical(key: &RunKey) -> String {
    key.with_tokens(|fields| {
        let mut fields = fields.to_vec();
        fields.sort_by_key(|(label, _)| *label);
        fields
            .iter()
            .map(|(label, value)| format!("{label}={value};"))
            .collect()
    })
}

impl RunCache for Recorder {
    fn begin(&self, key: &RunKey) -> CacheLease {
        match self.runs.lock().unwrap().get(&canonical(key)) {
            Some(run) => CacheLease::Hit(Arc::clone(run)),
            None => CacheLease::Compute { claimed: false },
        }
    }

    fn store(&self, key: &RunKey, run: &Arc<CachedRun>) {
        let key = canonical(key);
        self.stored
            .lock()
            .unwrap()
            .push((key.clone(), Arc::clone(run)));
        self.runs.lock().unwrap().insert(key, Arc::clone(run));
    }

    fn abandon(&self, _key: &RunKey) {}
}

impl Recorder {
    /// Folds the stored runs in key order (workers store in any order).
    fn fold_into(&self, h: &mut Fnv) {
        let mut stored = self.stored.lock().unwrap().clone();
        stored.sort_by(|a, b| a.0.cmp(&b.0));
        h.u64(stored.len() as u64);
        for (key, run) in stored {
            h.text(&key);
            h.u64(run.steps);
            h.u64(run.native_instr);
            h.u64(run.zero_fill_instr);
            match &run.alloc_log {
                Some(log) => {
                    let entries = log.entries();
                    h.u64(entries.len() as u64);
                    for ((tid, seq), base) in entries {
                        h.u64(tid as u64);
                        h.u64(seq);
                        h.u64(base);
                    }
                }
                None => h.u64(u64::MAX),
            }
        }
    }
}

/// The rounding a campaign over `app` configures for its class.
fn class_rounding(app: &AppSpec) -> Option<FpRound> {
    match app.expected_class {
        DetClass::FpRounded => Some(FpRound::default()),
        DetClass::IgnoringStructs if app.uses_fp => Some(FpRound::default()),
        _ => None,
    }
}

/// One checker campaign over `app`, folded into `h`: outcomes first,
/// then the runs the campaign stored. With `preseed`, a one-run
/// campaign first stores slot 0, so slot 0 replays from the cache and
/// slot 1, the first computed attempt, replays slot 0's allocation log.
fn fold_campaign(h: &mut Fnv, app: &AppSpec, cfg: CheckerConfig, jobs: usize, preseed: bool) {
    let cache = Arc::new(Recorder::default());
    let cfg = cfg.with_run_cache(cache.clone(), app.name);
    let source = || app.build();
    if preseed {
        let first = cfg.clone().with_runs(1).with_jobs(1);
        Checker::new(first)
            .expect("valid config")
            .collect_outcomes(&source)
            .expect("the seeding run completes");
        cache.stored.lock().unwrap().clear();
    }
    let outcomes = Checker::new(cfg.with_jobs(jobs))
        .expect("valid config")
        .collect_outcomes(&source);
    if preseed {
        // Only a run that logged its own addresses stores its log.
        let stored = cache.stored.lock().unwrap();
        assert!(
            stored.iter().all(|(_, run)| run.alloc_log.is_none()),
            "{}: every computed run must replay slot 0's log",
            app.name
        );
    }
    h.text(&format!("{outcomes:?}"));
    cache.fold_into(h);
}

/// The campaign columns: the four schemes, then HwInc with the L1 model.
fn campaign_configs(app: &AppSpec) -> [CheckerConfig; 5] {
    let base = |scheme| {
        let mut cfg = CheckerConfig::new(scheme)
            .with_runs(4)
            .with_base_seed(11)
            .with_ignore(app.ignore.clone());
        if let Some(r) = class_rounding(app) {
            cfg = cfg.with_rounding(r);
        }
        cfg
    };
    [
        base(Scheme::HwInc),
        base(Scheme::SwInc),
        base(Scheme::SwTr),
        base(Scheme::Native),
        base(Scheme::HwInc).with_cache_model(),
    ]
}

fn checker_digests(app: &AppSpec) -> [u64; 5] {
    campaign_configs(app).map(|cfg| {
        let mut h = Fnv::new();
        for jobs in [1, 2] {
            for preseed in [false, true] {
                fold_campaign(&mut h, app, cfg.clone(), jobs, preseed);
            }
        }
        h.0
    })
}

/// `(kernel, [HwInc, SwInc, SwTr, Native, HwInc + L1 model])` digests
/// over the 17 scaled kernels and the 3 scaled seeded bugs.
#[rustfmt::skip]
const CHECKER_GOLDEN: [(&str, [u64; 5]); 20] = [
    ("blackscholes", [0x28787fd5049dfb63, 0x9cbc5500b77e40d5, 0xbb339086fbc0da61, 0xd071ffd9d2444655, 0xc0d7a44dc53fbf41]),
    ("fft", [0xe58bac323ee5a00d, 0x7540a614c72d6f95, 0xe5fe4656a4def271, 0x7822a075cb6a657b, 0xdfb7771e63c99ad1]),
    ("lu", [0xe0f67f4c2b6060b7, 0x2d7758d072301bbd, 0xee438048b1783951, 0x5387ea659295d545, 0x55eb881e85852259]),
    ("radix", [0x4176995e367d86e5, 0xe786e7ce3c7b3e9d, 0xbbfd0368ab943b8f, 0xf764de786fb236d5, 0x93f573c75db57ec5]),
    ("streamcluster", [0x00c976650bb9a11d, 0xb8f2931d6097fc1d, 0x995aae726f1a2a93, 0xe86e89f7fc55b971, 0x94068d72b7ac97b5]),
    ("swaptions", [0x644cf2ee925ba3d1, 0xbe2ac64062d596c5, 0xce7091431962b023, 0xee540053b7f37fb5, 0x2466ccfee40e5f75]),
    ("volrend", [0x4e0e6917da6f7915, 0xf026bc313c84bb0d, 0xdfcbab0a484d0b69, 0xbc74487bd9e3d49b, 0x0191ed3997a1d9c5]),
    ("fluidanimate", [0xda3c06e1b46f7919, 0x1e3866ebd09be551, 0x0dd27b318a5f537d, 0x27b77f3158f7d77f, 0x4198b7eda2b939a1]),
    ("ocean", [0x97ef19e4079f9215, 0x00520e63eba49617, 0x9669705f582d8e69, 0x27996c90044ed491, 0x1b03c103575dc8c3]),
    ("waterNS", [0x0c74fc8e0f33ee97, 0x28a85eef0c8ffc15, 0x3fc87ece3ebfc8ed, 0xa90fd82d059b5045, 0x1fe0a5678a94bf45]),
    ("waterSP", [0xfce27325f81eeca3, 0x74afe5c205a05705, 0x3f33b458884caac1, 0xe9a044d372e0f8c9, 0x91d44446bd8d4e5d]),
    ("cholesky", [0xcaaf1bd9ddb1477d, 0x1fa58dc8c255359d, 0x162a9356225c22e7, 0x81f8420faf08d3c5, 0x885cec8b8cbfcbf1]),
    ("pbzip2", [0x3eebb687322f2179, 0x4a72e60557f2d49b, 0xa4652452103c8865, 0x399a990a7641ca31, 0x81e4b01eec70e69f]),
    ("sphinx3", [0xc4ef56c835cad827, 0xa97e38f4637dac45, 0xdb8a038e029165b5, 0x9d3318bad73531c5, 0xe17e6bb390653595]),
    ("barnes", [0xb1061d7893434a65, 0xcf70d352d8738707, 0xc1d661b48de1db15, 0x6c6754a877ece1cd, 0x52df0fd4e956b69f]),
    ("canneal", [0x754c25efb0470dd5, 0xc225c3f90c962615, 0x8b24fed12065027d, 0x6c58eaa46685d5c7, 0xe26c32a10ea22ef5]),
    ("radiosity", [0xc98ba65b0df2e97d, 0xe7c034ec90ca2bd5, 0x904839ae64e28505, 0x08018c284f065c6b, 0x396cb258335aaef1]),
    ("waterNS+semantic", [0x88a1291e133a6557, 0xc6fabe48a1ca8861, 0x87ceafc87f3df809, 0x875bddd48f6c96c5, 0x4a030860f8639045]),
    ("waterSP+atomicity", [0xdcc669c3b22ed4cd, 0x16d89954d36ecf95, 0x0f1e8ed30b3f51e3, 0x323d8efb202b5c45, 0x4dbf8fb52e8299fd]),
    ("radix+order-violation", [0x3c2f85bf318d50e1, 0x7cdbf5c52b115e5d, 0xe3fb7aa7103d16a5, 0xe96f70dbd277d5db, 0x336f6afc66a54ec1]),
];

#[test]
fn checker_campaigns_match_the_golden_digests() {
    let apps: Vec<AppSpec> = instantcheck_workloads::all_scaled()
        .into_iter()
        .chain(instantcheck_workloads::seeded_bugs_scaled())
        .collect();
    assert_eq!(apps.len(), CHECKER_GOLDEN.len());
    let mut table = String::new();
    let mut bad = Vec::new();
    for (i, (app, (name, want))) in apps.iter().zip(CHECKER_GOLDEN).enumerate() {
        assert_eq!(app.name, name, "kernel order changed");
        let got = checker_digests(app);
        table.push_str(&format!("    (\"{name}\", ["));
        for (c, d) in got.iter().enumerate() {
            let sep = if c == 0 { "" } else { ", " };
            table.push_str(&format!("{sep}{d:#018x}"));
        }
        table.push_str("]),\n");
        if got != want {
            bad.push(format!("{i}:{name}"));
        }
    }
    assert!(
        bad.is_empty(),
        "checker digests changed for {bad:?}; computed table:\n{table}"
    );
}

/// Digest of [`retry_campaign`] at one and two workers.
const RETRY_GOLDEN: u64 = 0x71ce0dd1f0a1820b;

/// A `Retry` campaign whose slot 0 runs under a fault
/// plan that fails its first attempts (dropped wakeups deadlock some
/// schedules), so the campaign's first computed attempt fails and a
/// reseeded retry completes the slot.
fn retry_campaign(jobs: usize) -> u64 {
    let app = instantcheck_workloads::by_name("canneal", true).expect("canneal is registered");
    let plan = FaultPlan::new(3).with(FaultKind::WakeDrop, Trigger::Rate { num: 1, denom: 3 });
    let cfg = CheckerConfig::new(Scheme::HwInc)
        .with_runs(4)
        .with_policy(FailurePolicy::Retry { max_retries: 4 })
        .with_fault_in_run(0, plan);
    let cache = Arc::new(Recorder::default());
    let cfg = cfg.with_run_cache(cache.clone(), "canneal").with_jobs(jobs);
    let outcomes = Checker::new(cfg)
        .expect("valid config")
        .collect_outcomes(&|| app.build())
        .expect("the retries recover slot 0");
    let failed = outcomes.iter().filter(|o| o.failure().is_some()).count();
    assert!(failed > 0, "slot 0's first attempt must fail");
    let mut h = Fnv::new();
    h.text(&format!("{outcomes:?}"));
    cache.fold_into(&mut h);
    h.0
}

#[test]
fn a_reseeded_retry_campaign_matches_its_golden_digest() {
    let got = [1, 2].map(retry_campaign);
    assert_eq!(got[0], got[1], "worker count changed the campaign");
    assert_eq!(
        got[0], RETRY_GOLDEN,
        "retry digest changed: {:#018x}",
        got[0]
    );
}

// ---- run_from ≡ run_with ---------------------------------------------

/// Everything a [`tsim::RunOutcome`] exposes, with the monitor's result
/// rendered by the caller.
#[derive(Debug, PartialEq)]
struct Seen {
    decisions: Vec<u32>,
    steps: u64,
    instr: Vec<u64>,
    zero_fill_instr: u64,
    output: Vec<u8>,
    checkpoints: u64,
    checkpoint_decision_index: Vec<usize>,
    monitor: String,
    alloc_log: Vec<((usize, u64), u64)>,
    replay_misses: u64,
    faults: Vec<FaultRecord>,
    final_state: Vec<(Addr, Vec<u64>)>,
    alloc_epoch: u64,
}

fn seen<M>(
    out: Result<RunOutcome<M>, SimError>,
    monitor: impl FnOnce(M) -> String,
) -> Result<Seen, SimError> {
    let out = out?;
    let view = out.final_state();
    let final_state = view
        .live_regions()
        .map(|(base, words, _)| (base, words.to_vec()))
        .collect();
    let alloc_epoch = view.alloc_epoch();
    Ok(Seen {
        decisions: out.decisions.clone(),
        steps: out.steps,
        instr: out.instr.clone(),
        zero_fill_instr: out.zero_fill_instr,
        output: out.output.clone(),
        checkpoints: out.checkpoints,
        checkpoint_decision_index: out.checkpoint_decision_index.clone(),
        alloc_log: out.alloc_log.entries(),
        replay_misses: out.replay_misses,
        faults: out.faults.clone(),
        final_state,
        alloc_epoch,
        monitor: monitor(out.monitor),
    })
}

fn hashes(m: CheckMonitor) -> String {
    format!("{:?}", m.into_hashes())
}

const IMAGE_SCHEMES: [Scheme; 4] = [Scheme::HwInc, Scheme::SwInc, Scheme::SwTr, Scheme::Native];
const IMAGE_SEEDS: [u64; 3] = [3, 11, 1234];

fn roundings(app_rounding: Option<FpRound>) -> [Option<FpRound>; 3] {
    [
        app_rounding,
        Some(FpRound::FloorDecimal { digits: 2 }),
        Some(FpRound::MaskMantissa { bits: 20 }),
    ]
}

/// A run config as a checker campaign builds it: zero fill charged when
/// the scheme checks, the first seed's log replayed when `replay` is
/// given, and a bit-flip plan on the last seed (the setup phase never
/// consults it, so the image still fits).
fn run_config(scheme: Scheme, seed: u64, replay: Option<&Arc<AllocLog>>) -> RunConfig {
    let mut rc = RunConfig::random(seed);
    if scheme.is_checking() {
        rc = rc.with_zero_fill_charged();
    }
    if let Some(log) = replay {
        rc = rc.with_alloc_replay(Arc::clone(log));
    }
    if seed == IMAGE_SEEDS[2] {
        let plan =
            FaultPlan::new(seed).with(FaultKind::BitFlip, Trigger::Rate { num: 1, denom: 400 });
        rc = rc.with_faults(plan);
    }
    rc
}

/// For every scheme, rounding, seed, natural and replayed: `run_from`
/// an image built by the first natural run equals `run_with`.
fn assert_image_runs_equal(
    name: &str,
    build: &dyn Fn() -> Program,
    ignore: &IgnoreSpec,
    rounding: Option<FpRound>,
) {
    for scheme in IMAGE_SCHEMES {
        for rounding in roundings(rounding) {
            let monitor = || CheckMonitor::new(scheme, rounding, ignore.clone());
            let spec = monitor().hash_spec();
            // The first natural run builds the image, as a campaign's
            // first computed attempt does, and records the log the
            // replayed runs use.
            let first = run_config(scheme, IMAGE_SEEDS[0], None);
            let mut prog = build();
            let image = prog
                .setup_image(&first, spec)
                .expect("a natural setup never misses");
            let out = prog
                .run_from(&image, &first, monitor())
                .expect("the first run completes");
            let log = Arc::clone(&out.alloc_log);
            let want = seen(build().run_with(&first, monitor()), hashes);
            assert_eq!(
                seen(Ok(out), hashes),
                want,
                "{name} {scheme:?} {rounding:?} first run"
            );
            for seed in IMAGE_SEEDS {
                for replay in [None, Some(&log)] {
                    let rc = run_config(scheme, seed, replay);
                    let want = seen(build().run_with(&rc, monitor()), hashes);
                    let got = seen(build().run_from(&image, &rc, monitor()), hashes);
                    assert_eq!(
                        got,
                        want,
                        "{name} {scheme:?} {rounding:?} seed {seed} replayed {}",
                        replay.is_some()
                    );
                }
            }
        }
    }
}

#[test]
fn every_scaled_kernel_runs_identically_from_an_image() {
    for app in instantcheck_workloads::all_scaled() {
        let build = || app.build();
        assert_image_runs_equal(app.name, &build, &app.ignore, class_rounding(&app));
    }
}

fn reuse_ignore() -> IgnoreSpec {
    IgnoreSpec::new()
        .ignore_site("junk")
        .ignore_global_range("noise", 1, 3)
        .ignore_site_offsets("rec", [1])
}

#[test]
fn the_reuse_program_runs_identically_from_an_image() {
    assert_image_runs_equal("reuse", &common::reuse_program, &reuse_ignore(), None);
}

/// The reuse program under HwInc with its setup executions counted:
/// returns (an image built naturally at seed 1 with zero fill charged,
/// the counter, the natural run's allocation log).
fn counted_image(rounding: Option<FpRound>) -> (SetupImage, Arc<AtomicUsize>, Arc<AllocLog>) {
    let setups = Arc::new(AtomicUsize::new(0));
    let rc = RunConfig::random(1).with_zero_fill_charged();
    let monitor = CheckMonitor::new(Scheme::HwInc, rounding, reuse_ignore());
    let spec = monitor.hash_spec();
    let mut prog = common::reuse_program_counting(Some(Arc::clone(&setups)));
    let image = prog.setup_image(&rc, spec).unwrap();
    let log = prog.run_from(&image, &rc, monitor).unwrap().alloc_log;
    assert_eq!(setups.load(Ordering::Relaxed), 1);
    (image, setups, log)
}

/// Runs the counted reuse program from `image` and with its own setup
/// under `rc` and `monitor`, asserts the outcomes equal, and returns how
/// many setup phases the `run_from` side executed.
fn setups_executed<M: Monitor + 'static>(
    image: &SetupImage,
    setups: &Arc<AtomicUsize>,
    rc: &RunConfig,
    monitor: impl Fn() -> M,
    render: impl Fn(M) -> String,
) -> usize {
    let want = seen(common::reuse_program().run_with(rc, monitor()), &render);
    let before = setups.load(Ordering::Relaxed);
    let prog = common::reuse_program_counting(Some(Arc::clone(setups)));
    let got = seen(prog.run_from(image, rc, monitor()), &render);
    assert_eq!(got, want);
    setups.load(Ordering::Relaxed) - before
}

#[test]
fn a_fitting_image_replaces_the_setup_phase() {
    let (image, setups, log) = counted_image(None);
    let monitor = || CheckMonitor::new(Scheme::HwInc, None, reuse_ignore());
    for rc in [
        RunConfig::random(5).with_zero_fill_charged(),
        RunConfig::random(6)
            .with_zero_fill_charged()
            .with_alloc_replay(log),
    ] {
        assert_eq!(setups_executed(&image, &setups, &rc, monitor, hashes), 0);
    }
}

#[test]
fn an_image_that_does_not_fit_runs_its_own_setup() {
    let (image, setups, log) = counted_image(None);
    let charged = RunConfig::random(5).with_zero_fill_charged();
    // Another rounding asks for another hash spec.
    for rounding in [
        Some(FpRound::default()),
        Some(FpRound::MaskMantissa { bits: 20 }),
    ] {
        let monitor = || CheckMonitor::new(Scheme::HwInc, rounding, reuse_ignore());
        assert_eq!(
            setups_executed(&image, &setups, &charged, monitor, hashes),
            1
        );
    }
    // Another zero-fill accounting.
    let monitor = || CheckMonitor::new(Scheme::HwInc, None, reuse_ignore());
    let uncharged = RunConfig::random(5);
    assert_eq!(
        setups_executed(&image, &setups, &uncharged, monitor, hashes),
        1
    );
    // A replay log with the setup block moved.
    let mut moved = AllocLog::default();
    for ((tid, seq), base) in log.entries() {
        let base = if (tid, seq) == (0, 0) {
            base + 1024
        } else {
            base
        };
        moved.insert(tid, seq, base);
    }
    let rc = charged.clone().with_alloc_replay(Arc::new(moved));
    assert_eq!(setups_executed(&image, &setups, &rc, monitor, hashes), 1);
    // Built under that log, an image is off the bump sequence, so it
    // fits the log's runs but no natural run.
    let mut prog = common::reuse_program_counting(Some(Arc::clone(&setups)));
    let moved_image = prog.setup_image(&rc, monitor().hash_spec()).unwrap();
    assert_eq!(
        setups_executed(&moved_image, &setups, &rc, monitor, hashes),
        0
    );
    assert_eq!(
        setups_executed(&moved_image, &setups, &charged, monitor, hashes),
        1
    );
    // A monitor that asks for accesses (the L1 model) sees every setup
    // store.
    let observing = || CheckMonitor::new(Scheme::HwInc, None, reuse_ignore()).with_cache_model();
    assert_eq!(
        setups_executed(&image, &setups, &charged, observing, hashes),
        1
    );
}

#[test]
fn a_moved_setup_address_falls_back_on_every_kernel() {
    for app in instantcheck_workloads::all_scaled() {
        let monitor = || CheckMonitor::new(Scheme::HwInc, None, app.ignore.clone());
        let rc = RunConfig::random(1).with_zero_fill_charged();
        let mut prog = app.build();
        let image = prog.setup_image(&rc, monitor().hash_spec()).unwrap();
        let log = prog.run_from(&image, &rc, monitor()).unwrap().alloc_log;
        if log.lookup(0, 0).is_none() {
            continue;
        }
        // Thread 0's first allocation is the setup phase's first block.
        let mut moved = AllocLog::default();
        for ((tid, seq), base) in log.entries() {
            let base = if (tid, seq) == (0, 0) { base + 1 } else { base };
            moved.insert(tid, seq, base);
        }
        let rc = RunConfig::random(2)
            .with_zero_fill_charged()
            .with_alloc_replay(Arc::new(moved));
        let want = seen(app.build().run_with(&rc, monitor()), hashes);
        let got = seen(app.build().run_from(&image, &rc, monitor()), hashes);
        assert_eq!(got, want, "{}", app.name);
    }
}

/// A hashing monitor that records every allocation callback.
struct AllocRecorder(Vec<String>);

impl Monitor for AllocRecorder {
    fn on_alloc(&mut self, tid: ThreadId, block: &BlockInfo) {
        self.0.push(format!("{tid} {block:?}"));
    }
    fn hash_spec(&self) -> HashSpec {
        HashSpec {
            hashing: true,
            ..HashSpec::default()
        }
    }
}

#[test]
fn a_recording_monitor_sees_the_same_allocations() {
    type Build = Box<dyn Fn() -> Program>;
    let mut builds: Vec<(&str, Build)> = vec![("reuse", Box::new(common::reuse_program))];
    for app in instantcheck_workloads::all_scaled() {
        builds.push((app.name, Box::new(move || app.build())));
    }
    for (name, build) in &builds {
        let rc = RunConfig::random(9);
        let spec = AllocRecorder(Vec::new()).hash_spec();
        let mut prog = build();
        let image = prog.setup_image(&rc, spec).unwrap();
        for prog in [prog, build()] {
            let want = seen(build().run_with(&rc, AllocRecorder(Vec::new())), |m| {
                m.0.join("\n")
            });
            let got = seen(prog.run_from(&image, &rc, AllocRecorder(Vec::new())), |m| {
                m.0.join("\n")
            });
            assert_eq!(got, want, "{name}");
        }
    }
}

#[test]
fn a_setup_replay_miss_keeps_the_state_in_the_program() {
    let monitor = || CheckMonitor::new(Scheme::SwInc, None, reuse_ignore());
    // A log without the setup block's key: the setup allocation misses,
    // the threads' allocations replay.
    let natural = common::reuse_program()
        .run(&RunConfig::random(4))
        .unwrap()
        .alloc_log;
    let mut log = AllocLog::default();
    for ((tid, seq), base) in natural.entries() {
        if (tid, seq) != (0, 0) {
            log.insert(tid, seq, base);
        }
    }
    let rc = RunConfig::random(4).with_alloc_replay(Arc::new(log));
    let setups = Arc::new(AtomicUsize::new(0));
    let mut prog = common::reuse_program_counting(Some(Arc::clone(&setups)));
    assert!(prog.setup_image(&rc, monitor().hash_spec()).is_none());
    let want = seen(common::reuse_program().run_with(&rc, monitor()), hashes);
    let got = seen(prog.run_with(&rc, monitor()), hashes);
    assert_eq!(got, want);
    assert_eq!(got.as_ref().unwrap().replay_misses, 1);
    assert_eq!(setups.load(Ordering::Relaxed), 1);
}

#[test]
#[should_panic(expected = "setup_image took this program's setup phase")]
fn a_taken_setup_phase_cannot_run_without_its_image() {
    let mut prog = common::reuse_program();
    let rc = RunConfig::random(1);
    let _ = prog.setup_image(&rc, HashSpec::default());
    let _ = prog.run_with(&rc, NullMonitor);
}

#[test]
#[should_panic(expected = "an image cannot replay the setup phase's access callbacks")]
fn no_image_is_built_for_a_spec_that_asks_for_accesses() {
    let monitor = CheckMonitor::new(Scheme::HwInc, None, reuse_ignore()).with_cache_model();
    let _ = common::reuse_program().setup_image(&RunConfig::random(1), monitor.hash_spec());
}
