//! Metrics: end-to-end figures from an untraced section, per-layer
//! figures from a traced one, and the JSON they are printed as.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

use instantcheck::CheckMonitor;
use tsim::RunConfig;

use crate::stats::{self, percentile, percentile_or_zero, Ratio, Refused};
use crate::trace::{self, Layer, Span, LAYERS};
use crate::workloads::{Section, Setup, Workload, WORKERS};

/// One reported figure. A ratio keeps its base.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Value {
    Plain(f64, &'static str),
    Ratio(Ratio, &'static str),
}

impl Value {
    pub fn value(&self) -> f64 {
        match self {
            Value::Plain(v, _) => *v,
            Value::Ratio(r, _) => r.value(),
        }
    }

    pub fn unit(&self) -> &'static str {
        match self {
            Value::Plain(_, u) | Value::Ratio(_, u) => u,
        }
    }
}

/// Metrics by name, plus the sample count behind each percentile.
#[derive(Debug, Default)]
pub struct Metrics {
    pub values: BTreeMap<&'static str, Value>,
    pub samples: BTreeMap<&'static str, usize>,
    /// Metrics the public hooks cannot observe on this workload; they
    /// read 0.
    pub unobservable: Vec<&'static str>,
    /// Metrics taken from the references' counts rather than measured:
    /// they cannot move when the program computes runs differently.
    pub reference_derived: Vec<&'static str>,
}

impl Metrics {
    fn put(&mut self, name: &'static str, v: f64, unit: &'static str) {
        self.values.insert(name, Value::Plain(v, unit));
    }

    /// A dimensionless ratio.
    fn ratio(&mut self, name: &'static str, num: f64, den: f64) {
        self.quotient(name, num, den, "ratio");
    }

    /// A quotient with a unit (a rate, a mean size).
    fn quotient(&mut self, name: &'static str, num: f64, den: f64, unit: &'static str) {
        self.values
            .insert(name, Value::Ratio(Ratio::new(num, den), unit));
    }

    /// The `p` percentile of `samples` scaled by `scale`, noting the
    /// sample count. An empty set reads 0; a set too small is refused.
    fn pct(
        &mut self,
        name: &'static str,
        samples: &[f64],
        p: f64,
        scale: f64,
        unit: &'static str,
    ) -> Result<(), String> {
        let sorted = stats::sorted(samples.to_vec());
        let v = percentile_or_zero(&sorted, p).map_err(refused(name))?;
        self.samples.insert(name, samples.len());
        self.put(name, v * scale, unit);
        Ok(())
    }

    fn unobservable(&mut self, name: &'static str, unit: &'static str) {
        self.put(name, 0.0, unit);
        self.unobservable.push(name);
    }
}

fn refused(name: &str) -> impl Fn(Refused) -> String + '_ {
    move |r| format!("{name}: {r}")
}

/// Run slots given a verdict per timed second: the rate of the
/// section's median pass (the lower middle one when the count is even),
/// so a pass stalled by something outside the program does not move
/// it. Its base is that pass's slots and timed seconds.
pub fn runs_per_s(sec: &Section) -> Ratio {
    let mut rates = sec.pass_rates.clone();
    rates.sort_by(|a, b| a.value().total_cmp(&b.value()));
    rates[(rates.len() - 1) / 2]
}

/// End-to-end metrics of an untraced section.
pub fn end_to_end(sec: &Section, setup_s: &[f64]) -> Result<Metrics, String> {
    let mut m = Metrics::default();
    m.put("setup_s", stats::median(setup_s), "s");
    m.samples.insert("setup_s", setup_s.len());
    m.values
        .insert("runs_per_s", Value::Ratio(runs_per_s(sec), "1/s"));
    m.samples.insert("runs_per_s", sec.pass_rates.len());
    let lat = stats::sorted(sec.latency_ms.clone());
    for (name, p) in [("campaign_ms_p50", 0.5), ("campaign_ms_p90", 0.9)] {
        m.put(name, percentile(&lat, p).map_err(refused(name))?, "ms");
        m.samples.insert(name, lat.len());
    }
    m.put("peak_rss_mb", peak_rss_mb(), "MB");
    Ok(m)
}

/// Peak resident set of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The sampled `adhash` cost: extra nanoseconds over hash updates.
#[derive(Debug, Clone, Copy)]
pub struct Adhash {
    pub per_update: Ratio,
    pub programs: usize,
}

/// `adhash` cost per hash update, from a sample of the workload's
/// programs and seeds: each is run with the checking monitor and with
/// hashing off (`Program::run`), best of three each, and the difference
/// is divided by the monitored run's hash updates.
pub fn adhash_ns_per_update(setup: &Setup) -> Result<Adhash, String> {
    let mut seen = std::collections::BTreeSet::new();
    let (mut extra_ns, mut updates) = (0.0, 0u64);
    for p in setup.all().filter(|p| p.campaign.scaled) {
        if !seen.insert((p.spec.workload.clone(), p.spec.scheme.name())) {
            continue;
        }
        let spec = &p.spec;
        let mut rc = RunConfig::random(spec.base_seed)
            .with_switch(spec.switch)
            .with_lib_seed(spec.lib_seed)
            .with_max_steps(spec.max_steps);
        if spec.scheme.is_checking() {
            rc = rc.with_zero_fill_charged();
        }
        let (mut best_on, mut best_off, mut n) = (f64::MAX, f64::MAX, 0);
        for _ in 0..3 {
            let program = (p.source)();
            let monitor = CheckMonitor::new(spec.scheme, spec.rounding, spec.ignore.clone());
            let t = Instant::now();
            let out = program
                .run_with(&rc, monitor)
                .map_err(|e| format!("adhash sample {}: {e}", spec.workload))?;
            best_on = best_on.min(t.elapsed().as_nanos() as f64);
            n = out.monitor.into_hashes().hash_updates;
            let program = (p.source)();
            let t = Instant::now();
            program
                .run(&rc)
                .map_err(|e| format!("adhash sample {}: {e}", spec.workload))?;
            best_off = best_off.min(t.elapsed().as_nanos() as f64);
        }
        extra_ns += (best_on - best_off).max(0.0);
        updates += n;
    }
    Ok(Adhash {
        per_update: Ratio::new(extra_ns, updates as f64),
        programs: seen.len(),
    })
}

/// Per-layer metrics from a traced section (`spans` recorded during
/// it), with `untraced` for the tracing overhead.
pub fn per_layer(
    setup: &Setup,
    untraced: &Section,
    traced: &Section,
    spans: &[Span],
    adhash: &Adhash,
) -> Result<Metrics, String> {
    let daemon = setup.workload == Workload::Daemon;
    let leaves = trace::leaves(spans);
    let mut roots = traced.roots.clone();
    roots.sort_unstable();
    let mut total = [0.0; LAYERS.len()];
    let mut core_self_ns = Vec::with_capacity(traced.windows.len());
    for &w in &traced.windows {
        let split = trace::attribute(w, &leaves.leaves, &roots);
        for (t, s) in total.iter_mut().zip(split) {
            *t += s;
        }
        core_self_ns.push(split[Layer::Core as usize]);
    }
    let wall: f64 = traced.windows.iter().map(|w| (w.1 - w.0) as f64).sum();
    let build_ns: f64 = leaves.build_ns.iter().sum();
    let mut m = Metrics::default();

    // tsim time on threads, and the computed work it did.
    let [_, steps, stores, updates] = traced.computed;
    let (sim_thread_ns, runs) = if daemon {
        // The service opens its own checker with the concrete corpus, so
        // the begin/store decorator cannot sit on this path. Inside the
        // workers' campaign lanes, what builds and corpus acquisitions
        // (the service telemetry's own histogram) leave is simulation
        // plus the unobservable appends and per-slot checker code. Its
        // wall share is split from the lane residual in proportion.
        let residual = (traced.lane_ns as f64 - build_ns).max(0.0);
        let acquire = (traced.acquire_ns as f64).min(residual);
        let core_wall = total[Layer::Core as usize];
        let corpus_wall = if residual > 0.0 {
            core_wall * acquire / residual
        } else {
            0.0
        };
        total[Layer::Corpus as usize] += corpus_wall;
        total[Layer::Tsim as usize] += core_wall - corpus_wall;
        total[Layer::Core as usize] = 0.0;
        (residual - acquire, traced.stores)
    } else {
        (leaves.sim_ns.iter().sum(), traced.computed[0])
    };

    m.pct("workloads.build_us_p50", &leaves.build_ns, 0.5, 1e-3, "us")?;
    m.put("workloads.builds", leaves.build_ns.len() as f64, "count");
    m.ratio("workloads.share", total[Layer::Workloads as usize], wall);

    if daemon {
        m.unobservable("tsim.run_ms_p50", "ms");
        m.unobservable("tsim.run_ms_p90", "ms");
    } else {
        m.pct("tsim.run_ms_p50", &leaves.sim_ns, 0.5, 1e-6, "ms")?;
        m.pct("tsim.run_ms_p90", &leaves.sim_ns, 0.9, 1e-6, "ms")?;
    }
    m.put("tsim.runs", runs as f64, "count");
    m.put("tsim.steps", steps as f64, "count");
    m.quotient(
        "tsim.stores_per_s",
        stores as f64,
        sim_thread_ns / 1e9,
        "1/s",
    );
    m.ratio("tsim.share", total[Layer::Tsim as usize], wall);
    if daemon {
        m.reference_derived.extend([
            "tsim.steps",
            "tsim.stores_per_s",
            "adhash.updates",
            "adhash.share",
        ]);
    }

    m.values.insert(
        "adhash.ns_per_update",
        Value::Ratio(adhash.per_update, "ns"),
    );
    m.samples.insert("adhash.ns_per_update", adhash.programs);
    m.put("adhash.updates", updates as f64, "count");
    m.ratio(
        "adhash.share",
        adhash.per_update.value() * updates as f64,
        sim_thread_ns,
    );

    if daemon {
        m.unobservable("core.self_ms_p50", "ms");
    } else {
        m.pct("core.self_ms_p50", &core_self_ns, 0.5, 1e-6, "ms")?;
    }
    m.ratio("core.share", total[Layer::Core as usize], wall);
    m.put("core.checkpoints", traced.checkpoints as f64, "count");

    m.put("corpus.open_ms", stats::median(&traced.open_ms), "ms");
    m.samples.insert("corpus.open_ms", traced.open_ms.len());
    if daemon {
        for name in [
            "corpus.hit_us_p50",
            "corpus.hit_us_p99",
            "corpus.miss_us_p50",
            "corpus.store_us_p50",
            "corpus.store_us_p99",
        ] {
            m.unobservable(name, "us");
        }
    } else {
        m.pct("corpus.hit_us_p50", &leaves.hit_ns, 0.5, 1e-3, "us")?;
        m.pct("corpus.hit_us_p99", &leaves.hit_ns, 0.99, 1e-3, "us")?;
        m.pct("corpus.miss_us_p50", &leaves.miss_ns, 0.5, 1e-3, "us")?;
        m.pct("corpus.store_us_p50", &leaves.store_ns, 0.5, 1e-3, "us")?;
        m.pct("corpus.store_us_p99", &leaves.store_ns, 0.99, 1e-3, "us")?;
    }
    m.ratio("corpus.share", total[Layer::Corpus as usize], wall);
    // Every `begin` probes the memo exactly once, and every one told to
    // compute ends in exactly one store (no campaign fails here).
    let probes = (traced.memo_hits + traced.memo_misses) as f64;
    m.ratio("corpus.hit_ratio", probes - traced.stores as f64, probes);
    m.ratio("corpus.memo_hit_ratio", traced.memo_hits as f64, probes);
    m.put("corpus.claim_waits", traced.claim_waits as f64, "count");
    m.put(
        "corpus.claim_wait_ms",
        traced.claim_wait_ns as f64 / 1e6,
        "ms",
    );
    m.quotient(
        "corpus.bytes_per_run",
        traced.live_bytes as f64,
        traced.live_records as f64,
        "B",
    );
    m.put("corpus.segments", traced.segments as f64, "count");
    m.put("corpus.quarantined", traced.quarantined as f64, "count");

    m.pct("sched.submit_us_p50", &leaves.submit_ns, 0.5, 1e-3, "us")?;
    for (name, p) in [("sched.dwell_ms_p50", 0.5), ("sched.dwell_ms_p99", 0.99)] {
        let (v, n) = match &traced.dwell {
            None => (0.0, 0),
            Some(h) => {
                let n = h.count as usize;
                if n < stats::needed_for(p) {
                    return Err(refused(name)(Refused {
                        p,
                        samples: n,
                        needed: stats::needed_for(p),
                    }));
                }
                // Upper bound of the log2 bucket holding the quantile.
                (h.quantile_bound(p) as f64 / 1e6, n)
            }
        };
        m.put(name, v, "ms");
        m.samples.insert(name, n);
    }
    m.ratio(
        "sched.busy_frac",
        traced.lane_ns as f64,
        WORKERS as f64 * if daemon { wall } else { 0.0 },
    );
    m.put("sched.shed", traced.shed as f64, "count");
    m.ratio("sched.share", total[Layer::Sched as usize], wall);

    m.ratio(
        "bench.unattributed_frac",
        total[Layer::Unattributed as usize],
        wall,
    );
    m.ratio(
        "bench.trace_overhead",
        runs_per_s(untraced).value(),
        runs_per_s(traced).value(),
    );
    m.ratio(
        "bench.failed_frac",
        (untraced.failed + traced.failed) as f64,
        (untraced.campaigns + traced.campaigns) as f64,
    );
    Ok(m)
}

/// The layer split the workloads were chosen to show. Violations are
/// returned as messages.
pub fn check_predictions(workload: Workload, m: &Metrics) -> Vec<String> {
    let v = |name: &str| m.values.get(name).map_or(f64::NAN, Value::value);
    let mut bad = Vec::new();
    let mut expect = |ok: bool, what: &str| {
        if !ok {
            bad.push(what.to_owned());
        }
    };
    let daemon_only = [
        "sched.dwell_ms_p50",
        "sched.dwell_ms_p99",
        "corpus.claim_waits",
    ];
    match workload {
        Workload::Cold => {
            expect(
                v("tsim.share") > 0.5,
                "cold-check: tsim.share is the majority",
            );
            expect(
                v("corpus.hit_ratio") == 0.0,
                "cold-check: corpus.hit_ratio = 0",
            );
        }
        Workload::Warm => {
            expect(v("tsim.runs") == 0.0, "warm-replay: tsim.runs = 0");
            expect(
                v("corpus.hit_ratio") == 1.0,
                "warm-replay: corpus.hit_ratio = 1",
            );
        }
        Workload::Daemon => {}
    }
    for name in daemon_only {
        let nonzero = v(name) > 0.0;
        if workload == Workload::Daemon {
            expect(nonzero, &format!("daemon-mix: {name} > 0"));
        } else {
            expect(!nonzero, &format!("{}: {name} = 0", workload.name()));
        }
    }
    bad
}

/// JSON string literal.
pub fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A finite number as JSON, with every digit `{}` gives.
pub fn num(v: f64) -> String {
    assert!(v.is_finite(), "metric value {v} is not finite");
    format!("{v}")
}

/// The result line: `correct`, `attempted`, `failed`, `metrics`.
pub fn result_json(correct: bool, attempted: u64, failed: u64, m: &Metrics) -> String {
    let mut out = format!(
        "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{"
    );
    for (i, (name, v)) in m.values.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{}:{{\"value\":{},\"unit\":{}}}",
            quote(name),
            num(v.value()),
            quote(v.unit())
        );
    }
    out.push_str("}}");
    out
}

/// Every ratio with its base, as `{"name":{"num":…,"den":…}}`.
pub fn bases_json(m: &Metrics) -> String {
    let mut out = String::from("{");
    let ratios = m.values.iter().filter_map(|(n, v)| match v {
        Value::Ratio(r, _) => Some((n, r)),
        Value::Plain(..) => None,
    });
    for (i, (name, r)) in ratios.enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{}:{{\"num\":{},\"den\":{}}}",
            quote(name),
            num(r.num),
            num(r.den)
        );
    }
    out.push('}');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::Section;

    fn empty_setup(workload: Workload) -> Setup {
        Setup {
            workload,
            campaigns: Vec::new(),
            batches: Vec::new(),
            resolver: None,
            distinct: [0; 4],
            corpus_dir: None,
        }
    }

    #[test]
    fn every_ratio_carries_its_base() {
        let sec = Section {
            timed_ns: 1_000_000_000,
            slots: 10,
            pass_rates: vec![Ratio::new(10.0, 1.0)],
            campaigns: 1,
            windows: (0..20).map(|i| (i * 100, i * 100 + 100)).collect(),
            roots: (0..20).map(|i| (i * 100, i * 100 + 100)).collect(),
            open_ms: vec![1.0],
            ..Section::default()
        };
        for workload in [Workload::Cold, Workload::Warm, Workload::Daemon] {
            let adhash = Adhash {
                per_update: Ratio::new(0.0, 0.0),
                programs: 0,
            };
            let m = per_layer(&empty_setup(workload), &sec, &sec, &[], &adhash)
                .expect("no percentile is short");
            let bases = bases_json(&m);
            for (name, v) in &m.values {
                let quotient = ["share", "ratio", "frac", "overhead", "_per_"]
                    .iter()
                    .any(|k| name.contains(k));
                if quotient || v.unit() == "ratio" {
                    assert!(
                        matches!(v, Value::Ratio(..)),
                        "{name}: a ratio without its base"
                    );
                    assert!(bases.contains(&quote(name)), "{name} missing from {bases}");
                }
            }
            assert!(m.values.len() >= 35, "{} metrics", m.values.len());
        }
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut m = Metrics::default();
        m.put("latency_ms", 1.25, "ms");
        m.ratio("share", 1.0, 4.0);
        assert_eq!(
            result_json(true, 3, 0, &m),
            r#"{"correct":true,"attempted":3,"failed":0,"metrics":{"latency_ms":{"value":1.25,"unit":"ms"},"share":{"value":0.25,"unit":"ratio"}}}"#
        );
    }
}
