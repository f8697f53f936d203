//! The campaign description: one serializable value that pins
//! everything a checking campaign does.
//!
//! A [`CampaignSpec`] is the only place a campaign's fields live:
//! workload identity, [`Scheme`], seeds, [`SwitchPolicy`], [`FpRound`],
//! [`IgnoreSpec`], [`FailurePolicy`], worker count, and fault plans. A
//! [`CheckerConfig`](crate::CheckerConfig) is a spec plus runtime
//! attachments, the harness command line parses into one, and the
//! checker's cache keys are derived from it
//! ([`CampaignSpec::run_key`]). It serializes to one line of
//! deterministic JSON (written and read by [`obs::json`]), so a
//! spec can be submitted over a wire, stored next to a corpus, and
//! diffed byte-for-byte.
//!
//! # Example
//!
//! ```
//! use instantcheck::{CampaignSpec, Checker, Scheme};
//! use tsim::{ProgramBuilder, ValKind};
//!
//! let spec = CampaignSpec::new("g-plus-t:full", Scheme::HwInc).with_runs(4);
//! // The JSON round-trip is lossless and one line long.
//! let line = spec.to_json();
//! assert!(!line.contains('\n'));
//! assert_eq!(CampaignSpec::from_json(&line).unwrap(), spec);
//!
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
//! let report = Checker::from_spec(&spec).unwrap().check(source).unwrap();
//! assert!(report.is_deterministic());
//! ```

use adhash::FpRound;
use obs::json::{self, Layout, Value};
use tsim::{FaultKind, FaultPlan, SwitchPolicy, Trigger, FAULT_KINDS};

use crate::cache::{fault_plan_token, RunKey};
use crate::ignore::IgnoreSpec;
use crate::policy::FailurePolicy;
use crate::scheme::Scheme;

/// Version of the spec encoding, serialized as the `version` field so
/// incompatible readers fail loudly instead of misreading.
pub const SPEC_VERSION: u32 = 1;

/// Everything one checking campaign does, as one serializable value.
///
/// [`CheckerConfig`](crate::CheckerConfig) carries a spec plus the
/// runtime resources (sinks, registries, caches are attached when the
/// spec is instantiated, not serialized). The deliberate split in
/// [`run_key`](CampaignSpec::run_key) applies: `runs`, `policy` and
/// `jobs` shape the campaign but never a single run's hashes, so they
/// are excluded from cache keys.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignSpec {
    /// Workload identity: program name plus every construction
    /// parameter (the [`RunKey::workload`] contract — equal ids must
    /// build equal programs).
    pub workload: String,
    /// Which scheme computes the hashes.
    pub scheme: Scheme,
    /// Runs to compare (the paper uses 30). Must be nonzero to build a
    /// [`Checker`](crate::Checker).
    pub runs: usize,
    /// Scheduler seed of the first run; run `i` uses `base_seed + i`.
    pub base_seed: u64,
    /// Library-call input seed: fixed across the campaign's runs (the
    /// calls are *input*), but can be varied between campaigns.
    pub lib_seed: u64,
    /// Preemption policy for all runs.
    pub switch: SwitchPolicy,
    /// FP round-off before hashing (`None` = bit-exact).
    pub rounding: Option<FpRound>,
    /// Structures excluded from the hash.
    pub ignore: IgnoreSpec,
    /// What the campaign does when a run fails.
    pub policy: FailurePolicy,
    /// Step limit per run, which also bounds a thread's run of calls
    /// that are not scheduling points (see `tsim::RunConfig::max_steps`).
    pub max_steps: u64,
    /// Worker threads for the campaign (`None` = machine default; the
    /// report is byte-identical at any value).
    pub jobs: Option<usize>,
    /// Whether the per-thread L1/MHM cache model runs.
    pub cache_model: bool,
    /// Fault-injection plans applied to specific run slots (every
    /// attempt of that slot, including retries, gets the plan).
    pub fault_plans: Vec<(usize, FaultPlan)>,
    /// Corpus directory the campaign was recorded against (`None` =
    /// unspecified). Shape-only: storage placement never enters a
    /// [`run_key`](CampaignSpec::run_key).
    pub corpus_dir: Option<String>,
    /// Target segment size of that corpus, in bytes (shape-only).
    pub corpus_segment_bytes: Option<u64>,
    /// Size bound of that corpus, in bytes (shape-only).
    pub corpus_max_bytes: Option<u64>,
    /// Memo-cache slots layered over that corpus (shape-only).
    pub corpus_cache_slots: Option<u64>,
}

/// Stable token for a [`SwitchPolicy`] — shared by spec JSON,
/// [`RunKey::with_tokens`], and command-line flags.
pub fn switch_token(switch: SwitchPolicy) -> String {
    match switch {
        SwitchPolicy::SyncOnly => "sync-only".to_owned(),
        SwitchPolicy::EveryAccess => "every-access".to_owned(),
        SwitchPolicy::EveryNth(n) => format!("every-nth:{n}"),
    }
}

/// Parses a [`switch_token`] back.
///
/// # Errors
///
/// A description of the malformed token.
pub fn parse_switch(token: &str) -> Result<SwitchPolicy, String> {
    match token {
        "sync-only" => Ok(SwitchPolicy::SyncOnly),
        "every-access" => Ok(SwitchPolicy::EveryAccess),
        other => match other.strip_prefix("every-nth:") {
            Some(n) => n
                .parse()
                .map(SwitchPolicy::EveryNth)
                .map_err(|_| format!("bad switch policy {other:?}")),
            None => Err(format!("bad switch policy {other:?}")),
        },
    }
}

/// Stable token for an optional [`FpRound`] — shared by spec JSON,
/// [`RunKey::with_tokens`], and command-line flags.
pub fn rounding_token(rounding: Option<FpRound>) -> String {
    match rounding {
        None => "none".to_owned(),
        Some(FpRound::BitExact) => "bit-exact".to_owned(),
        Some(FpRound::MaskMantissa { bits }) => format!("mask-mantissa:{bits}"),
        Some(FpRound::FloorDecimal { digits }) => format!("floor-decimal:{digits}"),
        Some(FpRound::NearestDecimal { digits }) => format!("nearest-decimal:{digits}"),
    }
}

/// Parses a [`rounding_token`] back.
///
/// # Errors
///
/// A description of the malformed token.
pub fn parse_rounding(token: &str) -> Result<Option<FpRound>, String> {
    let num = |s: &str| {
        s.parse::<u32>()
            .map_err(|_| format!("bad rounding {token:?}"))
    };
    if token == "none" {
        return Ok(None);
    }
    if token == "bit-exact" {
        return Ok(Some(FpRound::BitExact));
    }
    if let Some(bits) = token.strip_prefix("mask-mantissa:") {
        return Ok(Some(FpRound::MaskMantissa { bits: num(bits)? }));
    }
    if let Some(digits) = token.strip_prefix("floor-decimal:") {
        return Ok(Some(FpRound::FloorDecimal {
            digits: num(digits)?,
        }));
    }
    if let Some(digits) = token.strip_prefix("nearest-decimal:") {
        return Ok(Some(FpRound::NearestDecimal {
            digits: num(digits)?,
        }));
    }
    Err(format!("bad rounding {token:?}"))
}

/// Stable token for a [`FailurePolicy`].
fn policy_token(policy: FailurePolicy) -> String {
    match policy {
        FailurePolicy::Abort => "abort".to_owned(),
        FailurePolicy::Skip { max_failures } => format!("skip:{max_failures}"),
        FailurePolicy::Retry { max_retries } => format!("retry:{max_retries}:reseed"),
    }
}

fn parse_policy(token: &str) -> Result<FailurePolicy, String> {
    if token == "abort" {
        return Ok(FailurePolicy::Abort);
    }
    if let Some(n) = token.strip_prefix("skip:") {
        let max_failures = n.parse().map_err(|_| format!("bad policy {token:?}"))?;
        return Ok(FailurePolicy::Skip { max_failures });
    }
    if let Some(rest) = token.strip_prefix("retry:") {
        let (n, mode) = rest
            .split_once(':')
            .ok_or_else(|| format!("bad policy {token:?}"))?;
        let max_retries = n.parse().map_err(|_| format!("bad policy {token:?}"))?;
        return match mode {
            "reseed" => Ok(FailurePolicy::Retry { max_retries }),
            // A run is a deterministic function of its seed, so a retry
            // that replays it would only fail again.
            "same" => Err(format!(
                "bad policy {token:?}: a retry always reseeds (retry:{n}:reseed)"
            )),
            _ => Err(format!("bad policy {token:?}")),
        };
    }
    Err(format!("bad policy {token:?}"))
}

fn trigger_token(trigger: Trigger) -> String {
    match trigger {
        Trigger::Never => "never".to_owned(),
        Trigger::Nth(n) => format!("nth:{n}"),
        Trigger::Rate { num, denom } => format!("rate:{num}/{denom}"),
    }
}

fn parse_trigger(token: &str) -> Result<Trigger, String> {
    if token == "never" {
        return Ok(Trigger::Never);
    }
    if let Some(n) = token.strip_prefix("nth:") {
        return n
            .parse()
            .map(Trigger::Nth)
            .map_err(|_| format!("bad trigger {token:?}"));
    }
    if let Some(rate) = token.strip_prefix("rate:") {
        if let Some((num, denom)) = rate.split_once('/') {
            let num = num.parse().map_err(|_| format!("bad trigger {token:?}"))?;
            let denom: u64 = denom
                .parse()
                .map_err(|_| format!("bad trigger {token:?}"))?;
            if denom == 0 {
                return Err(format!("bad trigger {token:?}: zero denominator"));
            }
            return Ok(Trigger::Rate { num, denom });
        }
    }
    Err(format!("bad trigger {token:?}"))
}

fn parse_fault_kind(label: &str) -> Result<FaultKind, String> {
    FAULT_KINDS
        .into_iter()
        .find(|k| k.label() == label)
        .ok_or_else(|| format!("unknown fault kind {label:?}"))
}

/// A campaign's run keys with every campaign-wide field — workload,
/// scheme, ignore token, per-slot fault tokens — rendered once, so a
/// campaign derives each attempt's key by filling in only the
/// per-attempt fields.
#[derive(Debug, Clone)]
pub(crate) struct RunKeyTemplate {
    base: RunKey,
    fault_tokens: Vec<(usize, u64)>,
}

impl RunKeyTemplate {
    /// The key of slot `slot` under scheduler seed `seed` and
    /// allocator provenance `alloc_seed`.
    pub(crate) fn key(&self, slot: usize, seed: u64, alloc_seed: Option<u64>) -> RunKey {
        let fault_token = self
            .fault_tokens
            .iter()
            .find(|(s, _)| *s == slot)
            .map_or(0, |(_, token)| *token);
        RunKey {
            seed,
            alloc_seed,
            fault_token,
            ..self.base.clone()
        }
    }
}

impl CampaignSpec {
    /// A default campaign over `workload`: 30 runs, base seed 1,
    /// sync-only switching, bit-exact hashing, nothing ignored, abort
    /// on the first failed run — the defaults
    /// [`CheckerConfig::new`](crate::CheckerConfig::new) starts from.
    pub fn new(workload: impl Into<String>, scheme: Scheme) -> Self {
        CampaignSpec {
            workload: workload.into(),
            scheme,
            runs: 30,
            base_seed: 1,
            lib_seed: 0xfeed,
            switch: SwitchPolicy::SyncOnly,
            rounding: None,
            ignore: IgnoreSpec::new(),
            policy: FailurePolicy::Abort,
            max_steps: 20_000_000,
            jobs: None,
            cache_model: false,
            fault_plans: Vec::new(),
            corpus_dir: None,
            corpus_segment_bytes: None,
            corpus_max_bytes: None,
            corpus_cache_slots: None,
        }
    }

    /// Sets the number of runs.
    #[must_use]
    pub fn with_runs(mut self, runs: usize) -> Self {
        self.runs = runs;
        self
    }

    /// Sets the first run's scheduler seed.
    #[must_use]
    pub fn with_base_seed(mut self, seed: u64) -> Self {
        self.base_seed = seed;
        self
    }

    /// Sets the failure policy.
    #[must_use]
    pub fn with_policy(mut self, policy: FailurePolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Sets the campaign's worker-thread count.
    #[must_use]
    pub fn with_jobs(mut self, jobs: usize) -> Self {
        self.jobs = Some(jobs);
        self
    }

    /// The cache key of one run attempt of this campaign: slot `slot`
    /// running under scheduler seed `seed`, with allocator-replay
    /// provenance `alloc_seed` (see [`RunKey::alloc_seed`]).
    ///
    /// This is the *only* place run keys are assembled — the checker
    /// derives its keys from the spec (through the same per-campaign
    /// key template), so a spec stored next to a corpus provably
    /// addresses the same entries the campaign used. `runs`, `policy`
    /// and `jobs` never enter the key: they decide which attempts run
    /// and how fast, not what an attempt computes.
    #[must_use]
    pub fn run_key(&self, slot: usize, seed: u64, alloc_seed: Option<u64>) -> RunKey {
        self.key_template().key(slot, seed, alloc_seed)
    }

    /// Everything campaign-wide in this spec's run keys, rendered once.
    pub(crate) fn key_template(&self) -> RunKeyTemplate {
        RunKeyTemplate {
            base: RunKey {
                workload: self.workload.clone(),
                scheme: self.scheme,
                seed: 0,
                lib_seed: self.lib_seed,
                switch: self.switch,
                max_steps: self.max_steps,
                rounding: self.rounding,
                ignore_token: self.ignore.cache_token(),
                fault_token: 0,
                cache_model: self.cache_model,
                alloc_seed: None,
            },
            fault_tokens: self
                .fault_plans
                .iter()
                .map(|(slot, plan)| (*slot, fault_plan_token(plan)))
                .collect(),
        }
    }

    /// Serializes the spec as one line of deterministic JSON — equal
    /// specs produce byte-equal lines, so specs can be diffed, hashed,
    /// and submitted over line-oriented transports (the `icd`
    /// orchestrator reads one spec per line).
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        json::object(&mut out, Layout::Compact, |o| {
            o.field("version", &SPEC_VERSION)
                .field("workload", &self.workload)
                .field("scheme", self.scheme.name())
                .field("runs", &self.runs)
                .field("base_seed", &self.base_seed)
                .field("lib_seed", &self.lib_seed)
                .field("switch", &switch_token(self.switch))
                .field("rounding", &rounding_token(self.rounding))
                .field("policy", &policy_token(self.policy))
                .field("max_steps", &self.max_steps)
                .field("jobs", &self.jobs)
                .field("cache_model", &self.cache_model)
                .object("ignore", |o| {
                    o.field("globals", &self.ignore.globals)
                        .field("sites", &self.ignore.sites);
                })
                .array("faults", |faults| {
                    for (slot, plan) in &self.fault_plans {
                        faults.object(|o| {
                            o.field("slot", slot).field("seed", &plan.seed).array(
                                "triggers",
                                |triggers| {
                                    for kind in FAULT_KINDS {
                                        let trigger = plan.trigger(kind);
                                        if trigger != Trigger::Never {
                                            triggers.item(&(kind.label(), trigger_token(trigger)));
                                        }
                                    }
                                },
                            );
                        });
                    }
                });
            // Shape-only corpus placement fields are emitted only when
            // set, so specs written before they existed keep
            // serializing to the exact bytes they were committed with.
            if let Some(dir) = &self.corpus_dir {
                o.field("corpus_dir", dir);
            }
            for (key, value) in [
                ("corpus_segment_bytes", self.corpus_segment_bytes),
                ("corpus_max_bytes", self.corpus_max_bytes),
                ("corpus_cache_slots", self.corpus_cache_slots),
            ] {
                if let Some(n) = value {
                    o.field(key, &n);
                }
            }
        });
        out
    }

    /// Parses a spec back from its [`to_json`](Self::to_json) form.
    ///
    /// # Errors
    ///
    /// A description of the first missing, mistyped, or unparsable
    /// field, including a version mismatch.
    pub fn from_json(text: &str) -> Result<CampaignSpec, String> {
        let v = json::parse(text)?;
        Self::from_value(&v)
    }

    /// Parses a spec from an already-parsed JSON value (used by callers
    /// that wrap specs in larger envelopes, e.g. `icd` submissions).
    ///
    /// # Errors
    ///
    /// As for [`from_json`](Self::from_json).
    pub fn from_value(v: &Value) -> Result<CampaignSpec, String> {
        let str_field = |name: &str| -> Result<&str, String> {
            v.get(name)
                .and_then(Value::as_str)
                .ok_or_else(|| format!("missing string field {name:?}"))
        };
        let u64_field = |name: &str| -> Result<u64, String> {
            v.get(name)
                .and_then(Value::as_u64)
                .ok_or_else(|| format!("missing numeric field {name:?}"))
        };
        let opt_u64_field = |name: &str| -> Result<Option<u64>, String> {
            match v.get(name) {
                None | Some(Value::Null) => Ok(None),
                Some(val) => val
                    .as_u64()
                    .map(Some)
                    .ok_or_else(|| format!("bad numeric field {name:?}")),
            }
        };
        let opt_str_field = |name: &str| -> Result<Option<String>, String> {
            match v.get(name) {
                None | Some(Value::Null) => Ok(None),
                Some(val) => val
                    .as_str()
                    .map(|s| Some(s.to_owned()))
                    .ok_or_else(|| format!("bad string field {name:?}")),
            }
        };
        let version = u64_field("version")?;
        if version != u64::from(SPEC_VERSION) {
            return Err(format!(
                "spec version {version} unsupported (expected {SPEC_VERSION})"
            ));
        }
        let scheme_name = str_field("scheme")?;
        // Lenient on read ("hw-inc" and "HwInc" both work), canonical
        // on write (`Scheme::name`), so round-trips stay byte-stable.
        let scheme =
            Scheme::parse(scheme_name).ok_or_else(|| format!("unknown scheme {scheme_name:?}"))?;
        // Runs are bounded by `max_steps` alone. Older spec files carry
        // `"deadline_ms":null`, which still parses.
        if !matches!(v.get("deadline_ms"), None | Some(Value::Null)) {
            return Err("field \"deadline_ms\" is no longer supported: \
                        runs are bounded by \"max_steps\""
                .to_owned());
        }
        let cache_model = match v.get("cache_model") {
            Some(Value::Bool(b)) => *b,
            _ => return Err("missing boolean field \"cache_model\"".to_owned()),
        };

        let mut ignore = IgnoreSpec::new();
        let ignore_obj = v
            .get("ignore")
            .ok_or_else(|| "missing object field \"ignore\"".to_owned())?;
        let section = |name: &str| -> Result<&[Value], String> {
            match ignore_obj.get(name) {
                Some(Value::Arr(items)) => Ok(items),
                _ => Err(format!("missing array field \"ignore\".{name:?}")),
            }
        };
        for entry in section("globals")? {
            let Value::Arr(pair) = entry else {
                return Err("bad ignore.globals entry".to_owned());
            };
            let name = pair
                .first()
                .and_then(Value::as_str)
                .ok_or_else(|| "bad ignore.globals entry".to_owned())?;
            ignore = match pair.get(1) {
                Some(Value::Null) | None => ignore.ignore_global(name),
                Some(Value::Arr(range)) if range.len() == 2 => {
                    let bound = |i: usize| {
                        range[i]
                            .as_u64()
                            .map(|n| n as usize)
                            .ok_or_else(|| "bad ignore.globals range".to_owned())
                    };
                    ignore.ignore_global_range(name, bound(0)?, bound(1)?)
                }
                _ => return Err("bad ignore.globals entry".to_owned()),
            };
        }
        for entry in section("sites")? {
            let Value::Arr(pair) = entry else {
                return Err("bad ignore.sites entry".to_owned());
            };
            let site = pair
                .first()
                .and_then(Value::as_str)
                .ok_or_else(|| "bad ignore.sites entry".to_owned())?;
            ignore = match pair.get(1) {
                Some(Value::Null) | None => ignore.ignore_site(site),
                Some(Value::Arr(offsets)) => {
                    let offs: Result<Vec<usize>, String> = offsets
                        .iter()
                        .map(|o| {
                            o.as_u64()
                                .map(|n| n as usize)
                                .ok_or_else(|| "bad ignore.sites offset".to_owned())
                        })
                        .collect();
                    ignore.ignore_site_offsets(site, offs?)
                }
                _ => return Err("bad ignore.sites entry".to_owned()),
            };
        }

        let mut fault_plans = Vec::new();
        match v.get("faults") {
            Some(Value::Arr(items)) => {
                for item in items {
                    let slot = item
                        .get("slot")
                        .and_then(Value::as_u64)
                        .ok_or_else(|| "bad faults entry: missing slot".to_owned())?;
                    let seed = item
                        .get("seed")
                        .and_then(Value::as_u64)
                        .ok_or_else(|| "bad faults entry: missing seed".to_owned())?;
                    let mut plan = FaultPlan::new(seed);
                    match item.get("triggers") {
                        Some(Value::Arr(triggers)) => {
                            for t in triggers {
                                let Value::Arr(pair) = t else {
                                    return Err("bad faults trigger entry".to_owned());
                                };
                                let label = pair
                                    .first()
                                    .and_then(Value::as_str)
                                    .ok_or_else(|| "bad faults trigger entry".to_owned())?;
                                let token = pair
                                    .get(1)
                                    .and_then(Value::as_str)
                                    .ok_or_else(|| "bad faults trigger entry".to_owned())?;
                                plan = plan.with(parse_fault_kind(label)?, parse_trigger(token)?);
                            }
                        }
                        _ => return Err("bad faults entry: missing triggers".to_owned()),
                    }
                    fault_plans.push((slot as usize, plan));
                }
            }
            _ => return Err("missing array field \"faults\"".to_owned()),
        }

        Ok(CampaignSpec {
            workload: str_field("workload")?.to_owned(),
            scheme,
            runs: u64_field("runs")? as usize,
            base_seed: u64_field("base_seed")?,
            lib_seed: u64_field("lib_seed")?,
            switch: parse_switch(str_field("switch")?)?,
            rounding: parse_rounding(str_field("rounding")?)?,
            ignore,
            policy: parse_policy(str_field("policy")?)?,
            max_steps: u64_field("max_steps")?,
            jobs: opt_u64_field("jobs")?.map(|n| n as usize),
            cache_model,
            fault_plans,
            corpus_dir: opt_str_field("corpus_dir")?,
            corpus_segment_bytes: opt_u64_field("corpus_segment_bytes")?,
            corpus_max_bytes: opt_u64_field("corpus_max_bytes")?,
            corpus_cache_slots: opt_u64_field("corpus_cache_slots")?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn full_spec() -> CampaignSpec {
        CampaignSpec {
            workload: "canneal:scaled".into(),
            scheme: Scheme::SwTr,
            runs: 8,
            base_seed: 9,
            lib_seed: 3,
            switch: SwitchPolicy::EveryNth(5),
            rounding: Some(FpRound::NearestDecimal { digits: 3 }),
            ignore: IgnoreSpec::new()
                .ignore_global("noise")
                .ignore_global_range("g", 1, 3)
                .ignore_site("free_list")
                .ignore_site_offsets("records", [2, 5]),
            policy: FailurePolicy::Retry { max_retries: 2 },
            max_steps: 1_000_000,
            jobs: Some(4),
            cache_model: true,
            fault_plans: vec![(
                2,
                FaultPlan::new(7)
                    .with(FaultKind::AllocFail, Trigger::Nth(0))
                    .with(FaultKind::BitFlip, Trigger::Rate { num: 1, denom: 50 }),
            )],
            corpus_dir: Some("results/corpus".into()),
            corpus_segment_bytes: Some(1 << 23),
            corpus_max_bytes: Some(1 << 30),
            corpus_cache_slots: Some(1 << 14),
        }
    }

    #[test]
    fn defaults_match_checker_config() {
        let cfg = crate::CheckerConfig::new(Scheme::HwInc);
        assert_eq!(cfg.spec, CampaignSpec::new("", Scheme::HwInc));
    }

    #[test]
    fn json_round_trip_is_lossless() {
        for spec in [
            CampaignSpec::new("w:full", Scheme::HwInc),
            full_spec(),
            CampaignSpec::new("weird \"name\" \t %", Scheme::Native),
        ] {
            let line = spec.to_json();
            assert!(!line.contains('\n'), "one line: {line}");
            let back = CampaignSpec::from_json(&line).expect("parses");
            assert_eq!(spec, back);
            assert_eq!(back.to_json(), line, "re-serialization is stable");
        }
    }

    #[test]
    fn version_mismatch_is_rejected() {
        let line = full_spec()
            .to_json()
            .replace("\"version\":1", "\"version\":99");
        let err = CampaignSpec::from_json(&line).unwrap_err();
        assert!(err.contains("version"), "{err}");
    }

    #[test]
    fn malformed_fields_are_rejected_with_a_field_name() {
        let good = full_spec().to_json();
        for (needle, replacement, expect) in [
            ("\"scheme\":\"SwTr\"", "\"scheme\":\"Quantum\"", "scheme"),
            (
                "\"switch\":\"every-nth:5\"",
                "\"switch\":\"often\"",
                "switch",
            ),
            (
                "\"policy\":\"retry:2:reseed\"",
                "\"policy\":\"pray\"",
                "policy",
            ),
            (
                "\"rounding\":\"nearest-decimal:3\"",
                "\"rounding\":\"fuzzy\"",
                "rounding",
            ),
            (
                "\"policy\":\"retry:2:reseed\"",
                "\"policy\":\"retry:2:same\"",
                "policy \"retry:2:same\"",
            ),
            (
                "\"max_steps\"",
                "\"deadline_ms\":5000,\"max_steps\"",
                "deadline_ms",
            ),
        ] {
            let bad = good.replace(needle, replacement);
            assert_ne!(bad, good, "replacement {needle:?} must apply");
            let err = CampaignSpec::from_json(&bad).unwrap_err();
            assert!(err.contains(expect), "{expect}: {err}");
        }
    }

    #[test]
    fn run_key_comes_from_the_spec() {
        let spec = full_spec();
        let key = spec.run_key(2, spec.base_seed + 2, Some(9));
        assert_eq!(key.workload, "canneal:scaled");
        assert_eq!(key.scheme, Scheme::SwTr);
        assert_eq!(key.seed, 11);
        assert_eq!(key.alloc_seed, Some(9));
        assert_ne!(key.fault_token, 0, "slot 2 has a fault plan");
        let unfaulted = spec.run_key(1, spec.base_seed + 1, Some(9));
        assert_eq!(unfaulted.fault_token, 0, "slot 1 has none");
        assert_eq!(key.ignore_token, spec.ignore.cache_token());
    }

    #[test]
    fn triggers_past_the_token_packing_key_apart() {
        // Each pair once packed into one fault token, so a warm corpus
        // replayed one plan's run for the other.
        let spec = full_spec();
        let line = spec.to_json();
        for (packed, trigger, overflowing) in [
            ("rate:1/50", "rate:1/1", "rate:0/2147483649"),
            ("nth:0", "nth:5", "nth:4611686018427387909"),
        ] {
            let keyed = |token: &str| {
                let text = line.replace(packed, token);
                assert_ne!(text, line, "{packed} must be in the spec");
                let parsed = CampaignSpec::from_json(&text).expect("parses");
                parsed.run_key(2, parsed.base_seed + 2, None)
            };
            let (a, b) = (keyed(trigger), keyed(overflowing));
            assert_ne!(a.fault_token, b.fault_token, "{trigger} vs {overflowing}");
            assert_ne!(a, b);
            let plan =
                |token| FaultPlan::new(7).with(FaultKind::BitFlip, parse_trigger(token).unwrap());
            assert_ne!(
                crate::fault_plan_token(&plan(trigger)),
                crate::fault_plan_token(&plan(overflowing)),
                "{trigger} vs {overflowing} as bare tokens"
            );
        }
    }

    #[test]
    fn campaign_shape_fields_do_not_enter_the_run_key() {
        // runs/policy/jobs decide which attempts run, not what
        // an attempt computes — changing them must keep keys (and thus
        // corpus entries) valid.
        let base = full_spec();
        let key = base.run_key(0, 1, None);
        let mut reshaped = base.clone();
        reshaped.runs = 30;
        reshaped.policy = FailurePolicy::Abort;
        reshaped.jobs = None;
        reshaped.corpus_dir = None;
        reshaped.corpus_segment_bytes = None;
        reshaped.corpus_max_bytes = None;
        reshaped.corpus_cache_slots = None;
        assert_eq!(reshaped.run_key(0, 1, None), key);
    }

    #[test]
    fn specs_without_corpus_fields_serialize_as_before_them() {
        // Committed spec files predate the corpus placement fields;
        // an all-`None` spec must keep producing the exact bytes those
        // files hold, and parsing them must keep working.
        let spec = CampaignSpec::new("w", Scheme::HwInc);
        let line = spec.to_json();
        assert!(!line.contains("corpus"), "{line}");
        assert_eq!(CampaignSpec::from_json(&line).expect("parses"), spec);
    }

    #[test]
    fn the_committed_corpus_spec_still_parses() {
        // Written with `"deadline_ms":null`, which parses as absent.
        let file = include_str!("../../../results/corpus/specs/canneal-scaled-r8-s1.spec.json");
        let spec = CampaignSpec::from_json(file.trim()).expect("parses");
        assert_eq!(
            spec,
            CampaignSpec::new("canneal:scaled", Scheme::HwInc).with_runs(8)
        );
        assert_eq!(
            spec.to_json(),
            file.trim().replace(",\"deadline_ms\":null", "")
        );
    }

    #[test]
    fn trigger_tokens_round_trip() {
        for t in [
            Trigger::Never,
            Trigger::Nth(0),
            Trigger::Nth(17),
            Trigger::Rate { num: 1, denom: 3 },
        ] {
            assert_eq!(parse_trigger(&trigger_token(t)).unwrap(), t);
        }
        assert!(parse_trigger("rate:1/0").is_err());
        assert!(parse_trigger("sometimes").is_err());
    }
}
