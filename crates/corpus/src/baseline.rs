//! Named campaign baselines and drift detection.
//!
//! A [`CampaignBaseline`] freezes what a known-good campaign produced —
//! the reference run's per-checkpoint hashes and the campaign's summary
//! verdicts — as a small JSON artifact. A later campaign over the same
//! workload is [`compare`](CampaignBaseline::compare)d against it and
//! every discrepancy is reported as a [`Drift`], with the *first*
//! divergent checkpoint localized by index (divergence is cumulative in
//! an incremental hash, so later mismatches are noise).

use std::fmt;
use std::fs;
use std::io;
use std::path::Path;

use instantcheck::{CheckReport, RunHashes, Scheme};
use obs::json::{self, Layout, Value};

use crate::record::kind_token;

/// A recorded reference outcome for one `(workload, scheme, runs,
/// base_seed)` campaign.
///
/// # Example
///
/// ```
/// use corpus::CampaignBaseline;
/// use instantcheck::{CheckReport, Checker, CheckerConfig, Scheme};
/// use tsim::{ProgramBuilder, ValKind};
///
/// let source = || {
///     let mut b = ProgramBuilder::new(2);
///     let g = b.global("G", ValKind::U64, 1);
///     let lock = b.mutex();
///     for t in 0..2u64 {
///         b.thread(async move |ctx| {
///             ctx.lock(lock).await;
///             let v = ctx.load(g.at(0)).await;
///             ctx.store(g.at(0), v + t + 1).await;
///             ctx.unlock(lock).await;
///         });
///     }
///     b.build()
/// };
///
/// let checker = Checker::new(CheckerConfig::new(Scheme::HwInc).with_runs(4)).expect("valid config");
/// let runs = checker.collect_runs(&source).unwrap();
/// let report = CheckReport::from_runs(&runs);
/// let baseline = CampaignBaseline::capture(
///     "g-plus-t", "g-plus-t:full", Scheme::HwInc, 1, &runs[0], &report,
/// );
///
/// // A fresh identical campaign shows no drift…
/// let fresh = checker.collect_runs(&source).unwrap();
/// let fresh_report = CheckReport::from_runs(&fresh);
/// assert!(baseline.compare(&fresh[0], &fresh_report).is_empty());
///
/// // …and the JSON round-trip is lossless.
/// let json = baseline.to_json();
/// let back = CampaignBaseline::from_json(&json).unwrap();
/// assert!(back.compare(&fresh[0], &fresh_report).is_empty());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CampaignBaseline {
    /// The baseline's name (its file stem under `baselines/`).
    pub name: String,
    /// The workload id the campaign ran (the caller's contract, as in
    /// [`RunKey::workload`](instantcheck::RunKey::workload)).
    pub workload: String,
    /// The checking scheme, by stable [`Scheme::name`].
    pub scheme: String,
    /// Runs the campaign compared.
    pub runs: usize,
    /// The campaign's base scheduler seed.
    pub base_seed: u64,
    /// The reference run's checkpoints as `(kind token, hash)` pairs —
    /// the hashes a drift is localized against.
    pub reference: Vec<(String, u64)>,
    /// The reference run's output-stream digest.
    pub output_digest: u64,
    /// Whether the campaign found the end state deterministic.
    pub det_at_end: bool,
    /// Nondeterministic checking points the campaign found.
    pub ndet_points: usize,
    /// Whether runs disagreed on checkpoint count/kind.
    pub structural_divergence: bool,
    /// Failed run attempts the campaign's policy absorbed.
    pub failed_runs: usize,
    /// The report's grouped distributions as `(rendered, count)` — the
    /// Figure 5 presentation, e.g. `("16-11-3", 2)`.
    pub groups: Vec<(String, usize)>,
}

/// One discrepancy between a fresh campaign and a recorded baseline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Drift {
    /// The reference run's hash changed at a checkpoint. Only the first
    /// such checkpoint is reported — an incremental hash carries every
    /// earlier divergence forward.
    ReferenceHash {
        /// Index of the first divergent checkpoint.
        checkpoint: usize,
        /// The kind token recorded in the baseline.
        kind: String,
        /// The baseline hash.
        expected: u64,
        /// The fresh hash.
        got: u64,
    },
    /// A checkpoint fired with a different kind than the baseline
    /// recorded (control flow reached a different checking point).
    ReferenceKind {
        /// Index of the first checkpoint whose kind changed.
        checkpoint: usize,
        /// The kind token recorded in the baseline.
        expected: String,
        /// The fresh kind token.
        got: String,
    },
    /// The reference run fired a different number of checkpoints.
    CheckpointCount {
        /// Checkpoints in the baseline.
        expected: usize,
        /// Checkpoints in the fresh run.
        got: usize,
    },
    /// The reference run's output digest changed.
    OutputDigest {
        /// The baseline digest.
        expected: u64,
        /// The fresh digest.
        got: u64,
    },
    /// A summary verdict of the campaign changed.
    Summary {
        /// Which summary field drifted (e.g. `ndet_points`).
        field: &'static str,
        /// The baseline value, rendered.
        expected: String,
        /// The fresh value, rendered.
        got: String,
    },
}

impl fmt::Display for Drift {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Drift::ReferenceHash {
                checkpoint,
                kind,
                expected,
                got,
            } => write!(
                f,
                "checkpoint {checkpoint} ({kind}): hash {got:016x}, baseline {expected:016x}"
            ),
            Drift::ReferenceKind {
                checkpoint,
                expected,
                got,
            } => write!(
                f,
                "checkpoint {checkpoint}: kind {got}, baseline {expected}"
            ),
            Drift::CheckpointCount { expected, got } => {
                write!(
                    f,
                    "reference run fired {got} checkpoints, baseline {expected}"
                )
            }
            Drift::OutputDigest { expected, got } => {
                write!(f, "output digest {got:016x}, baseline {expected:016x}")
            }
            Drift::Summary {
                field,
                expected,
                got,
            } => write!(f, "summary {field}: {got}, baseline {expected}"),
        }
    }
}

impl CampaignBaseline {
    /// Captures a baseline from a finished campaign: `reference` is the
    /// campaign's reference run (run 1), `report` its verdicts.
    pub fn capture(
        name: impl Into<String>,
        workload: impl Into<String>,
        scheme: Scheme,
        base_seed: u64,
        reference: &RunHashes,
        report: &CheckReport,
    ) -> CampaignBaseline {
        CampaignBaseline {
            name: name.into(),
            workload: workload.into(),
            scheme: scheme.name().to_owned(),
            runs: report.runs,
            base_seed,
            reference: reference
                .checkpoints
                .iter()
                .map(|cp| (kind_token(cp.kind), cp.hash.as_raw()))
                .collect(),
            output_digest: reference.output_digest,
            det_at_end: report.det_at_end,
            ndet_points: report.ndet_points,
            structural_divergence: report.structural_divergence,
            failed_runs: report.failures.len(),
            groups: report
                .grouped_distributions()
                .into_iter()
                .map(|(d, count)| (d.to_string(), count))
                .collect(),
        }
    }

    /// Compares a fresh campaign against this baseline. An empty vector
    /// means no drift. Reference-run drifts come first (hash divergence
    /// localized to the first divergent checkpoint), then the output
    /// digest, then summary-verdict changes.
    pub fn compare(&self, reference: &RunHashes, report: &CheckReport) -> Vec<Drift> {
        let mut drifts = Vec::new();

        let fresh: Vec<(String, u64)> = reference
            .checkpoints
            .iter()
            .map(|cp| (kind_token(cp.kind), cp.hash.as_raw()))
            .collect();
        let mut reference_diverged = false;
        for (i, (base, new)) in self.reference.iter().zip(&fresh).enumerate() {
            if base.0 != new.0 {
                drifts.push(Drift::ReferenceKind {
                    checkpoint: i,
                    expected: base.0.clone(),
                    got: new.0.clone(),
                });
                reference_diverged = true;
                break;
            }
            if base.1 != new.1 {
                drifts.push(Drift::ReferenceHash {
                    checkpoint: i,
                    kind: base.0.clone(),
                    expected: base.1,
                    got: new.1,
                });
                reference_diverged = true;
                break;
            }
        }
        if !reference_diverged && self.reference.len() != fresh.len() {
            drifts.push(Drift::CheckpointCount {
                expected: self.reference.len(),
                got: fresh.len(),
            });
        }
        if self.output_digest != reference.output_digest {
            drifts.push(Drift::OutputDigest {
                expected: self.output_digest,
                got: reference.output_digest,
            });
        }

        let mut summary = |field: &'static str, expected: String, got: String| {
            if expected != got {
                drifts.push(Drift::Summary {
                    field,
                    expected,
                    got,
                });
            }
        };
        summary("runs", self.runs.to_string(), report.runs.to_string());
        summary(
            "ndet_points",
            self.ndet_points.to_string(),
            report.ndet_points.to_string(),
        );
        summary(
            "det_at_end",
            self.det_at_end.to_string(),
            report.det_at_end.to_string(),
        );
        summary(
            "structural_divergence",
            self.structural_divergence.to_string(),
            report.structural_divergence.to_string(),
        );
        summary(
            "failed_runs",
            self.failed_runs.to_string(),
            report.failures.len().to_string(),
        );
        let fresh_groups: Vec<(String, usize)> = report
            .grouped_distributions()
            .into_iter()
            .map(|(d, count)| (d.to_string(), count))
            .collect();
        let render = |groups: &[(String, usize)]| {
            groups
                .iter()
                .map(|(d, c)| format!("{d}x{c}"))
                .collect::<Vec<_>>()
                .join(",")
        };
        summary("groups", render(&self.groups), render(&fresh_groups));

        drifts
    }

    /// Serializes the baseline as deterministic, human-diffable JSON:
    /// one member per line, and one line per reference hash and group.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        json::object(&mut out, Layout::Indented, |o| {
            o.field("name", &self.name)
                .field("workload", &self.workload)
                .field("scheme", &self.scheme)
                .field("runs", &self.runs)
                .field("base_seed", &self.base_seed)
                .field("output_digest", &self.output_digest)
                .field("det_at_end", &self.det_at_end)
                .field("ndet_points", &self.ndet_points)
                .field("structural_divergence", &self.structural_divergence)
                .field("failed_runs", &self.failed_runs)
                .array("reference", |a| {
                    for pair in &self.reference {
                        a.item(pair);
                    }
                })
                .array("groups", |a| {
                    for pair in &self.groups {
                        a.item(pair);
                    }
                });
        });
        out.push('\n');
        out
    }

    /// Parses a baseline back from its [`to_json`](Self::to_json) form.
    ///
    /// # Errors
    ///
    /// A description of the first missing or mistyped field.
    pub fn from_json(text: &str) -> Result<CampaignBaseline, String> {
        let v = json::parse(text)?;
        let str_field = |name: &str| -> Result<String, String> {
            v.get(name)
                .and_then(Value::as_str)
                .map(str::to_owned)
                .ok_or_else(|| format!("missing string field {name:?}"))
        };
        let u64_field = |name: &str| -> Result<u64, String> {
            v.get(name)
                .and_then(Value::as_u64)
                .ok_or_else(|| format!("missing numeric field {name:?}"))
        };
        let bool_field = |name: &str| -> Result<bool, String> {
            match v.get(name) {
                Some(Value::Bool(b)) => Ok(*b),
                _ => Err(format!("missing boolean field {name:?}")),
            }
        };
        let pairs = |name: &str| -> Result<Vec<(String, u64)>, String> {
            let arr = match v.get(name) {
                Some(Value::Arr(items)) => items,
                _ => return Err(format!("missing array field {name:?}")),
            };
            arr.iter()
                .map(|item| match item {
                    Value::Arr(pair) if pair.len() == 2 => {
                        let s = pair[0]
                            .as_str()
                            .ok_or_else(|| format!("bad pair in {name:?}"))?;
                        let n = pair[1]
                            .as_u64()
                            .ok_or_else(|| format!("bad pair in {name:?}"))?;
                        Ok((s.to_owned(), n))
                    }
                    _ => Err(format!("bad pair in {name:?}")),
                })
                .collect()
        };
        Ok(CampaignBaseline {
            name: str_field("name")?,
            workload: str_field("workload")?,
            scheme: str_field("scheme")?,
            runs: u64_field("runs")? as usize,
            base_seed: u64_field("base_seed")?,
            reference: pairs("reference")?,
            output_digest: u64_field("output_digest")?,
            det_at_end: bool_field("det_at_end")?,
            ndet_points: u64_field("ndet_points")? as usize,
            structural_divergence: bool_field("structural_divergence")?,
            failed_runs: u64_field("failed_runs")? as usize,
            groups: pairs("groups")?
                .into_iter()
                .map(|(d, c)| (d, c as usize))
                .collect(),
        })
    }

    /// Writes the baseline under `dir` as `<name>.json`.
    ///
    /// # Errors
    ///
    /// Any [`io::Error`] from creating the directory or writing.
    pub fn save(&self, dir: impl AsRef<Path>) -> io::Result<()> {
        let dir = dir.as_ref();
        fs::create_dir_all(dir)?;
        fs::write(dir.join(format!("{}.json", self.name)), self.to_json())
    }

    /// Loads the baseline named `name` from `dir`.
    ///
    /// # Errors
    ///
    /// An [`io::Error`]; parse failures surface as
    /// [`InvalidData`](io::ErrorKind::InvalidData).
    pub fn load(dir: impl AsRef<Path>, name: &str) -> io::Result<CampaignBaseline> {
        let text = fs::read_to_string(dir.as_ref().join(format!("{name}.json")))?;
        CampaignBaseline::from_json(&text)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adhash::HashSum;
    use instantcheck::CheckpointRecord;
    use tsim::{BarrierId, CheckpointKind};

    fn hashes(seq: &[(CheckpointKind, u64)], output: u64) -> RunHashes {
        RunHashes {
            checkpoints: seq
                .iter()
                .map(|&(kind, h)| CheckpointRecord {
                    kind,
                    hash: HashSum::from_raw(h),
                })
                .collect(),
            output_digest: output,
            extra_instr: 0,
            stores: 0,
            hash_updates: 0,
            cache: None,
        }
    }

    fn sample() -> (RunHashes, CheckReport) {
        let reference = hashes(
            &[
                (CheckpointKind::Barrier(BarrierId::from_index(0)), 11),
                (CheckpointKind::Manual("iter"), 22),
                (CheckpointKind::End, 33),
            ],
            7,
        );
        let report = CheckReport::from_runs(&[reference.clone(), reference.clone()]);
        (reference, report)
    }

    #[test]
    fn identical_campaign_shows_no_drift() {
        let (reference, report) = sample();
        let b = CampaignBaseline::capture("b", "w", Scheme::HwInc, 1, &reference, &report);
        assert!(b.compare(&reference, &report).is_empty());
    }

    #[test]
    fn first_divergent_checkpoint_is_localized() {
        let (reference, report) = sample();
        let b = CampaignBaseline::capture("b", "w", Scheme::HwInc, 1, &reference, &report);
        let mut perturbed = reference.clone();
        perturbed.checkpoints[1].hash = HashSum::from_raw(99);
        perturbed.checkpoints[2].hash = HashSum::from_raw(98);
        let drifts = b.compare(&perturbed, &report);
        assert_eq!(
            drifts
                .iter()
                .filter(|d| matches!(d, Drift::ReferenceHash { .. }))
                .count(),
            1,
            "only the first divergent checkpoint is reported"
        );
        match &drifts[0] {
            Drift::ReferenceHash {
                checkpoint,
                kind,
                expected,
                got,
            } => {
                assert_eq!(*checkpoint, 1);
                assert_eq!(kind, "m:iter");
                assert_eq!((*expected, *got), (22, 99));
            }
            other => panic!("expected ReferenceHash first, got {other:?}"),
        }
    }

    #[test]
    fn output_and_summary_drift_detected() {
        let (reference, report) = sample();
        let b = CampaignBaseline::capture("b", "w", Scheme::HwInc, 1, &reference, &report);
        let mut fresh = reference.clone();
        fresh.output_digest = 1234;
        let other = hashes(&[(CheckpointKind::End, 5)], 7);
        let ndet_report = CheckReport::from_runs(&[reference.clone(), other]);
        let drifts = b.compare(&fresh, &ndet_report);
        assert!(drifts
            .iter()
            .any(|d| matches!(d, Drift::OutputDigest { got: 1234, .. })));
        assert!(drifts.iter().any(
            |d| matches!(d, Drift::Summary { field, .. } if *field == "structural_divergence")
        ));
        for d in &drifts {
            assert!(!d.to_string().is_empty());
        }
    }

    #[test]
    fn missing_checkpoints_reported_as_count_drift() {
        let (reference, report) = sample();
        let b = CampaignBaseline::capture("b", "w", Scheme::HwInc, 1, &reference, &report);
        let mut short = reference.clone();
        short.checkpoints.pop();
        let drifts = b.compare(&short, &report);
        assert!(matches!(
            drifts[0],
            Drift::CheckpointCount {
                expected: 3,
                got: 2
            }
        ));
    }

    #[test]
    fn json_round_trip_is_lossless() {
        let (reference, report) = sample();
        let b = CampaignBaseline::capture(
            "fig5-hwinc",
            "w:scaled",
            Scheme::HwInc,
            1,
            &reference,
            &report,
        );
        let back = CampaignBaseline::from_json(&b.to_json()).expect("parses");
        assert_eq!(b, back);
    }

    #[test]
    fn save_and_load() {
        let dir = std::env::temp_dir().join(format!("corpus-baseline-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let (reference, report) = sample();
        let b = CampaignBaseline::capture("named", "w", Scheme::SwInc, 9, &reference, &report);
        b.save(&dir).unwrap();
        let loaded = CampaignBaseline::load(&dir, "named").unwrap();
        assert_eq!(b, loaded);
        assert!(CampaignBaseline::load(&dir, "absent").is_err());
        fs::remove_dir_all(&dir).unwrap();
    }
}
