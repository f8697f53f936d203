//! The Table 1 classification pipeline: bit-exact → FP-rounded →
//! small-structure isolation → nondeterministic.

use std::fmt;

use adhash::FpRound;
use tsim::{Program, SimError};

use crate::checker::{Checker, CheckerConfig};
use crate::ignore::IgnoreSpec;
use crate::report::CheckReport;

/// A program to characterize: a factory (one fresh copy per run) plus
/// the metadata the paper's methodology needs.
pub struct Subject {
    /// The application name (Table 1 column 2).
    pub name: &'static str,
    /// Whether the application performs FP operations (column 4).
    pub uses_fp: bool,
    /// The programmer-supplied spec of known-nondeterministic small
    /// structures (columns 9–10 machinery); empty if none.
    pub ignore: IgnoreSpec,
    /// Builds one fresh copy of the program.
    pub source: Box<dyn Fn() -> Program + Send + Sync>,
}

impl fmt::Debug for Subject {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Subject")
            .field("name", &self.name)
            .field("uses_fp", &self.uses_fp)
            .finish_non_exhaustive()
    }
}

impl Subject {
    /// Creates a subject with no FP and no ignore spec.
    pub fn new(name: &'static str, source: impl Fn() -> Program + Send + Sync + 'static) -> Self {
        Subject {
            name,
            uses_fp: false,
            ignore: IgnoreSpec::new(),
            source: Box::new(source),
        }
    }

    /// Marks the subject as using FP operations.
    #[must_use]
    pub fn with_fp(mut self) -> Self {
        self.uses_fp = true;
        self
    }

    /// Attaches the small-structure ignore spec.
    #[must_use]
    pub fn with_ignore(mut self, ignore: IgnoreSpec) -> Self {
        self.ignore = ignore;
        self
    }
}

/// The determinism class of an application — the four groups Table 1
/// separates with horizontal lines.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DetClass {
    /// Deterministic bit by bit, as is.
    BitExact,
    /// Deterministic modulo FP precision (after FP round-off).
    FpRounded,
    /// Deterministic after also ignoring known small nondeterministic
    /// structures.
    IgnoringStructs,
    /// Nondeterministic even then.
    Nondeterministic,
}

impl fmt::Display for DetClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            DetClass::BitExact => "bit-by-bit",
            DetClass::FpRounded => "FP-prec",
            DetClass::IgnoringStructs => "small-struct",
            DetClass::Nondeterministic => "NDet",
        };
        write!(f, "{s}")
    }
}

/// The full Table 1 row for one application.
#[derive(Debug)]
pub struct Characterization {
    /// Application name.
    pub name: &'static str,
    /// Whether the application uses FP.
    pub uses_fp: bool,
    /// The determinism class reached by the pipeline.
    pub class: DetClass,
    /// The bit-exact campaign (columns 5–6).
    pub bit_exact: CheckReport,
    /// The FP-rounded campaign (columns 7–8), if run.
    pub fp_rounded: Option<CheckReport>,
    /// The campaign with small structures isolated (column 9), if run.
    pub isolated: Option<CheckReport>,
}

impl Characterization {
    /// The report that determined the final class.
    pub fn final_report(&self) -> &CheckReport {
        match self.class {
            DetClass::BitExact => &self.bit_exact,
            DetClass::FpRounded => self.fp_rounded.as_ref().unwrap_or(&self.bit_exact),
            DetClass::IgnoringStructs | DetClass::Nondeterministic => self
                .isolated
                .as_ref()
                .or(self.fp_rounded.as_ref())
                .unwrap_or(&self.bit_exact),
        }
    }

    /// Column 5: deterministic as is?
    pub fn det_as_is(&self) -> bool {
        self.bit_exact.is_deterministic()
    }

    /// Column 6: first run detecting bit-by-bit nondeterminism.
    pub fn first_ndet_run(&self) -> Option<usize> {
        self.bit_exact.first_ndet_run
    }

    /// Column 8: first nondeterministic run after FP rounding.
    pub fn first_ndet_run_after_fp(&self) -> Option<usize> {
        self.fp_rounded.as_ref().and_then(|r| r.first_ndet_run)
    }

    /// Columns 10–11: deterministic / nondeterministic dynamic checking
    /// points under the final configuration.
    pub fn dyn_points(&self) -> (usize, usize) {
        let r = self.final_report();
        (r.det_points, r.ndet_points)
    }

    /// Column 12: deterministic at the end of the program (under the
    /// final configuration)?
    pub fn det_at_end(&self) -> bool {
        self.final_report().det_at_end
    }

    /// The failed runs the final stage's campaign absorbed (always
    /// empty under the default [`FailurePolicy::Abort`](crate::FailurePolicy),
    /// which surfaces the error from [`characterize`] instead).
    pub fn failures(&self) -> &[crate::RunFailure] {
        &self.final_report().failures
    }
}

/// Runs the Table 1 pipeline for one subject: check bit-exact; if
/// nondeterministic and the app uses FP, re-check with FP rounding; if
/// still nondeterministic and an ignore spec exists, re-check with the
/// small structures isolated.
///
/// `template` supplies the scheme, number of runs, seeds, switch
/// policy, and [`FailurePolicy`](crate::FailurePolicy); its spec's
/// `rounding`/`ignore` fields are overridden per stage.
///
/// # Errors
///
/// Propagates any [`SimError`] from the underlying runs that the
/// template's failure policy does not absorb (under the default abort
/// policy, that is every error).
///
/// # Panics
///
/// When the template is invalid (`runs == 0`) — validate it with
/// [`Checker::new`] first if it comes from untrusted input.
pub fn characterize(
    subject: &Subject,
    template: &CheckerConfig,
) -> Result<Characterization, SimError> {
    let stage = |rounding: Option<FpRound>, ignore: IgnoreSpec| {
        let mut cfg = template.clone();
        cfg.spec.rounding = rounding;
        cfg.spec.ignore = ignore;
        Checker::new(cfg)
            .expect("characterize template must be a valid config")
            .check(&subject.source)
    };

    let bit_exact = stage(None, IgnoreSpec::new())?;

    let mut fp_rounded = None;
    let mut isolated = None;
    let class = if bit_exact.is_deterministic() {
        DetClass::BitExact
    } else {
        let rounding = subject.uses_fp.then(FpRound::default);
        let after_fp = if subject.uses_fp {
            let r = stage(rounding, IgnoreSpec::new())?;
            fp_rounded = Some(r);
            fp_rounded.as_ref().unwrap()
        } else {
            &bit_exact
        };
        if after_fp.is_deterministic() {
            DetClass::FpRounded
        } else if !subject.ignore.is_empty() {
            let r = stage(rounding, subject.ignore.clone())?;
            let det = r.is_deterministic();
            isolated = Some(r);
            if det {
                DetClass::IgnoringStructs
            } else {
                DetClass::Nondeterministic
            }
        } else {
            DetClass::Nondeterministic
        }
    };

    Ok(Characterization {
        name: subject.name,
        uses_fp: subject.uses_fp,
        class,
        bit_exact,
        fp_rounded,
        isolated,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheme::Scheme;
    use tsim::{ProgramBuilder, ValKind};

    fn cfg() -> CheckerConfig {
        CheckerConfig::new(Scheme::HwInc).with_runs(8)
    }

    #[test]
    fn bit_exact_class() {
        let subject = Subject::new("sum", || {
            let mut b = ProgramBuilder::new(2);
            let g = b.global("G", ValKind::U64, 1);
            let lock = b.mutex();
            for t in 0..2u64 {
                b.thread(async move |ctx| {
                    ctx.lock(lock).await;
                    let v = ctx.load(g.at(0)).await;
                    ctx.store(g.at(0), v + t + 1).await;
                    ctx.unlock(lock).await;
                });
            }
            b.build()
        });
        let c = characterize(&subject, &cfg()).unwrap();
        assert_eq!(c.class, DetClass::BitExact);
        assert!(c.det_as_is());
        assert_eq!(c.first_ndet_run(), None);
        assert!(c.det_at_end());
        assert_eq!(c.class.to_string(), "bit-by-bit");
    }

    #[test]
    fn fp_rounded_class() {
        // FP sum: order-dependent last ulps, deterministic after
        // rounding.
        let subject = Subject::new("fpsum", || {
            let mut b = ProgramBuilder::new(3);
            let g = b.global("G", ValKind::F64, 1);
            let lock = b.mutex();
            for t in 0..3 {
                let term = [0.1f64, 0.2, 0.3][t];
                b.thread(async move |ctx| {
                    ctx.lock(lock).await;
                    let v = ctx.load_f64(g.at(0)).await;
                    ctx.store_f64(g.at(0), v + term).await;
                    ctx.unlock(lock).await;
                });
            }
            b.build()
        })
        .with_fp();
        let c = characterize(&subject, &cfg()).unwrap();
        assert_eq!(c.class, DetClass::FpRounded);
        assert!(!c.det_as_is());
        assert!(c.first_ndet_run().is_some());
        assert_eq!(c.first_ndet_run_after_fp(), None);
    }

    #[test]
    fn ignoring_structs_class() {
        // Deterministic result + a schedule-dependent scratch word.
        let subject = Subject::new("scratchy", || {
            let mut b = ProgramBuilder::new(2);
            let g = b.global("result", ValKind::U64, 1);
            let scratch = b.global("scratch", ValKind::U64, 1);
            let lock = b.mutex();
            for t in 0..2u64 {
                b.thread(async move |ctx| {
                    ctx.lock(lock).await;
                    let v = ctx.load(g.at(0)).await;
                    ctx.store(g.at(0), v + t + 1).await;
                    ctx.store(scratch.at(0), t).await; // last writer wins
                    ctx.unlock(lock).await;
                });
            }
            b.build()
        })
        .with_ignore(IgnoreSpec::new().ignore_global("scratch"));
        let c = characterize(&subject, &cfg()).unwrap();
        assert_eq!(c.class, DetClass::IgnoringStructs);
        assert!(c.isolated.is_some());
        let (det, ndet) = c.dyn_points();
        assert!(ndet == 0 && det > 0);
    }

    #[test]
    fn skip_policy_rides_through_the_pipeline() {
        use crate::policy::FailurePolicy;
        use tsim::{FaultKind, FaultPlan, Trigger};

        let subject = Subject::new("faulty-sum", || {
            let mut b = ProgramBuilder::new(2);
            let g = b.global("G", ValKind::U64, 1);
            let lock = b.mutex();
            for t in 0..2u64 {
                b.thread(async move |ctx| {
                    let p = ctx.malloc("tmp", tsim::TypeTag::u64s(), 1).await;
                    ctx.store(p, t).await;
                    ctx.lock(lock).await;
                    let v = ctx.load(g.at(0)).await;
                    ctx.store(g.at(0), v + t + 1).await;
                    ctx.unlock(lock).await;
                    ctx.free(p).await;
                });
            }
            b.build()
        });
        let plan = FaultPlan::new(11).with(FaultKind::AllocFail, Trigger::Nth(0));
        let template = cfg()
            .with_policy(FailurePolicy::Skip { max_failures: 2 })
            .with_fault_in_run(3, plan);
        let c = characterize(&subject, &template).unwrap();
        assert_eq!(c.class, DetClass::BitExact);
        assert_eq!(c.failures().len(), 1);
        assert_eq!(c.failures()[0].run_index, 3);
    }

    #[test]
    fn nondeterministic_class() {
        let subject = Subject::new("lastwriter", || {
            let mut b = ProgramBuilder::new(2);
            let g = b.global("G", ValKind::U64, 1);
            let lock = b.mutex();
            for t in 0..2u64 {
                b.thread(async move |ctx| {
                    ctx.lock(lock).await;
                    ctx.store(g.at(0), t + 1).await;
                    ctx.unlock(lock).await;
                });
            }
            b.build()
        });
        let c = characterize(&subject, &cfg()).unwrap();
        assert_eq!(c.class, DetClass::Nondeterministic);
        assert!(!c.det_at_end());
        let (_, ndet) = c.dyn_points();
        assert!(ndet > 0);
    }
}
