//! Spec-driven command-line parsing shared by the harness binaries.
//!
//! Every campaign binary parses its command line with [`parse_spec`]
//! into one [`HarnessOpts`]: a [`CampaignSpec`] plus the harness-only
//! switches. Each flag (`--runs`, `--seed`, `--switch`, …) sets one spec
//! field, and `--spec FILE` loads a full serialized spec — the same JSON
//! the `icd` orchestrator accepts — which individual flags may then
//! override. Binaries build their checker configs from that spec with
//! `CheckerConfig::from_spec`, so no flag is parsed and then dropped.

use std::sync::Arc;

use corpus::{Corpus, CorpusError, CorpusOptions};
use instantcheck::{parse_rounding, parse_switch, CampaignSpec, FailurePolicy, Scheme};

use crate::HarnessOpts;

/// Parses the shared spec flags out of `args` (exclusive of `argv[0]`).
///
/// Recognized: `--spec FILE`, `--workload ID`, `--scheme S` (lenient:
/// `hw-inc`, `SwTr`, …), `--scaled`, `--runs N`, `--seed N`,
/// `--lib-seed N`, `--switch TOKEN`, `--rounding TOKEN`, `--policy P`
/// (`abort`/`skip`/`retry`), `--max-steps N`, `--jobs N`,
/// `--cache-model`, `--trace`, `--corpus-dir DIR`,
/// `--corpus-segment-bytes N`, `--corpus-max-bytes N`,
/// `--corpus-cache-slots N`. Anything else lands in
/// [`HarnessOpts::rest`].
/// (`--workload` matters for spec authoring; the table/figure binaries
/// key their corpus entries per app.)
///
/// Flag order is immaterial: the skip policy's failure budget is
/// resolved against the *final* run count, so `--policy skip --runs 8`
/// and `--runs 8 --policy skip` agree.
///
/// # Errors
///
/// A usage message naming the offending flag (missing value, malformed
/// number, unknown token, unreadable spec file or corpus directory).
pub fn parse_spec(args: &[String]) -> Result<HarnessOpts, String> {
    parse_flags(args, None, |_| Ok(()))
}

/// [`parse_spec`] for a binary with arguments of its own: `check_rest`
/// sees the arguments left for [`HarnessOpts::rest`] before the corpus
/// is opened, so a usage error it returns (or exits on) leaves no
/// store behind at `--corpus-dir`.
///
/// # Errors
///
/// Those of [`parse_spec`], and `check_rest`'s.
pub fn parse_spec_then(
    args: &[String],
    check_rest: impl FnOnce(&[String]) -> Result<(), String>,
) -> Result<HarnessOpts, String> {
    parse_flags(args, None, check_rest)
}

/// [`parse_spec`] for a binary that reads only the flags in `reads` of
/// those [`parse_spec`] recognizes. Any other such flag is an error
/// naming it, not a setting that silently changes nothing; it is
/// refused before the corpus is opened.
///
/// # Errors
///
/// Those of [`parse_spec`], and the first recognized flag not in
/// `reads`.
pub fn parse_spec_reading(args: &[String], reads: &[&str]) -> Result<HarnessOpts, String> {
    parse_flags(args, Some(reads), |_| Ok(()))
}

/// The error for the first argument no parser recognized: the
/// `check_rest` of a binary that takes no arguments of its own.
pub(crate) fn no_rest(rest: &[String]) -> Result<(), String> {
    match rest.first() {
        None => Ok(()),
        Some(other) => Err(format!("unknown argument {other}")),
    }
}

/// The shared parser: `reads` restricts the spec flags (see
/// [`parse_spec_reading`]) and `check_rest` vets the leftover
/// arguments before the corpus is opened (see [`parse_spec_then`]).
pub(crate) fn parse_flags(
    args: &[String],
    reads: Option<&[&str]>,
    check_rest: impl FnOnce(&[String]) -> Result<(), String>,
) -> Result<HarnessOpts, String> {
    let mut spec_file: Option<String> = None;
    let mut workload: Option<String> = None;
    let mut scheme: Option<Scheme> = None;
    let mut runs: Option<usize> = None;
    let mut seed: Option<u64> = None;
    let mut lib_seed: Option<u64> = None;
    let mut switch: Option<String> = None;
    let mut rounding: Option<String> = None;
    let mut policy: Option<String> = None;
    let mut max_steps: Option<u64> = None;
    let mut jobs: Option<usize> = None;
    let mut cache_model = false;
    let mut scaled = false;
    let mut trace = false;
    let mut corpus_dir: Option<String> = None;
    let mut corpus_segment_bytes: Option<u64> = None;
    let mut corpus_max_bytes: Option<u64> = None;
    let mut corpus_cache_slots: Option<u64> = None;
    let mut rest = Vec::new();

    let mut i = 0;
    while i < args.len() {
        let flag = args[i].as_str();
        let mut value = || -> Result<String, String> {
            i += 1;
            args.get(i)
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match flag {
            "--spec" => spec_file = Some(value()?),
            "--workload" => workload = Some(value()?),
            "--scheme" => {
                let v = value()?;
                scheme = Some(Scheme::parse(&v).ok_or_else(|| format!("unknown scheme {v:?}"))?);
            }
            "--scaled" => scaled = true,
            "--trace" => trace = true,
            "--cache-model" => cache_model = true,
            "--runs" => runs = Some(parse_num(flag, &value()?)?),
            "--seed" => seed = Some(parse_num(flag, &value()?)?),
            "--lib-seed" => lib_seed = Some(parse_num(flag, &value()?)?),
            "--switch" => switch = Some(value()?),
            "--rounding" => rounding = Some(value()?),
            "--policy" => policy = Some(value()?),
            "--max-steps" => max_steps = Some(parse_num(flag, &value()?)?),
            "--jobs" => jobs = Some(parse_num(flag, &value()?)?),
            "--corpus-dir" => corpus_dir = Some(value()?),
            "--corpus-segment-bytes" => corpus_segment_bytes = Some(parse_num(flag, &value()?)?),
            "--corpus-max-bytes" => corpus_max_bytes = Some(parse_num(flag, &value()?)?),
            "--corpus-cache-slots" => corpus_cache_slots = Some(parse_num(flag, &value()?)?),
            other => {
                rest.push(other.to_owned());
                i += 1;
                continue;
            }
        }
        if let Some(reads) = reads.filter(|reads| !reads.contains(&flag)) {
            let read = match reads {
                [] => "no spec flag".to_owned(),
                _ => reads.join(", "),
            };
            return Err(format!(
                "{flag}: this binary does not read it (it reads {read})"
            ));
        }
        i += 1;
    }

    let mut spec = match &spec_file {
        Some(path) => {
            let text = std::fs::read_to_string(path)
                .map_err(|e| format!("cannot read spec file {path}: {e}"))?;
            CampaignSpec::from_json(text.trim())
                .map_err(|e| format!("invalid spec file {path}: {e}"))?
        }
        None => CampaignSpec::new("", scheme.unwrap_or(Scheme::HwInc)),
    };
    if spec_file.is_some() {
        if let Some(s) = scheme {
            spec.scheme = s;
        }
    }
    if let Some(w) = workload {
        spec.workload = w;
    }
    if let Some(n) = runs {
        spec.runs = n;
    }
    if let Some(s) = seed {
        spec.base_seed = s;
    }
    if let Some(s) = lib_seed {
        spec.lib_seed = s;
    }
    if let Some(tok) = &switch {
        spec.switch = parse_switch(tok).map_err(|e| format!("--switch: {e}"))?;
    }
    if let Some(tok) = &rounding {
        spec.rounding = parse_rounding(tok).map_err(|e| format!("--rounding: {e}"))?;
    }
    if let Some(n) = max_steps {
        spec.max_steps = n;
    }
    if let Some(n) = jobs {
        spec.jobs = Some(n);
    }
    if cache_model {
        spec.cache_model = true;
    }
    if let Some(name) = &policy {
        spec.policy = resolve_policy(name, spec.runs)?;
    }

    // Storage placement: flags override what the spec file carried,
    // and whatever wins is echoed back into the spec's shape-only
    // fields (never the run key).
    if let Some(dir) = corpus_dir {
        spec.corpus_dir = Some(dir);
    }
    if let Some(n) = corpus_segment_bytes {
        spec.corpus_segment_bytes = Some(n);
    }
    if let Some(n) = corpus_max_bytes {
        spec.corpus_max_bytes = Some(n);
    }
    if let Some(n) = corpus_cache_slots {
        spec.corpus_cache_slots = Some(n);
    }
    // Every usage error is reported before the store is created.
    check_rest(&rest)?;
    let corpus = match &spec.corpus_dir {
        Some(dir) => Some(Arc::new(
            open_corpus(
                dir,
                spec.corpus_segment_bytes,
                spec.corpus_max_bytes,
                spec.corpus_cache_slots,
            )
            .map_err(|e| e.to_string())?,
        )),
        None => None,
    };

    Ok(HarnessOpts {
        spec,
        scaled,
        trace,
        corpus,
        rest,
    })
}

/// Opens (or creates) the corpus the storage flags describe: the
/// `--corpus-dir` directory, sized by `--corpus-segment-bytes`,
/// `--corpus-max-bytes` and `--corpus-cache-slots` where given. Every
/// binary with storage flags opens its corpus here.
///
/// # Errors
///
/// The corpus could not be opened.
pub fn open_corpus(
    dir: &str,
    segment_bytes: Option<u64>,
    max_bytes: Option<u64>,
    cache_slots: Option<u64>,
) -> Result<Corpus, CorpusError> {
    let mut options = CorpusOptions::at(dir);
    if let Some(n) = segment_bytes {
        options = options.segment_bytes(n);
    }
    if let Some(n) = max_bytes {
        options = options.max_bytes(n);
    }
    if let Some(n) = cache_slots {
        options = options.cache_slots(n as usize);
    }
    options.open()
}

/// Resolves a `--policy` name against the campaign's final run count
/// (the skip budget is half the campaign, as the harness has always
/// done).
///
/// # Errors
///
/// Unknown policy names.
pub fn resolve_policy(name: &str, runs: usize) -> Result<FailurePolicy, String> {
    match name {
        "abort" => Ok(FailurePolicy::Abort),
        "skip" => Ok(FailurePolicy::Skip {
            max_failures: runs.div_ceil(2),
        }),
        "retry" => Ok(FailurePolicy::Retry { max_retries: 2 }),
        other => Err(format!(
            "unknown policy {other:?} (expected abort, skip, or retry)"
        )),
    }
}

fn parse_num<T: std::str::FromStr>(flag: &str, text: &str) -> Result<T, String> {
    text.parse()
        .map_err(|_| format!("{flag}: not a number: {text:?}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsim::SwitchPolicy;

    fn parse(args: &[&str]) -> HarnessOpts {
        parse_spec(&args.iter().map(|s| (*s).to_owned()).collect::<Vec<_>>()).unwrap()
    }

    #[test]
    fn defaults_and_aliases_agree_with_the_old_flags() {
        let sa = parse(&[]);
        assert_eq!(sa.spec, CampaignSpec::new("", Scheme::HwInc));
        assert!(!sa.scaled && !sa.trace && sa.corpus.is_none() && sa.rest.is_empty());

        let sa = parse(&[
            "--scaled",
            "--runs",
            "8",
            "--seed",
            "7",
            "--jobs",
            "3",
            "--trace",
            "--cache-model",
        ]);
        assert!(sa.scaled && sa.trace);
        assert_eq!(sa.spec.runs, 8);
        assert_eq!(sa.spec.base_seed, 7);
        assert_eq!(sa.spec.jobs, Some(3));
        assert!(sa.spec.cache_model);
    }

    #[test]
    fn policy_budget_uses_the_final_run_count_either_order() {
        let a = parse(&["--policy", "skip", "--runs", "9"]);
        let b = parse(&["--runs", "9", "--policy", "skip"]);
        assert_eq!(a.spec.policy, FailurePolicy::Skip { max_failures: 5 });
        assert_eq!(a.spec.policy, b.spec.policy);
    }

    #[test]
    fn scheme_switch_and_rounding_tokens_parse() {
        let sa = parse(&[
            "--scheme",
            "sw-tr",
            "--switch",
            "every-nth:4",
            "--rounding",
            "mask-mantissa:12",
        ]);
        assert_eq!(sa.spec.scheme, Scheme::SwTr);
        assert_eq!(sa.spec.switch, SwitchPolicy::EveryNth(4));
        assert!(sa.spec.rounding.is_some());
    }

    #[test]
    fn unknown_arguments_pass_through_in_order() {
        let sa = parse(&[
            "record",
            "--app",
            "canneal",
            "--runs",
            "4",
            "--require-hits",
        ]);
        assert_eq!(sa.rest, ["record", "--app", "canneal", "--require-hits"]);
        assert_eq!(sa.spec.runs, 4);
    }

    #[test]
    fn spec_file_round_trips_and_flags_override_it() {
        let dir = std::env::temp_dir().join(format!("icd-cli-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("a.spec.json");
        let spec = CampaignSpec::new("canneal:scaled", Scheme::HwInc).with_runs(8);
        std::fs::write(&path, spec.to_json()).unwrap();

        let path_s = path.to_string_lossy().into_owned();
        let sa = parse(&["--spec", &path_s]);
        assert_eq!(sa.spec, spec);

        let sa = parse(&["--spec", &path_s, "--runs", "2"]);
        assert_eq!(sa.spec.workload, "canneal:scaled");
        assert_eq!(sa.spec.runs, 2);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corpus_flags_open_the_store_and_land_in_the_spec_shape() {
        let dir = std::env::temp_dir().join(format!("icd-cli-corpus-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let dir_s = dir.to_string_lossy().into_owned();

        let sa = parse(&[
            "--corpus-dir",
            &dir_s,
            "--corpus-segment-bytes",
            "65536",
            "--corpus-max-bytes",
            "1048576",
            "--corpus-cache-slots",
            "128",
        ]);
        assert_eq!(sa.spec.corpus_dir.as_deref(), Some(dir_s.as_str()));
        assert_eq!(sa.spec.corpus_segment_bytes, Some(65536));
        assert_eq!(sa.spec.corpus_max_bytes, Some(1048576));
        assert_eq!(sa.spec.corpus_cache_slots, Some(128));
        let corpus = sa.corpus.expect("corpus opened");
        assert_eq!(corpus.dir(), dir.as_path());
        assert_eq!(corpus.cache_capacity(), 128);

        // The run key ignores storage placement entirely.
        let keyed = parse(&["--corpus-dir", &dir_s]).spec.run_key(0, 1, None);
        let bare = parse(&[]).spec.run_key(0, 1, None);
        assert_eq!(keyed, bare);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_flag_the_binary_does_not_read_is_refused_by_name() {
        let reading = |args: &[&str], reads: &[&str]| {
            let args: Vec<String> = args.iter().map(|s| (*s).to_owned()).collect();
            parse_spec_reading(&args, reads)
        };
        let sa = reading(&["--seed", "4", "--extra"], &["--runs", "--seed"]).unwrap();
        assert_eq!(sa.spec.base_seed, 4);
        assert_eq!(sa.rest, ["--extra"]);

        let err = reading(&["--seed", "4", "--switch", "every-access"], &["--seed"]).unwrap_err();
        assert!(
            err.starts_with("--switch:") && err.contains("--seed"),
            "{err}"
        );
        let err = reading(&["--runs", "3"], &[]).unwrap_err();
        assert!(
            err.starts_with("--runs:") && err.contains("no spec flag"),
            "{err}"
        );

        // Refused before the store would be created.
        let dir = std::env::temp_dir().join(format!("icd-cli-unread-{}", std::process::id()));
        let err = reading(&["--corpus-dir", &dir.to_string_lossy()], &[]).unwrap_err();
        assert!(err.starts_with("--corpus-dir:"), "{err}");
        assert!(!dir.exists());
    }

    #[test]
    fn malformed_input_names_the_flag() {
        let err = |args: &[&str]| {
            parse_spec(&args.iter().map(|s| (*s).to_owned()).collect::<Vec<_>>()).unwrap_err()
        };
        assert!(err(&["--runs", "many"]).contains("--runs"));
        assert!(err(&["--runs"]).contains("needs a value"));
        assert!(err(&["--scheme", "quantum"]).contains("unknown scheme"));
        assert!(err(&["--policy", "hope"]).contains("unknown policy"));
        assert!(err(&["--spec", "/no/such/file.json"]).contains("cannot read"));
    }
}
