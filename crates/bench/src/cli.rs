//! The one command-line parser of the harness binaries.
//!
//! Every binary of this crate parses its command line with [`parse`],
//! given its read-set: the flag sets it declares, its own among them.
//! A flag is declared as usage text shows it ([`synopsis`]): `--scaled`
//! is a switch, `--spec FILE` takes a value, and `--runs N` takes a
//! non-negative integer. The shared sets are the spec flags
//! ([`SPEC_FLAGS`]), the storage flags ([`STORAGE_FLAGS`], a deployment
//! setting that only names the corpus [`Parsed::open`] opens) and the
//! harness switches [`SCALED`] and [`TRACE`].

use std::sync::Arc;

use corpus::CorpusOptions;
use instantcheck::{parse_rounding, parse_switch, CampaignSpec, FailurePolicy, Scheme};

use crate::HarnessOpts;

/// `--scaled`: use miniature workloads.
pub const SCALED: &str = "--scaled";
/// `--trace`: record per-campaign event traces.
pub const TRACE: &str = "--trace";

/// Every spec flag; each sets one [`CampaignSpec`] field, over the
/// spec `--spec FILE` loads (the JSON `icd` accepts). The read-set of a
/// binary that only describes a campaign (`make_spec`).
pub const SPEC_FLAGS: &[&str] = &[
    "--workload ID",
    "--spec FILE",
    "--scheme S",
    "--cache-model",
    "--runs N",
    "--seed N",
    "--lib-seed N",
    "--switch TOKEN",
    "--rounding TOKEN",
    "--policy P",
    "--max-steps N",
    "--jobs N",
];

/// The spec flags of a binary that keys its runs per app (`table1`,
/// `table2`, `fig5`, `fig8`, `corpus`): all but `--workload`.
pub const PER_APP_FLAGS: &[&str] = SPEC_FLAGS.split_at(1).1;

/// The storage flags: `--corpus-dir DIR` names the corpus to open (or
/// create), and the others size it.
pub const STORAGE_FLAGS: &[&str] = &[
    "--corpus-dir DIR",
    "--corpus-segment-bytes N",
    "--corpus-max-bytes N",
    "--corpus-cache-slots N",
];

/// The read-set of `table1`, `table2`, `fig5` and `fig8`.
pub const CAMPAIGN_READS: &[&[&str]] = &[PER_APP_FLAGS, STORAGE_FLAGS, &[SCALED, TRACE]];

/// The flags this module gives a meaning: outside a binary's read-set,
/// each is refused by name rather than passed on.
const SHARED: &[&[&str]] = &[SPEC_FLAGS, STORAGE_FLAGS, &[SCALED, TRACE]];

/// A declared flag's name: its usage text up to the value.
fn name(flag: &str) -> &str {
    flag.split_once(' ').map_or(flag, |(name, _)| name)
}

/// A command line [`parse`] has vetted, before its store is opened: a
/// binary checks its positionals here, so a usage error creates no
/// corpus.
#[derive(Debug)]
pub struct Parsed {
    /// The command line; its `corpus` is `None` until [`open`](Self::open).
    pub opts: HarnessOpts,
    store: Option<CorpusOptions>,
}

impl Parsed {
    /// Refuses any argument left in [`HarnessOpts::rest`], for a binary
    /// that takes no positionals.
    ///
    /// # Errors
    ///
    /// `unknown argument X` for the first one.
    pub fn no_rest(self) -> Result<Self, String> {
        match self.opts.rest.first() {
            Some(other) => Err(format!("unknown argument {other}")),
            None => Ok(self),
        }
    }

    /// Opens (or creates) the corpus `--corpus-dir` names.
    ///
    /// # Errors
    ///
    /// The store's refusal of its directory or sizes.
    pub fn open(self) -> Result<HarnessOpts, String> {
        let Parsed { mut opts, store } = self;
        if let Some(options) = store {
            opts.corpus = Some(Arc::new(options.open().map_err(|e| e.to_string())?));
        }
        Ok(opts)
    }
}

/// Parses `args` (exclusive of `argv[0]`) against a binary's read-set.
///
/// `reads` lists the flag sets the binary reads. A shared flag, or one
/// of `unread` (the binary's own flags that this mode of it does not
/// read), outside `reads` is an error naming it, not a setting that
/// silently changes nothing. Every flag read lands in
/// [`HarnessOpts::flags`] with its value; any other argument lands in
/// [`HarnessOpts::rest`], in order, for the binary to take as a
/// positional or refuse. Nothing is opened yet: see [`Parsed::open`].
///
/// Flag order is immaterial, and a repeated flag's last value wins: the
/// skip policy's failure budget is resolved against the *final* run
/// count, so `--policy skip --runs 8` and `--runs 8 --policy skip`
/// agree.
///
/// # Errors
///
/// A usage message that starts with the offending flag: a missing or
/// malformed value, a flag outside `reads`, an unreadable spec file,
/// or a corpus size without a corpus.
pub fn parse(
    args: &[String],
    reads: &[&[&'static str]],
    unread: &[&[&'static str]],
) -> Result<Parsed, String> {
    let find = |sets: &[&[&'static str]], arg: &str| {
        sets.iter()
            .flat_map(|set| set.iter())
            .copied()
            .find(|&flag| name(flag) == arg)
    };
    let mut flags = Vec::new();
    let mut rest = Vec::new();
    let mut i = 0;
    while i < args.len() {
        let arg = args[i].as_str();
        i += 1;
        let Some(flag) = find(reads, arg) else {
            if find(SHARED, arg).or(find(unread, arg)).is_some() {
                let read: Vec<&str> = reads
                    .iter()
                    .flat_map(|set| set.iter().map(|f| name(f)))
                    .collect();
                let read = if read.is_empty() {
                    "no spec flag".to_owned()
                } else {
                    read.join(", ")
                };
                return Err(format!(
                    "{arg}: this binary does not read it (it reads {read})"
                ));
            }
            rest.push(arg.to_owned());
            continue;
        };
        let value = match flag.split_once(' ') {
            None => String::new(),
            Some((_, meta)) => {
                let value = args.get(i).ok_or_else(|| format!("{arg} needs a value"))?;
                i += 1;
                if meta == "N" && value.parse::<u64>().is_err() {
                    return Err(format!("{arg}: not a number: {value:?}"));
                }
                value.clone()
            }
        };
        flags.push((name(flag), value));
    }

    let mut opts = HarnessOpts {
        spec: CampaignSpec::new("", Scheme::HwInc),
        scaled: false,
        trace: false,
        corpus: None,
        flags,
        rest,
    };
    let mut spec = match opts.value("--spec") {
        Some(path) => {
            let text = std::fs::read_to_string(path)
                .map_err(|e| format!("--spec: cannot read spec file {path}: {e}"))?;
            CampaignSpec::from_json(text.trim())
                .map_err(|e| format!("--spec: invalid spec file {path}: {e}"))?
        }
        None => CampaignSpec::new("", Scheme::HwInc),
    };
    if let Some(v) = opts.value("--scheme") {
        spec.scheme = Scheme::parse(v).ok_or_else(|| format!("--scheme: unknown scheme {v:?}"))?;
    }
    spec.workload = opts
        .value("--workload")
        .map_or(spec.workload, str::to_owned);
    spec.runs = opts.num("--runs").map_or(spec.runs, |n| n as usize);
    spec.base_seed = opts.num("--seed").unwrap_or(spec.base_seed);
    spec.lib_seed = opts.num("--lib-seed").unwrap_or(spec.lib_seed);
    if let Some(tok) = opts.value("--switch") {
        spec.switch = parse_switch(tok).map_err(|e| format!("--switch: {e}"))?;
    }
    if let Some(tok) = opts.value("--rounding") {
        spec.rounding = parse_rounding(tok).map_err(|e| format!("--rounding: {e}"))?;
    }
    spec.max_steps = opts.num("--max-steps").unwrap_or(spec.max_steps);
    spec.jobs = opts.num("--jobs").map(|n| n as usize).or(spec.jobs);
    spec.cache_model |= opts.switch("--cache-model");
    if let Some(name) = opts.value("--policy") {
        spec.policy = resolve_policy(name, spec.runs).map_err(|e| format!("--policy: {e}"))?;
    }

    let store = match opts.value("--corpus-dir") {
        Some(dir) => {
            let mut options = CorpusOptions::at(dir);
            if let Some(n) = opts.num("--corpus-segment-bytes") {
                options = options.segment_bytes(n);
            }
            if let Some(n) = opts.num("--corpus-max-bytes") {
                options = options.max_bytes(n);
            }
            if let Some(n) = opts.num("--corpus-cache-slots") {
                options = options.cache_slots(n as usize);
            }
            Some(options)
        }
        // A size for no store would be parsed and then dropped.
        None => match STORAGE_FLAGS[1..]
            .iter()
            .map(|f| name(f))
            .find(|f| opts.switch(f))
        {
            Some(flag) => return Err(format!("{flag}: sizes a corpus, so it needs --corpus-dir")),
            None => None,
        },
    };
    opts.spec = spec;
    opts.scaled = opts.switch(SCALED);
    opts.trace = opts.switch(TRACE);
    Ok(Parsed { opts, store })
}

/// A read-set's usage text: each flag bracketed, `[--runs N] [--scaled] …`.
pub fn synopsis(reads: &[&[&str]]) -> String {
    let flags: Vec<String> = reads
        .iter()
        .flat_map(|set| set.iter().map(|f| format!("[{f}]")))
        .collect();
    flags.join(" ")
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

#[cfg(test)]
mod tests {
    use super::*;
    use tsim::SwitchPolicy;

    fn parse(args: &[&str]) -> HarnessOpts {
        let args: Vec<String> = args.iter().map(|s| (*s).to_owned()).collect();
        super::parse(&args, &[SPEC_FLAGS, STORAGE_FLAGS, &[SCALED, TRACE]], &[])
            .and_then(Parsed::open)
            .unwrap()
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
    fn corpus_flags_open_the_store_and_leave_the_spec_alone() {
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
        assert_eq!(sa.spec, CampaignSpec::new("", Scheme::HwInc));
        let corpus = sa.corpus.expect("corpus opened");
        assert_eq!(corpus.dir(), dir.as_path());
        assert_eq!(corpus.cache_stats().capacity, 128);

        // The run key ignores storage placement entirely.
        let keyed = parse(&["--corpus-dir", &dir_s]).spec.run_key(0, 1, None);
        let bare = parse(&[]).spec.run_key(0, 1, None);
        assert_eq!(keyed, bare);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_spec_only_binary_refuses_storage_flags_and_creates_nothing() {
        let dir = std::env::temp_dir().join(format!("icd-cli-spec-only-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let dir_s = dir.to_string_lossy().into_owned();
        let args: Vec<String> = ["--workload", "fft:scaled", "--corpus-dir", &dir_s]
            .iter()
            .map(|s| (*s).to_owned())
            .collect();
        let err = super::parse(&args, &[SPEC_FLAGS], &[]).unwrap_err();
        assert!(err.starts_with("--corpus-dir:"), "{err}");
        assert!(!dir.exists(), "{err}");
    }

    #[test]
    fn make_specs_read_set_refuses_the_harness_switches() {
        for flag in [SCALED, TRACE] {
            let err = super::parse(&[flag.to_owned()], &[SPEC_FLAGS], &[]).unwrap_err();
            assert!(err.starts_with(&format!("{flag}:")), "{err}");
        }
    }

    #[test]
    fn own_flags_are_vetted_and_read_back_apart_from_positionals() {
        const OWN: &[&str] = &["--width N", "--out DIR", "--x"];
        let args =
            |args: &[&str]| -> Vec<String> { args.iter().map(|s| (*s).to_owned()).collect() };
        let sa = super::parse(
            &args(&[
                "check", "--width", "2", "--x", "--out", "a", "--width", "4", "more",
            ]),
            &[OWN, &[SCALED]],
            &[],
        )
        .unwrap()
        .opts;
        assert_eq!(sa.num("--width"), Some(4), "the last value wins");
        assert_eq!(sa.value("--out"), Some("a"));
        assert!(sa.switch("--x") && !sa.scaled);
        assert_eq!(sa.rest, ["check", "more"]);

        let err = |argv: &[&str], unread: &[&[&'static str]]| {
            super::parse(&args(argv), &[OWN], unread).unwrap_err()
        };
        assert!(err(&["--width", "x"], &[]).starts_with("--width: not a number"));
        assert!(err(&["--out"], &[]).starts_with("--out needs a value"));
        // A flag of another mode of the binary is refused by name; one
        // nobody declares passes on to the binary as `rest`.
        let e = err(&["--socket", "s"], &[&["--socket PATH"]]);
        assert!(
            e.starts_with("--socket:") && e.contains("--width, --out, --x"),
            "{e}"
        );
        let sa = super::parse(&args(&["--socket", "s"]), &[OWN], &[]).unwrap();
        assert_eq!(sa.opts.rest, ["--socket", "s"]);
        assert!(sa
            .no_rest()
            .unwrap_err()
            .starts_with("unknown argument --socket"));
    }

    #[test]
    fn a_corpus_size_without_a_corpus_is_refused_by_name() {
        for flag in STORAGE_FLAGS[1..].iter().map(|f| name(f)) {
            let args = [flag.to_owned(), "4096".to_owned()];
            let err = super::parse(&args, &[STORAGE_FLAGS], &[]).unwrap_err();
            assert!(
                err.starts_with(flag) && err.contains("--corpus-dir"),
                "{flag}: {err}"
            );
        }
    }

    #[test]
    fn a_flag_the_binary_does_not_read_is_refused_by_name() {
        let reading = |args: &[&str], reads: &[&str]| {
            let args: Vec<String> = args.iter().map(|s| (*s).to_owned()).collect();
            let reads: Vec<&str> = SPEC_FLAGS
                .iter()
                .filter(|f| reads.contains(&name(f)))
                .copied()
                .collect();
            super::parse(&args, &[&reads], &[]).and_then(Parsed::open)
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
    fn every_declared_spec_flag_is_parsed() {
        for flag in [SPEC_FLAGS, STORAGE_FLAGS].concat().iter().map(|f| name(f)) {
            let err = super::parse(&[flag.to_owned()], &[], &[]).unwrap_err();
            assert!(err.starts_with(flag), "{flag}: {err}");
        }
    }

    #[test]
    fn malformed_input_names_the_flag() {
        let err = |args: &[&str]| {
            let args: Vec<String> = args.iter().map(|s| (*s).to_owned()).collect();
            super::parse(&args, &[SPEC_FLAGS, STORAGE_FLAGS], &[]).unwrap_err()
        };
        assert!(err(&["--runs", "many"]).contains("--runs"));
        assert!(err(&["--runs"]).contains("needs a value"));
        assert!(err(&["--scheme", "quantum"]).contains("unknown scheme"));
        assert!(err(&["--policy", "hope"]).contains("unknown policy"));
        assert!(err(&["--spec", "/no/such/file.json"]).contains("cannot read"));
    }
}
