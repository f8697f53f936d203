//! Usage errors across the binaries: every flag goes through the one
//! parser (`bench::cli::parse`), so a malformed or missing value, or a
//! flag the binary (or this mode of it) does not read, is refused by
//! name with exit status 2 before anything is created.

use std::process::{Command, Stdio};

#[test]
fn refused_flags_are_named_first_and_create_nothing() {
    let icd = env!("CARGO_BIN_EXE_icd");
    let corpus = env!("CARGO_BIN_EXE_corpus");
    let table2 = env!("CARGO_BIN_EXE_table2");
    let cases: &[(&str, &[&str], &str)] = &[
        (icd, &["--width", "x"], "--width"),
        (icd, &["--queue-cap"], "--queue-cap"),
        (icd, &["--connect", "S", "--width", "4"], "--width"),
        (icd, &["--connect", "S", "--out", "D"], "--out"),
        (
            corpus,
            &["record", "--app", "canneal", "--trace"],
            "--trace",
        ),
        (
            corpus,
            &["check", "--app", "canneal", "--workload", "x"],
            "--workload",
        ),
        (table2, &["--workload", "x"], "--workload"),
        (corpus, &["dump"], "--corpus-dir"),
        (corpus, &["dump", "--corpus-dir"], "--corpus-dir"),
        (corpus, &["dump", "--x", "D"], "--x"),
    ];
    for (i, (bin, args, flag)) in cases.iter().enumerate() {
        // A fresh working directory per case: the default `results/`
        // artifacts, `--out D` and the default corpus would all land
        // in it.
        let cwd = std::env::temp_dir().join(format!("usage-errors-{}-{i}", std::process::id()));
        let _ = std::fs::remove_dir_all(&cwd);
        std::fs::create_dir_all(&cwd).unwrap();
        let out = Command::new(bin)
            .args(*args)
            .current_dir(&cwd)
            .stdin(Stdio::null())
            .output()
            .expect("run the binary");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{bin} {args:?}: {stderr}");
        assert!(stderr.starts_with(flag), "{bin} {args:?}: {stderr}");
        let left: Vec<_> = std::fs::read_dir(&cwd)
            .unwrap()
            .map(|e| e.unwrap().file_name())
            .collect();
        assert!(left.is_empty(), "{bin} {args:?} created {left:?}");
        std::fs::remove_dir_all(&cwd).unwrap();
    }
}
