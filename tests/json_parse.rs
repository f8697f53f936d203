//! `obs::json::parse` on large and hostile input. It reads whole
//! telemetry snapshots (`icprof --profile`) and every intake line, so
//! its time must grow linearly with the document, and no input may
//! panic it: a malformed line must come back as an `Err`.

use std::time::{Duration, Instant};

use minicheck::{check, Gen};
use obs::json::{self, Layout, Value, MAX_DEPTH};
use obs::{LaneSpan, TelemetrySnapshot};

/// Far above what a linear parse of a few MiB takes in a debug build
/// and far below what a parse that rescans the rest of the input per
/// character takes on the same documents.
const BOUND: Duration = Duration::from_secs(10);

/// The most lane spans a telemetry snapshot retains.
const LANE_CAP: u64 = 16_384;

fn timed<T>(what: &str, f: impl FnOnce() -> T) -> T {
    let start = Instant::now();
    let out = f();
    let took = start.elapsed();
    assert!(took < BOUND, "{what} took {took:?}");
    out
}

#[test]
fn a_full_lane_log_round_trips_in_linear_time() {
    let snap = TelemetrySnapshot {
        uptime_ns: 1 << 40,
        lanes: (0..LANE_CAP)
            .map(|i| LaneSpan {
                lane: format!("icd.w{}", i % 4),
                name: "campaign".to_owned(),
                start_ns: i * 1_000,
                end_ns: i * 1_000 + 750,
                detail: i,
            })
            .collect(),
        ..TelemetrySnapshot::default()
    };
    let text = snap.to_json();
    assert!(text.len() > 1 << 20, "{} bytes", text.len());
    let v = timed("parsing a full lane log", || json::parse(&text)).unwrap();
    assert_eq!(TelemetrySnapshot::from_json(&v).unwrap(), snap);
}

#[test]
fn a_mebibyte_string_round_trips_in_linear_time() {
    let pieces = [
        "plain ascii text ",
        "é→ü ",
        "\"q\" ",
        "\\ ",
        "\n\t",
        "\u{1}",
    ];
    let mut s = String::new();
    for piece in pieces.iter().cycle() {
        if s.len() >= 1 << 20 {
            break;
        }
        s.push_str(piece);
    }
    let text = json::to_string(&s, Layout::Compact);
    let v = timed("parsing a 1 MiB string", || json::parse(&text)).unwrap();
    assert_eq!(v, Value::Str(s));
}

/// Every JSON document pinned by `json_bytes.rs`, one per raw string
/// literal there; a JSONL literal contributes each of its lines.
fn golden_documents() -> Vec<String> {
    let source = include_str!("json_bytes.rs");
    let mut docs = Vec::new();
    for rest in source.split("r#\"").skip(1) {
        let doc = &rest[..rest.find("\"#").expect("closed raw literal")];
        if json::parse(doc).is_ok() {
            docs.push(doc.to_owned());
        } else {
            for line in doc.lines() {
                json::parse(line).unwrap_or_else(|e| panic!("golden line {line:?}: {e}"));
                docs.push(line.to_owned());
            }
        }
    }
    docs
}

/// A run of string content far longer than any line the intake
/// accepts, mixing plain, multi-byte and escaped characters.
fn oversize_string(g: &mut Gen) -> Vec<u8> {
    let pieces: [&[u8]; 6] = [b"a", "é".as_bytes(), b"\\\"", b"\\\\", b"\\u00e9", b"\\n"];
    let len = g.usize_in(64 << 10, 256 << 10);
    let mut out = Vec::with_capacity(len + 8);
    while out.len() < len {
        let piece: &&[u8] = g.pick(&pieces);
        out.extend_from_slice(piece);
    }
    out
}

#[test]
fn mutated_golden_documents_parse_or_fail_cleanly() {
    let docs = golden_documents();
    assert!(docs.len() >= 20, "found {} golden documents", docs.len());
    check("json_mutations", 512, |g| {
        let seed = g.pick(&docs).as_bytes();
        let mut doc = seed.to_vec();
        match g.usize_in(0, 6) {
            // Truncate.
            0 => doc.truncate(g.usize_in(0, seed.len())),
            // Splice a piece of another document in.
            1 => {
                let other = g.pick(&docs).as_bytes();
                let a = g.usize_in(0, other.len());
                let b = g.usize_in(a, other.len() + 1);
                let at = g.usize_in(0, doc.len() + 1);
                doc.splice(at..at, other[a..b].iter().copied());
            }
            // Flip one bit of one byte.
            2 | 3 => {
                let i = g.usize_in(0, doc.len());
                doc[i] ^= 1 << g.usize_in(0, 8);
            }
            // Nest past the depth bound.
            4 => {
                let depth = MAX_DEPTH + g.usize_in(0, 64);
                let (open, close): (&[u8], &[u8]) = if g.bool() {
                    (b"[", b"]")
                } else {
                    (b"{\"k\":", b"}")
                };
                doc = [open.repeat(depth), doc, close.repeat(depth)].concat();
                let text = String::from_utf8(doc).unwrap();
                let err = json::parse(&text).unwrap_err();
                assert!(err.contains("nesting deeper than"), "{err}");
                return;
            }
            // An oversize string right after a quote.
            _ => {
                let quotes: Vec<usize> = (0..doc.len()).filter(|&i| doc[i] == b'"').collect();
                let at = *g.pick(&quotes) + 1;
                let long = oversize_string(g);
                doc.splice(at..at, long);
            }
        }
        let text = String::from_utf8_lossy(&doc);
        let _ = json::parse(&text);
    });
}

/// Text outside JSON's grammar is an `Err` naming the byte it failed
/// at, not a value.
#[test]
fn text_outside_the_grammar_is_refused_at_its_offset() {
    for (doc, at) in [
        (r#""\u+041""#, "byte 1"),
        (r#"["\u00g1"]"#, "byte 2"),
        (r#""\u12""#, "byte 1"),
        ("01", "byte 0"),
        ("[-01]", "byte 1"),
        ("1.", "byte 0"),
        ("[1.e5]", "byte 1"),
        ("1e", "byte 0"),
        (r#"{"a":-2E+}"#, "byte 5"),
        ("-", "byte 0"),
        ("-.5", "byte 0"),
        ("\"a\u{1}b\"", "byte 2"),
        ("[\"tab\there\"]", "byte 5"),
        ("\"new\nline\"", "byte 4"),
    ] {
        let err = json::parse(doc).expect_err(doc);
        assert!(err.contains(at), "{doc:?}: {err}");
    }
}

#[test]
fn numbers_inside_the_grammar_keep_their_text() {
    for doc in [
        "0",
        "-0",
        "10",
        "0.5",
        "-0.0e0",
        "1E+9",
        "2e-7",
        "18446744073709551615",
    ] {
        assert_eq!(json::parse(doc), Ok(Value::Num(doc.to_owned())), "{doc}");
    }
}

#[test]
fn surrogate_pairs_decode_to_one_character() {
    // What Python's `json.dumps` writes for an emoji.
    assert_eq!(
        json::parse(r#""\ud83d\ude00""#),
        Ok(Value::Str("\u{1f600}".to_owned()))
    );
    assert_eq!(
        json::parse(r#""a\uD834\uDD1Eb""#),
        Ok(Value::Str("a\u{1d11e}b".to_owned()))
    );
    // An unpaired surrogate has no character of its own.
    assert_eq!(
        json::parse(r#""\ud83d!""#),
        Ok(Value::Str("\u{fffd}!".to_owned()))
    );
    assert_eq!(
        json::parse(r#""\ude00\ud83dA""#),
        Ok(Value::Str("\u{fffd}\u{fffd}A".to_owned()))
    );
    // A bad escape after a high surrogate is still an error.
    assert!(json::parse(r#""\ud83d\uzzzz""#).is_err());
}

/// The stricter grammar still reads every JSON artifact the repository
/// commits: the benchmark declaration and every file under `results/`.
#[test]
fn every_committed_json_artifact_still_parses() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files = vec![root.join("BENCHMARK.json")];
    let mut dirs = vec![root.join("results")];
    while let Some(dir) = dirs.pop() {
        for entry in std::fs::read_dir(&dir).unwrap() {
            let path = entry.unwrap().path();
            match path.extension().and_then(|e| e.to_str()) {
                _ if path.is_dir() => dirs.push(path),
                Some("json" | "jsonl") => files.push(path),
                _ => {}
            }
        }
    }
    assert!(files.len() >= 5, "{files:?}");
    for path in files {
        let text = std::fs::read_to_string(&path).unwrap();
        let docs: Vec<&str> = if path.extension().is_some_and(|e| e == "jsonl") {
            text.lines().collect()
        } else {
            vec![&text]
        };
        for doc in docs {
            json::parse(doc).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        }
    }
}
