//! The unified corpus error surface.
//!
//! Every fallible corpus operation reports a [`CorpusError`]. The enum
//! is `#[non_exhaustive]` so later engine work (new storage phases) can
//! add variants without breaking callers, and each variant names the
//! phase that failed — open, format check, index build — so a caller
//! can tell "the store is unusable" apart from anything else. Damaged
//! records are not errors: reads quarantine them and report a miss.

use std::fmt;
use std::io;
use std::path::PathBuf;

/// Any error a corpus operation can report.
#[non_exhaustive]
#[derive(Debug)]
pub enum CorpusError {
    /// The store could not be opened: directories or the format marker
    /// could not be created or read.
    Open {
        /// The corpus root that failed to open.
        dir: PathBuf,
        /// The underlying I/O failure.
        source: io::Error,
    },
    /// The directory holds a corpus of a different on-disk format.
    /// An incompatible store — an `icseg 3` log of text key tokens, an
    /// `icseg 2` log addressed by the older fingerprint, an `icseg 1`
    /// text-entry log, or an `icorpus`
    /// one-file-per-run store — is refused outright, never silently
    /// misread or migrated in place.
    FormatMismatch {
        /// The corpus root with the foreign marker.
        dir: PathBuf,
        /// The marker found on disk (trimmed).
        found: String,
        /// The marker this build reads and writes.
        expected: String,
    },
    /// Scanning segments to (re)build the in-memory index failed.
    Index(io::Error),
}

impl fmt::Display for CorpusError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CorpusError::Open { dir, source } => {
                write!(f, "cannot open corpus at {}: {source}", dir.display())
            }
            CorpusError::FormatMismatch {
                dir,
                found,
                expected,
            } => write!(
                f,
                "corpus at {} has format {found:?}, this build reads {expected:?}",
                dir.display()
            ),
            CorpusError::Index(e) => write!(f, "corpus index build failed: {e}"),
        }
    }
}

impl std::error::Error for CorpusError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CorpusError::Open { source, .. } | CorpusError::Index(source) => Some(source),
            CorpusError::FormatMismatch { .. } => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names_the_phase() {
        let e = CorpusError::Open {
            dir: PathBuf::from("/nowhere"),
            source: io::Error::new(io::ErrorKind::PermissionDenied, "denied"),
        };
        assert!(e.to_string().contains("cannot open corpus at /nowhere"));
        let e = CorpusError::FormatMismatch {
            dir: PathBuf::from("/x"),
            found: "icorpus 1".into(),
            expected: "icseg 4".into(),
        };
        assert!(e.to_string().contains("icorpus 1"));
        assert!(e.to_string().contains("icseg 4"));
        let e = CorpusError::Index(io::Error::other("boom"));
        assert!(e.to_string().contains("index build failed: boom"));
    }
}
