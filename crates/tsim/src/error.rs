//! Simulation errors.

use std::error::Error;
use std::fmt;

use crate::types::{Addr, LockId, ThreadId};

/// An error that aborts a simulated run.
///
/// These correspond to misuses of the simulated machine (bad address,
/// unlocking a lock one does not hold, …) or to whole-run failures
/// (deadlock, step-limit livelock, a workload thread panicking).
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum SimError {
    /// A thread accessed an address outside any mapped segment or live
    /// allocation.
    BadAddress {
        /// Thread performing the access.
        tid: ThreadId,
        /// The offending address.
        addr: Addr,
    },
    /// A thread released a lock it does not hold.
    UnlockNotHeld {
        /// Thread performing the unlock.
        tid: ThreadId,
        /// The lock in question.
        lock: LockId,
    },
    /// A thread acquired a lock it already holds (the simulated mutexes
    /// are non-reentrant, like `pthread_mutex_t` in default mode).
    RelockHeld {
        /// Thread performing the lock.
        tid: ThreadId,
        /// The lock in question.
        lock: LockId,
    },
    /// `free` was called on an address that is not the base of a live
    /// allocation.
    BadFree {
        /// Thread performing the free.
        tid: ThreadId,
        /// The offending address.
        addr: Addr,
    },
    /// No thread can make progress.
    Deadlock {
        /// Human-readable description of each blocked thread.
        detail: String,
    },
    /// The run exceeded the configured maximum number of scheduling steps.
    StepLimit {
        /// The limit that was exceeded.
        limit: u64,
    },
    /// A reader-writer lock was released in a mode the thread does not
    /// hold it in.
    RwUnlockNotHeld {
        /// Thread performing the release.
        tid: ThreadId,
        /// The lock index.
        rwlock: usize,
        /// `true` if the bad release was an exclusive (write) release.
        write: bool,
    },
    /// A workload thread panicked (e.g. a failed assertion in the
    /// program under test).
    ThreadPanic {
        /// The panicking thread.
        tid: ThreadId,
        /// The panic message, if it was a string.
        message: String,
    },
    /// An allocation failed (today only via injected
    /// [`FaultKind::AllocFail`](crate::FaultKind) faults; a real
    /// out-of-memory condition would surface the same way).
    AllocFailed {
        /// Thread performing the allocation.
        tid: ThreadId,
        /// The allocation site.
        site: &'static str,
    },
}

/// The *kind* of a [`SimError`], with the per-error payload stripped —
/// the unit failure campaigns bucket by.
///
/// [`SimError`] is `#[non_exhaustive]`, so downstream code cannot match
/// it exhaustively; `kind()` plus this enum's `Display` give reports a
/// stable, total classification anyway.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[non_exhaustive]
pub enum SimErrorKind {
    /// See [`SimError::BadAddress`].
    BadAddress,
    /// See [`SimError::UnlockNotHeld`].
    UnlockNotHeld,
    /// See [`SimError::RelockHeld`].
    RelockHeld,
    /// See [`SimError::BadFree`].
    BadFree,
    /// See [`SimError::Deadlock`].
    Deadlock,
    /// See [`SimError::StepLimit`].
    StepLimit,
    /// See [`SimError::RwUnlockNotHeld`].
    RwUnlockNotHeld,
    /// See [`SimError::ThreadPanic`].
    ThreadPanic,
    /// See [`SimError::AllocFailed`].
    AllocFailed,
}

impl SimErrorKind {
    /// A stable, short, machine-friendly name for this kind.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            SimErrorKind::BadAddress => "bad-address",
            SimErrorKind::UnlockNotHeld => "unlock-not-held",
            SimErrorKind::RelockHeld => "relock-held",
            SimErrorKind::BadFree => "bad-free",
            SimErrorKind::Deadlock => "deadlock",
            SimErrorKind::StepLimit => "step-limit",
            SimErrorKind::RwUnlockNotHeld => "rw-unlock-not-held",
            SimErrorKind::ThreadPanic => "thread-panic",
            SimErrorKind::AllocFailed => "alloc-failed",
        }
    }
}

impl fmt::Display for SimErrorKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl SimError {
    /// This error's [`SimErrorKind`] (payload stripped).
    #[must_use]
    pub fn kind(&self) -> SimErrorKind {
        match self {
            SimError::BadAddress { .. } => SimErrorKind::BadAddress,
            SimError::UnlockNotHeld { .. } => SimErrorKind::UnlockNotHeld,
            SimError::RelockHeld { .. } => SimErrorKind::RelockHeld,
            SimError::BadFree { .. } => SimErrorKind::BadFree,
            SimError::Deadlock { .. } => SimErrorKind::Deadlock,
            SimError::StepLimit { .. } => SimErrorKind::StepLimit,
            SimError::RwUnlockNotHeld { .. } => SimErrorKind::RwUnlockNotHeld,
            SimError::ThreadPanic { .. } => SimErrorKind::ThreadPanic,
            SimError::AllocFailed { .. } => SimErrorKind::AllocFailed,
        }
    }

    /// Whether this failure can come and go with the schedule alone: a
    /// deadlock or livelock (step limit) under one scheduler seed, with clean completion under another, is itself a
    /// determinism finding — the campaign reports it rather than writing
    /// it off as infrastructure trouble.
    #[must_use]
    pub fn is_schedule_dependent(&self) -> bool {
        matches!(
            self.kind(),
            SimErrorKind::Deadlock | SimErrorKind::StepLimit
        )
    }
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::BadAddress { tid, addr } => {
                write!(f, "thread {tid} accessed unmapped address {addr}")
            }
            SimError::UnlockNotHeld { tid, lock } => {
                write!(f, "thread {tid} released lock {lock:?} it does not hold")
            }
            SimError::RelockHeld { tid, lock } => {
                write!(f, "thread {tid} re-acquired lock {lock:?} it already holds")
            }
            SimError::BadFree { tid, addr } => {
                write!(f, "thread {tid} freed invalid address {addr}")
            }
            SimError::RwUnlockNotHeld { tid, rwlock, write } => write!(
                f,
                "thread {tid} released rwlock {rwlock} ({} mode) it does not hold",
                if *write { "write" } else { "read" }
            ),
            SimError::Deadlock { detail } => write!(f, "deadlock: {detail}"),
            SimError::StepLimit { limit } => {
                write!(f, "run exceeded the step limit of {limit} scheduling steps")
            }
            SimError::ThreadPanic { tid, message } => {
                write!(f, "thread {tid} panicked: {message}")
            }
            SimError::AllocFailed { tid, site } => {
                write!(f, "thread {tid} failed to allocate at site {site:?}")
            }
        }
    }
}

impl Error for SimError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = SimError::BadAddress {
            tid: 3,
            addr: Addr(0x99),
        };
        assert!(e.to_string().contains("thread 3"));
        assert!(e.to_string().contains("0x99"));
        let e = SimError::Deadlock {
            detail: "t0 waits on lock 1".into(),
        };
        assert!(e.to_string().contains("deadlock"));
        let e = SimError::StepLimit { limit: 10 };
        assert!(e.to_string().contains("10"));
        let e = SimError::AllocFailed {
            tid: 1,
            site: "tree",
        };
        assert!(e.to_string().contains("tree"));
    }

    #[test]
    fn kinds_are_total_and_stable() {
        let cases: Vec<(SimError, SimErrorKind)> = vec![
            (
                SimError::BadAddress {
                    tid: 0,
                    addr: Addr(1),
                },
                SimErrorKind::BadAddress,
            ),
            (
                SimError::Deadlock {
                    detail: String::new(),
                },
                SimErrorKind::Deadlock,
            ),
            (SimError::StepLimit { limit: 1 }, SimErrorKind::StepLimit),
            (
                SimError::AllocFailed { tid: 0, site: "s" },
                SimErrorKind::AllocFailed,
            ),
            (
                SimError::ThreadPanic {
                    tid: 0,
                    message: String::new(),
                },
                SimErrorKind::ThreadPanic,
            ),
        ];
        for (err, kind) in cases {
            assert_eq!(err.kind(), kind);
            assert_eq!(kind.to_string(), kind.name());
        }
    }

    #[test]
    fn schedule_dependence_flags_whole_run_timing_failures() {
        assert!(SimError::Deadlock {
            detail: String::new()
        }
        .is_schedule_dependent());
        assert!(SimError::StepLimit { limit: 5 }.is_schedule_dependent());
        assert!(!SimError::BadFree {
            tid: 0,
            addr: Addr(8)
        }
        .is_schedule_dependent());
        assert!(!SimError::AllocFailed { tid: 0, site: "s" }.is_schedule_dependent());
        assert!(!SimError::ThreadPanic {
            tid: 0,
            message: String::new()
        }
        .is_schedule_dependent());
    }
}
