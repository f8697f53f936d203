//! Golden interleavings: how the simulator hands the turn from one
//! simulated thread to the next (OS threads in earlier engines, futures
//! polled by one executor loop now) must never change what the
//! scheduler picks. For every deterministic Table-1 kernel at miniature
//! scale and three fixed seeds, one monitored, traced run is folded into
//! an FNV-1a digest of its scheduler decisions, step count, per-thread
//! instruction counts, recorded trace and per-checkpoint state hashes. The digests were
//! recorded before the handoff was first reworked; any drift means a run
//! interleaves differently than it used to.

use instantcheck::{CheckMonitor, IgnoreSpec, Scheme};
use tsim::RunConfig;

/// The 13 deterministic kernels the campaign benchmark draws from.
const KERNELS: [&str; 13] = [
    "blackscholes",
    "fft",
    "lu",
    "radix",
    "swaptions",
    "volrend",
    "fluidanimate",
    "ocean",
    "waterNS",
    "waterSP",
    "cholesky",
    "pbzip2",
    "sphinx3",
];

const SEEDS: [u64; 3] = [3, 11, 1234];

/// `(kernel, seed, digest)`, recorded with the condvar handoff.
const GOLDEN: [(&str, u64, u64); 39] = [
    ("blackscholes", 3, 0xfe547dae48cfcf81),
    ("blackscholes", 11, 0xb5e538fb7d1e9806),
    ("blackscholes", 1234, 0x8d5a5d71884a0a8d),
    ("fft", 3, 0x7969cb868f59e225),
    ("fft", 11, 0x507812cd26f94a93),
    ("fft", 1234, 0x12ebbeb06042542d),
    ("lu", 3, 0x7fc100c482821848),
    ("lu", 11, 0xe2ef3c1416746190),
    ("lu", 1234, 0x2cf2f2db7f64602e),
    ("radix", 3, 0xb99a6d0677da7784),
    ("radix", 11, 0x47943d1db50c2790),
    ("radix", 1234, 0x4a2728a5e92eb990),
    ("swaptions", 3, 0xfd9af8a5490ecb36),
    ("swaptions", 11, 0x43871b822b23105b),
    ("swaptions", 1234, 0x94531a076189f639),
    ("volrend", 3, 0xda116f87af41d859),
    ("volrend", 11, 0x0c4820a3dc7c386f),
    ("volrend", 1234, 0x17fa6bed46673f88),
    ("fluidanimate", 3, 0x09932aa3b0d98971),
    ("fluidanimate", 11, 0x3f7624336c01ce43),
    ("fluidanimate", 1234, 0x7bac168b5dd93d61),
    ("ocean", 3, 0x1a8512c766f19228),
    ("ocean", 11, 0x38fa34ab3491c47f),
    ("ocean", 1234, 0x4ab9a00db40e3890),
    ("waterNS", 3, 0xb957f971e6f91c7a),
    ("waterNS", 11, 0x12829fb28dc6745d),
    ("waterNS", 1234, 0xc65d10d27ce72172),
    ("waterSP", 3, 0x979f6030ff5fa00c),
    ("waterSP", 11, 0x18a2244e5f394935),
    ("waterSP", 1234, 0x0f6ad1de6f0ed264),
    ("cholesky", 3, 0xd9c658abb24786ec),
    ("cholesky", 11, 0xe132b16d92fa3b1e),
    ("cholesky", 1234, 0x54ccb9c19cb96096),
    ("pbzip2", 3, 0x004a3880e724c91a),
    ("pbzip2", 11, 0xe0d24dea6713aa4e),
    ("pbzip2", 1234, 0xec2a2471671d0dab),
    ("sphinx3", 3, 0x005c8de982d51823),
    ("sphinx3", 11, 0x79de6ed2462d4cf4),
    ("sphinx3", 1234, 0x8bc7b52925efa57b),
];

struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    fn text(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.bytes(s.as_bytes());
    }
}

fn digest(kernel: &str, seed: u64) -> u64 {
    let app = instantcheck_workloads::by_name(kernel, true).expect("kernel is registered");
    let monitor = CheckMonitor::new(Scheme::HwInc, None, IgnoreSpec::default());
    let out = app
        .build()
        .run_with(&RunConfig::random(seed).with_trace(), monitor)
        .unwrap_or_else(|e| panic!("{kernel} seed {seed}: {e}"));
    let mut h = Fnv::new();
    h.u64(out.decisions.len() as u64);
    for &d in &out.decisions {
        h.u64(u64::from(d));
    }
    h.u64(out.steps);
    h.u64(out.instr.len() as u64);
    for &i in &out.instr {
        h.u64(i);
    }
    let trace = out.trace.as_ref().expect("trace recorded");
    h.u64(trace.len() as u64);
    for e in trace.events() {
        h.text(&format!("{e:?}"));
    }
    let records = out.monitor.records();
    h.u64(records.len() as u64);
    for r in records {
        h.text(&format!("{:?}", r.kind));
        h.u64(r.hash.as_raw());
    }
    h.0
}

#[test]
fn handoff_preserves_every_golden_interleaving() {
    let mut got = Vec::new();
    for kernel in KERNELS {
        for seed in SEEDS {
            got.push((kernel, seed, digest(kernel, seed)));
        }
    }
    let table: String = got
        .iter()
        .map(|(k, s, d)| format!("    (\"{k}\", {s}, {d:#018x}),\n"))
        .collect();
    assert_eq!(got, GOLDEN, "current digests:\n{table}");
}
