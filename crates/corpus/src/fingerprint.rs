//! Order-independent fingerprints of labeled key fields.
//!
//! A corpus entry is addressed by a 128-bit fingerprint of its
//! [`RunKey`](instantcheck::RunKey)'s fields. Each `(label, value)`
//! field is hashed independently and the per-field hashes are combined
//! with a commutative operation (wrapping addition, twice with
//! independent seeds), so the fingerprint is a function of the *set* of
//! fields, not the order they were listed in. That makes the on-disk
//! addressing stable under refactors that reorder the key encoding — a
//! property the format's round-trip tests pin down.

use instantcheck::RunKey;

/// Seed of the low 64 fingerprint bits.
const LO_SEED: u64 = 0xc0f_9a5e_0000_0001;
/// Seed of the high 64 fingerprint bits (independent of [`LO_SEED`], so
/// the two halves never cancel together).
const HI_SEED: u64 = 0x5ee_dbee_f000_0002;

/// FNV-1a offset basis.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Plain FNV-1a — the checksum of entry bodies and record frames.
/// Public so offline tooling (and tests) can re-frame or audit segment
/// records without linking the whole engine.
pub fn fnv64(bytes: &[u8]) -> u64 {
    fnv64_seeded(0, bytes)
}

/// FNV-1a over `bytes`, folded into `seed`.
const fn fnv64_seeded(seed: u64, bytes: &[u8]) -> u64 {
    let mut h = FNV_OFFSET ^ seed;
    let mut i = 0;
    while i < bytes.len() {
        h ^= bytes[i] as u64;
        h = h.wrapping_mul(FNV_PRIME);
        i += 1;
    }
    h
}

/// The FNV state a field's value bytes continue from: the label and
/// the `=` separator hashed from `seed`, each chain step re-seeded
/// from the offset basis. So a field hashes as
/// `fnv64_seeded(fnv64_seeded(fnv64_seeded(seed, label), "="), value)`,
/// and the label and value are length-prefixed by the `=` plus the
/// seeded initial state: `("ab", "c")` and `("a", "bc")` hash
/// differently.
const fn value_state(seed: u64, label: &str) -> u64 {
    FNV_OFFSET ^ fnv64_seeded(fnv64_seeded(seed, label.as_bytes()), b"=")
}

/// [`value_state`] of every [`RunKey::LABELS`] entry for both seeds,
/// computed at compile time, so a run key's fields hash only their
/// values.
const KEY_STATES: [(u64, u64); RunKey::LABELS.len()] = {
    let mut states = [(0, 0); RunKey::LABELS.len()];
    let mut i = 0;
    while i < states.len() {
        states[i] = (
            value_state(LO_SEED, RunKey::LABELS[i]),
            value_state(HI_SEED, RunKey::LABELS[i]),
        );
        i += 1;
    }
    states
};

/// The `(lo, hi)` value states of the field at position `at` labelled
/// `label`: precomputed when the label is the run-key label of that
/// position (as [`RunKey::with_tokens`] lists them), hashed here
/// otherwise. Both give the same states for the same label.
fn label_states(at: usize, label: &str) -> (u64, u64) {
    if RunKey::LABELS.get(at) == Some(&label) {
        KEY_STATES[at]
    } else {
        (value_state(LO_SEED, label), value_state(HI_SEED, label))
    }
}

/// The order-independent 128-bit fingerprint of a set of labeled
/// fields: per field, FNV-1a of `label=value` under each of two seeds,
/// summed per seed. Both chains run in one pass over the value bytes.
///
/// # Example
///
/// ```
/// let a = corpus::fingerprint_fields(&[("x", "1"), ("y", "2")]);
/// let b = corpus::fingerprint_fields(&[("y", "2"), ("x", "1")]);
/// assert_eq!(a, b, "field order does not matter");
/// let c = corpus::fingerprint_fields(&[("x", "2"), ("y", "1")]);
/// assert_ne!(a, c, "values bind to their labels");
/// ```
pub fn fingerprint_fields(fields: &[(&str, &str)]) -> u128 {
    let mut lo = 0u64;
    let mut hi = 0u64;
    for (at, (label, value)) in fields.iter().enumerate() {
        let (mut l, mut h) = label_states(at, label);
        for &b in value.as_bytes() {
            l = (l ^ u64::from(b)).wrapping_mul(FNV_PRIME);
            h = (h ^ u64::from(b)).wrapping_mul(FNV_PRIME);
        }
        lo = lo.wrapping_add(l);
        hi = hi.wrapping_add(h);
    }
    (u128::from(hi)) << 64 | u128::from(lo)
}

/// The fingerprint a [`RunKey`] is stored under: its canonical
/// fields ([`RunKey::with_tokens`], which include the key-encoding
/// version, rendered on the stack), fingerprinted order-independently
/// without allocating.
pub fn fingerprint_key(key: &RunKey) -> u128 {
    key.with_tokens(fingerprint_fields)
}

#[cfg(test)]
mod tests {
    use adhash::FpRound;
    use instantcheck::Scheme;
    use tsim::SwitchPolicy;

    use super::*;

    #[test]
    fn reordering_fields_preserves_the_fingerprint() {
        let fields = [("a", "1"), ("b", "2"), ("c", "3"), ("d", "4")];
        let base = fingerprint_fields(&fields);
        let mut rotated = fields;
        rotated.rotate_left(1);
        assert_eq!(base, fingerprint_fields(&rotated));
        let mut reversed = fields;
        reversed.reverse();
        assert_eq!(base, fingerprint_fields(&reversed));
    }

    #[test]
    fn any_field_change_moves_the_fingerprint() {
        let base = fingerprint_fields(&[("a", "1"), ("b", "2")]);
        assert_ne!(base, fingerprint_fields(&[("a", "1"), ("b", "3")]));
        assert_ne!(base, fingerprint_fields(&[("a", "1"), ("c", "2")]));
        assert_ne!(base, fingerprint_fields(&[("a", "1")]));
        assert_ne!(
            base,
            fingerprint_fields(&[("a", "1"), ("b", "2"), ("b", "2")])
        );
    }

    #[test]
    fn label_value_boundary_matters() {
        assert_ne!(
            fingerprint_fields(&[("ab", "c")]),
            fingerprint_fields(&[("a", "bc")])
        );
    }

    /// The two-pass form this module's fast path replaced: each field
    /// hashed from scratch, one seed at a time.
    fn two_pass(fields: &[(&str, &str)]) -> u128 {
        let field = |seed: u64, label: &str, value: &str| {
            let h = fnv64_seeded(seed, label.as_bytes());
            fnv64_seeded(fnv64_seeded(h, b"="), value.as_bytes())
        };
        let (mut lo, mut hi) = (0u64, 0u64);
        for (label, value) in fields {
            lo = lo.wrapping_add(field(LO_SEED, label, value));
            hi = hi.wrapping_add(field(HI_SEED, label, value));
        }
        u128::from(hi) << 64 | u128::from(lo)
    }

    #[test]
    fn one_pass_fingerprint_equals_the_two_pass_form() {
        minicheck::check("one_pass_fingerprint", 500, |g| {
            let labels = [&RunKey::LABELS[..], &["", "x", "tenant", "seed2", "=", "é"]].concat();
            let values = ["", "0", "1", "HwInc", "log", "a=b", "ü"];
            let fields = g.vec_of(0, 16, |g| (*g.pick(&labels), *g.pick(&values)));
            assert_eq!(fingerprint_fields(&fields), two_pass(&fields), "{fields:?}");
        });
    }

    /// Keys spanning every rendering branch: seeds 0 and `u64::MAX`,
    /// both allocator provenances, every scheme, switch policy and
    /// rounding variant, non-zero ignore and fault tokens, the cache
    /// model, and an empty workload.
    fn table_keys() -> Vec<RunKey> {
        let base = RunKey {
            workload: "canneal:scaled".into(),
            scheme: Scheme::HwInc,
            seed: 0,
            lib_seed: 0x5eed,
            switch: SwitchPolicy::SyncOnly,
            max_steps: 2_000_000,
            rounding: None,
            ignore_token: 0,
            fault_token: 0,
            cache_model: false,
            alloc_seed: None,
        };
        let mut keys = vec![base.clone()];
        let mut k = base.clone();
        k.seed = u64::MAX;
        k.alloc_seed = Some(u64::MAX);
        k.scheme = Scheme::SwTr;
        keys.push(k);
        let mut k = base.clone();
        k.workload = String::new();
        k.scheme = Scheme::Native;
        k.switch = SwitchPolicy::EveryAccess;
        k.rounding = Some(FpRound::BitExact);
        k.alloc_seed = Some(0);
        keys.push(k);
        let mut k = base.clone();
        k.scheme = Scheme::SwInc;
        k.switch = SwitchPolicy::EveryNth(u32::MAX);
        k.rounding = Some(FpRound::MaskMantissa { bits: 52 });
        k.ignore_token = 0x0123_4567_89ab_cdef;
        k.fault_token = 1;
        keys.push(k);
        let mut k = base.clone();
        k.seed = 10_000_000_019;
        k.lib_seed = u64::MAX;
        k.switch = SwitchPolicy::EveryNth(0);
        k.max_steps = 0;
        k.rounding = Some(FpRound::FloorDecimal { digits: 3 });
        k.fault_token = u64::MAX;
        k.cache_model = true;
        keys.push(k);
        let mut k = base;
        k.workload = "fft:full=x;y".into();
        k.seed = 31;
        k.rounding = Some(FpRound::NearestDecimal { digits: 6 });
        k.ignore_token = 0xffff_0000_ffff_0000;
        k.alloc_seed = Some(30);
        keys.push(k);
        keys
    }

    #[test]
    fn fingerprints_match_the_values_recorded_before_the_fast_path() {
        // Recorded with the `write!` rendering and the per-field
        // two-pass FNV chains this module replaced; the on-disk
        // addresses of every stored run depend on these exact values.
        const KEYS: [u128; 6] = [
            0x89860bfdc5385990af8af36c8490636a,
            0x7b4f7d16598799e19ed37312c9185ad7,
            0x945fdbc12751e9a96b3568b0a83bf6fb,
            0x2b82731ab059f1fdd23241af67f4f937,
            0x9761a8fdf2585928de4149f364cfc98e,
            0xd641d510e66ede05afcbfeb60779b96b,
        ];
        for (i, (key, want)) in table_keys().iter().zip(KEYS).enumerate() {
            assert_eq!(fingerprint_key(key), want, "key {i}: {key:?}");
        }
        // Labels outside the run-key schema take the generic path.
        let fields: [(&[(&str, &str)], u128); 4] = [
            (
                &[("x", "1"), ("y", "2")],
                0x48f0b6e53be718c474b6a891a3fcd69e,
            ),
            (
                &[("seed", "7"), ("tenant", "a"), ("scheme", "HwInc")],
                0x20cb7189a9c804af96802be5d38ed0b6,
            ),
            (&[], 0),
            (&[("", "")], 0xdf2d6ae554224828b571155e842246d1),
        ];
        for (f, want) in fields {
            assert_eq!(fingerprint_fields(f), want, "{f:?}");
        }
    }
}
