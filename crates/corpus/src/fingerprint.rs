//! The 128-bit fingerprint a [`RunKey`] is stored under.
//!
//! Every corpus record and memo slot is addressed by it. Two lanes with
//! independent seeds make one ordered pass over the key's values, as
//! [`RunKey::with_tokens`] lists them: each value is hashed with FNV-1a
//! from the lane's seed, and the lane folds that hash into its state
//! with a splitmix64 avalanche. The fold is a bijection of the state
//! and order-sensitive, so a difference in one value cannot cancel a
//! difference in another, and the value hashes are independent chains
//! the processor overlaps. Labels are not hashed: they are fixed by
//! position ([`RunKey::LABELS`]) and by the `version` token, and
//! [`decode_record`](crate::decode_record) refuses a stored key whose
//! labels differ. Equal fingerprints are taken to mean equal keys, so
//! the memo arena compares nothing else.

use detrand::splitmix64;
use instantcheck::RunKey;

/// Seed of the low 64 fingerprint bits.
const LO_SEED: u64 = 0xc0f_9a5e_0000_0001;
/// Seed of the high 64 fingerprint bits.
const HI_SEED: u64 = 0x5ee_dbee_f000_0002;

/// FNV-1a offset basis.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Plain FNV-1a. Public so offline tooling (and tests) can checksum
/// bytes the way the workspace does without linking the whole engine.
pub fn fnv64(bytes: &[u8]) -> u64 {
    fnv64_seeded(0, bytes)
}

/// FNV-1a over `bytes`, from the offset basis xor `seed`.
fn fnv64_seeded(seed: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(FNV_OFFSET ^ seed, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(FNV_PRIME)
    })
}

/// The fingerprint of a key rendered by [`RunKey::with_tokens`].
pub(crate) fn fingerprint_tokens(tokens: &[(&str, &str)]) -> u128 {
    let (mut lo, mut hi) = (LO_SEED, HI_SEED);
    for (_, value) in tokens {
        lo = splitmix64(lo ^ fnv64_seeded(LO_SEED, value.as_bytes()));
        hi = splitmix64(hi ^ fnv64_seeded(HI_SEED, value.as_bytes()));
    }
    u128::from(hi) << 64 | u128::from(lo)
}

/// The fingerprint a [`RunKey`] is stored under: its tokens rendered
/// on the stack and fingerprinted without allocating.
pub fn fingerprint_key(key: &RunKey) -> u128 {
    key.with_tokens(fingerprint_tokens)
}

#[cfg(test)]
mod tests {
    use std::collections::HashSet;

    use adhash::FpRound;
    use instantcheck::{CampaignSpec, Scheme};
    use tsim::SwitchPolicy;

    use super::*;

    fn assert_distinct(keys: &[RunKey]) {
        let mut seen = HashSet::new();
        let collisions = keys
            .iter()
            .filter(|k| !seen.insert(fingerprint_key(k)))
            .count();
        assert_eq!(collisions, 0, "of {} keys", keys.len());
    }

    #[test]
    fn adjacent_campaigns_key_apart() {
        // 40 campaigns with base seeds 1..=40, 6 runs each: slot 0 logs
        // its allocations, later slots replay the base seed's log. An
        // unordered sum of per-field hashes gave 78 of these 240 keys
        // another key's fingerprint.
        let spec = CampaignSpec::new("canneal:scaled", Scheme::HwInc);
        let keys: Vec<RunKey> = (1..=40u64)
            .flat_map(|base| {
                let spec = &spec;
                (0..6u64).map(move |i| {
                    let alloc = (i > 0).then_some(base);
                    spec.run_key(i as usize, base + i, alloc)
                })
            })
            .collect();
        assert_eq!(keys.len(), 240);
        assert_distinct(&keys);
    }

    #[test]
    fn a_seed_by_alloc_seed_grid_keys_apart() {
        let spec = CampaignSpec::new("canneal:scaled", Scheme::HwInc);
        let keys: Vec<RunKey> = (0..300u64)
            .flat_map(|seed| {
                let spec = &spec;
                (0..300u64).map(move |alloc| spec.run_key(0, seed, Some(alloc)))
            })
            .collect();
        assert_distinct(&keys);
    }

    #[test]
    fn any_value_change_moves_the_fingerprint() {
        let base = fingerprint_tokens(&[("a", "1"), ("b", "2")]);
        assert_ne!(base, fingerprint_tokens(&[("a", "1"), ("b", "3")]));
        assert_ne!(base, fingerprint_tokens(&[("a", "2"), ("b", "1")]));
        assert_ne!(base, fingerprint_tokens(&[("a", "1")]));
        assert_ne!(
            base,
            fingerprint_tokens(&[("a", "1"), ("b", "2"), ("c", "")])
        );
    }

    #[test]
    fn value_boundaries_matter() {
        assert_ne!(
            fingerprint_tokens(&[("a", "12"), ("b", "")]),
            fingerprint_tokens(&[("a", "1"), ("b", "2")])
        );
        assert_ne!(fingerprint_tokens(&[("a", "")]), fingerprint_tokens(&[]));
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
    fn fingerprints_match_the_recorded_values() {
        // The on-disk address of every stored run depends on these
        // exact values (`icseg 3`).
        const KEYS: [u128; 6] = [
            0xcfecb9ba3dc25821f323ea77e47d4dfd,
            0x3fab26d3d415800c0343320ecaa7c054,
            0xb9014604fa061fedac0b813efcbed7ae,
            0x1c92114c7b94638e3a44d4c31b513b02,
            0x2e4a71b16058824256672e44a33b1a2a,
            0xb124808a63ce074e958d8697a12689ac,
        ];
        for (i, (key, want)) in table_keys().iter().zip(KEYS).enumerate() {
            assert_eq!(fingerprint_key(key), want, "key {i}: {key:?}");
        }
    }
}
