//! The 128-bit fingerprint a [`RunKey`] is stored under.
//!
//! Every corpus record and memo slot is addressed by it. Two lanes with
//! independent seeds make one ordered pass over the key's binary block
//! ([`RunKey::with_bytes`]): the block's length first, then its bytes
//! as little-endian `u64` words (the last one zero-padded), each folded
//! into the lane's state with a splitmix64 avalanche. The fold is a
//! bijection of the state and order-sensitive, so a difference in one
//! word cannot cancel a difference in another, and the length keeps a
//! zero-padded tail apart from real zero bytes; the two lanes are
//! independent chains the processor overlaps. Equal fingerprints are
//! taken to mean equal keys by the memo arena, which compares nothing
//! else; a record read from the log is also compared with the whole
//! stored block.

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
    bytes.iter().fold(FNV_OFFSET, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(FNV_PRIME)
    })
}

/// The fingerprint of a key block rendered by [`RunKey::with_bytes`].
pub(crate) fn fingerprint_block(block: &[u8]) -> u128 {
    let (mut lo, mut hi) = (LO_SEED, HI_SEED);
    let mut fold = |word: u64| {
        lo = splitmix64(lo ^ word);
        hi = splitmix64(hi ^ word);
    };
    fold(block.len() as u64);
    let mut words = block.chunks_exact(8);
    for w in &mut words {
        fold(u64::from_le_bytes(w.try_into().expect("8-byte chunk")));
    }
    let tail = words.remainder();
    if !tail.is_empty() {
        let mut last = [0u8; 8];
        last[..tail.len()].copy_from_slice(tail);
        fold(u64::from_le_bytes(last));
    }
    u128::from(hi) << 64 | u128::from(lo)
}

/// The fingerprint a [`RunKey`] is stored under: its block encoded on
/// the stack and fingerprinted without allocating.
pub fn fingerprint_key(key: &RunKey) -> u128 {
    key.with_bytes(fingerprint_block)
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
    fn any_bit_change_moves_the_fingerprint() {
        let block: Vec<u8> = (0..83u8).collect();
        let base = fingerprint_block(&block);
        for i in 0..block.len() {
            for bit in 0..8 {
                let mut b = block.clone();
                b[i] ^= 1 << bit;
                assert_ne!(fingerprint_block(&b), base, "byte {i} bit {bit}");
            }
        }
    }

    #[test]
    fn the_length_keeps_zero_padding_apart() {
        assert_ne!(
            fingerprint_block(&[1, 2, 3]),
            fingerprint_block(&[1, 2, 3, 0])
        );
        assert_ne!(fingerprint_block(&[]), fingerprint_block(&[0; 8]));
        assert_ne!(fingerprint_block(&[0; 8]), fingerprint_block(&[0; 16]));
    }

    /// Keys spanning every encoding branch: seeds 0 and `u64::MAX`,
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
        // exact values (`icseg 4`).
        const KEYS: [u128; 6] = [
            0x0d6eae9c7ae190830b7480c1c991b26c,
            0x6e7be3a4dc1ba48c4462e4b428718576,
            0x9b9def1f3ffdd3dedb8e1dccbb7cb794,
            0xeb371a4482198c37a0f06dac6e78cd0d,
            0x60d2db323b8f0873546ed53669e621e9,
            0xcd9a82b34bea873ae469c54f4e5bb9c6,
        ];
        for (i, (key, want)) in table_keys().iter().zip(KEYS).enumerate() {
            assert_eq!(fingerprint_key(key), want, "key {i}: {key:?}");
        }
    }
}
