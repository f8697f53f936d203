//! The `icseg-v4` record codec: one fixed frame, one binary body, one
//! checksum.
//!
//! Every completed run is stored as one self-contained record — the
//! [`CachedRun`] plus the binary block of the [`RunKey`] it was
//! recorded under ([`RunKey::with_bytes`]):
//!
//! ```text
//! frame      28 bytes, little-endian
//!   fp         u128   RunKey fingerprint the record is addressed by
//!   body_len   u32    exact body byte count
//!   sum        u64    checksum of fp, body_len and the body
//! body       (v = LEB128 varint)
//!   v len, key block                                   RunKey::with_bytes
//!   7 × u64    steps, native_instr, zero_fill_instr,
//!              output_digest, extra_instr, stores, hash_updates
//!   u8         flags: 1 = l1 stats, 2 = alloc log, 4 = sim trace
//!   [4 × u64]  l1 hits, misses, mhm_reads, mhm_read_misses
//!   v k, then k × kind   u8 tag: 0 end | 1 barrier, v index
//!                                | 2 manual, v len, label
//!   v c, then c × { v kind index, u64 hash }          checkpoints
//!   [v len, alloc log]   (v tid, v seq, v base) triples in key order
//!   [v len, trace]       JSONL, one simulator event per line
//! ```
//!
//! Reads never trust a damaged record. The frame length must match the
//! bytes read ([`Corruption::Truncated`]), the checksum must match
//! ([`Corruption::BadChecksum`]), and the body must decode exactly to
//! its end under the requested key ([`Corruption::Malformed`]
//! otherwise) — the stored key block is compared whole with the
//! requested one, so a fingerprint collision or a record at the wrong
//! address is never a hit.

use std::collections::BTreeSet;
use std::fmt;
use std::sync::{Arc, Mutex, OnceLock};

use adhash::HashSum;
use instantcheck::{CachedRun, CheckpointRecord, RunHashes, RunKey};
use tsim::{AllocLog, BarrierId, CheckpointKind};

use crate::fingerprint::fingerprint_block;

/// Byte length of a record frame: `fp u128 | body_len u32 | sum u64`.
pub const FRAME_LEN: usize = 28;

/// The smallest body a record can have (an empty workload id, no
/// checkpoints, no optional sections). The segment scan treats a
/// shorter declared body — a zero-filled tail, say — as torn.
pub(crate) const MIN_BODY_LEN: usize = 1 + RunKey::BLOCK_FIXED_LEN + 7 * 8 + 1 + 1 + 1;

const FLAG_L1: u8 = 1;
const FLAG_ALLOC: u8 = 2;
const FLAG_TRACE: u8 = 4;

const KIND_END: u8 = 0;
const KIND_BARRIER: u8 = 1;
const KIND_MANUAL: u8 = 2;

/// Why a stored record could not be trusted.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Corruption {
    /// Fewer bytes than the record (or one of its fields) declares.
    Truncated {
        /// Bytes declared.
        expected: usize,
        /// Bytes actually present.
        found: usize,
    },
    /// The checksum does not match the frame and body.
    BadChecksum,
    /// A checksum-valid record that does not decode, or that is stored
    /// under a key other than the one requested.
    Malformed(String),
}

impl Corruption {
    /// Stable kebab-case label, used as a quarantine-counter suffix.
    pub fn label(&self) -> &'static str {
        match self {
            Corruption::Truncated { .. } => "truncated",
            Corruption::BadChecksum => "bad-checksum",
            Corruption::Malformed(_) => "malformed",
        }
    }
}

impl fmt::Display for Corruption {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Corruption::Truncated { expected, found } => {
                write!(f, "{found} bytes present, {expected} declared")
            }
            Corruption::BadChecksum => write!(f, "checksum mismatch"),
            Corruption::Malformed(detail) => write!(f, "malformed record: {detail}"),
        }
    }
}

fn malformed(detail: &str) -> Corruption {
    Corruption::Malformed(detail.to_owned())
}

/// One step of the record checksum: xor a word in, multiply by the
/// (odd) FNV prime. For a fixed word the step is a bijection of the
/// running state, so two inputs differing in exactly one word always
/// end in different sums.
fn fold(h: u64, word: u64) -> u64 {
    (h ^ word).wrapping_mul(0x0000_0100_0000_01b3)
}

/// The checksum a record frame declares: the FNV-style fold of the
/// fingerprint, the body length and the body (8 bytes per step as LE
/// words, then a byte tail), finished with a bijective avalanche.
pub fn record_sum(fp: u128, body: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    h = fold(h, fp as u64);
    h = fold(h, (fp >> 64) as u64);
    h = fold(h, body.len() as u64);
    let mut words = body.chunks_exact(8);
    for w in &mut words {
        h = fold(h, u64::from_le_bytes(w.try_into().expect("8-byte chunk")));
    }
    for &b in words.remainder() {
        h = fold(h, u64::from(b));
    }
    h ^= h >> 32;
    h = h.wrapping_mul(0xd6e8_feb8_6659_fd93);
    h ^ (h >> 32)
}

/// A parsed record frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Frame {
    pub fp: u128,
    pub body_len: u32,
    pub sum: u64,
}

/// Parses the frame at the start of `bytes`; `None` when fewer than
/// [`FRAME_LEN`] bytes remain.
pub(crate) fn parse_frame(bytes: &[u8]) -> Option<Frame> {
    let frame = bytes.get(..FRAME_LEN)?;
    Some(Frame {
        fp: u128::from_le_bytes(frame[..16].try_into().ok()?),
        body_len: u32::from_le_bytes(frame[16..20].try_into().ok()?),
        sum: u64::from_le_bytes(frame[20..28].try_into().ok()?),
    })
}

/// Frames an arbitrary body under `fp` with a valid checksum — the
/// inverse of the frame check, for tooling that re-frames records.
pub fn frame_record(fp: u128, body: &[u8]) -> Vec<u8> {
    let mut out = vec![0; FRAME_LEN];
    out.extend_from_slice(body);
    seal_frame(&mut out, fp);
    out
}

/// Writes the frame of `out[FRAME_LEN..]` into `out[..FRAME_LEN]`.
fn seal_frame(out: &mut [u8], fp: u128) {
    let (frame, body) = out.split_at_mut(FRAME_LEN);
    let body_len = u32::try_from(body.len()).expect("record body fits u32");
    frame[..16].copy_from_slice(&fp.to_le_bytes());
    frame[16..20].copy_from_slice(&body_len.to_le_bytes());
    frame[20..28].copy_from_slice(&record_sum(fp, body).to_le_bytes());
}

fn put_var(out: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        out.push(v as u8 | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

fn put_bytes(out: &mut Vec<u8>, bytes: &[u8]) {
    put_var(out, bytes.len() as u64);
    out.extend_from_slice(bytes);
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Serializes one completed run under its key as a whole framed
/// record. A pure function of `(key, run)`: equal inputs give
/// byte-identical records, which is what makes re-stores idempotent.
pub fn encode_record(key: &RunKey, run: &CachedRun) -> Vec<u8> {
    let mut out = Vec::new();
    key.with_bytes(|block| encode_into(&mut out, fingerprint_block(block), block, run));
    out
}

/// [`encode_record`] with the key's fingerprint and block already
/// encoded, into a reusable buffer.
pub(crate) fn encode_into(out: &mut Vec<u8>, fp: u128, block: &[u8], run: &CachedRun) {
    out.clear();
    out.resize(FRAME_LEN, 0);
    put_bytes(out, block);
    let h = &run.hashes;
    for v in [
        run.steps,
        run.native_instr,
        run.zero_fill_instr,
        h.output_digest,
        h.extra_instr,
        h.stores,
        h.hash_updates,
    ] {
        put_u64(out, v);
    }
    out.push(
        (u8::from(h.cache.is_some()) * FLAG_L1)
            | (u8::from(run.alloc_log.is_some()) * FLAG_ALLOC)
            | (u8::from(run.sim_trace.is_some()) * FLAG_TRACE),
    );
    if let Some(c) = h.cache {
        for v in [c.hits, c.misses, c.mhm_reads, c.mhm_read_misses] {
            put_u64(out, v);
        }
    }
    let mut kinds: Vec<CheckpointKind> = Vec::new();
    let indices: Vec<usize> = h
        .checkpoints
        .iter()
        .map(|cp| match kinds.iter().position(|k| *k == cp.kind) {
            Some(i) => i,
            None => {
                kinds.push(cp.kind);
                kinds.len() - 1
            }
        })
        .collect();
    put_var(out, kinds.len() as u64);
    for kind in &kinds {
        match kind {
            CheckpointKind::End => out.push(KIND_END),
            CheckpointKind::Barrier(id) => {
                out.push(KIND_BARRIER);
                put_var(out, id.index() as u64);
            }
            CheckpointKind::Manual(label) => {
                out.push(KIND_MANUAL);
                put_bytes(out, label.as_bytes());
            }
        }
    }
    put_var(out, h.checkpoints.len() as u64);
    for (cp, index) in h.checkpoints.iter().zip(indices) {
        put_var(out, index as u64);
        put_u64(out, cp.hash.as_raw());
    }
    if let Some(log) = &run.alloc_log {
        let mut blob = Vec::new();
        for ((tid, seq), base) in log.entries() {
            put_var(&mut blob, tid as u64);
            put_var(&mut blob, seq);
            put_var(&mut blob, base);
        }
        put_bytes(out, &blob);
    }
    if let Some(events) = &run.sim_trace {
        put_bytes(out, obs::events_to_jsonl(events).as_bytes());
    }
    seal_frame(out, fp);
}

/// A bounds-checked cursor over a record body.
struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], Corruption> {
        let end = self.pos.saturating_add(n);
        let bytes = self.buf.get(self.pos..end).ok_or(Corruption::Truncated {
            expected: end,
            found: self.buf.len(),
        })?;
        self.pos = end;
        Ok(bytes)
    }

    fn u8(&mut self) -> Result<u8, Corruption> {
        Ok(self.take(1)?[0])
    }

    fn u64(&mut self) -> Result<u64, Corruption> {
        Ok(u64::from_le_bytes(
            self.take(8)?.try_into().expect("8 bytes"),
        ))
    }

    fn var(&mut self) -> Result<u64, Corruption> {
        let mut v = 0u64;
        for shift in (0..64).step_by(7) {
            let b = self.u8()?;
            v |= u64::from(b & 0x7f) << shift;
            if b & 0x80 == 0 {
                return Ok(v);
            }
        }
        Err(malformed("varint overflows u64"))
    }

    fn len(&mut self) -> Result<usize, Corruption> {
        usize::try_from(self.var()?).map_err(|_| malformed("length overflows usize"))
    }

    fn bytes(&mut self) -> Result<&'a [u8], Corruption> {
        let n = self.len()?;
        self.take(n)
    }

    fn str(&mut self) -> Result<&'a str, Corruption> {
        std::str::from_utf8(self.bytes()?).map_err(|_| malformed("string is not utf-8"))
    }
}

/// Interns a string, yielding the `&'static str` that
/// [`CheckpointKind::Manual`] requires. Labels are deduplicated, so
/// decoding the same record repeatedly does not grow memory.
fn intern(label: &str) -> &'static str {
    static INTERNED: OnceLock<Mutex<BTreeSet<&'static str>>> = OnceLock::new();
    let mut set = INTERNED
        .get_or_init(|| Mutex::new(BTreeSet::new()))
        .lock()
        .unwrap();
    if let Some(&existing) = set.get(label) {
        return existing;
    }
    let leaked: &'static str = Box::leak(label.to_owned().into_boxed_str());
    set.insert(leaked);
    leaked
}

/// Escapes a manual-checkpoint label for [`kind_token`]: `%`, space,
/// and control characters become `%xx`.
fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '%' => out.push_str("%25"),
            ' ' => out.push_str("%20"),
            '\n' => out.push_str("%0a"),
            '\r' => out.push_str("%0d"),
            '\t' => out.push_str("%09"),
            c => out.push(c),
        }
    }
    out
}

/// The stable, whitespace-free token of a checkpoint kind: `b:<index>`
/// for barriers, `m:<label>` (escaped) for manual checkpoints, `e` for
/// end-of-program. Baselines and `corpus dump` print kinds this way.
pub fn kind_token(kind: CheckpointKind) -> String {
    match kind {
        CheckpointKind::Barrier(id) => format!("b:{}", id.index()),
        CheckpointKind::Manual(label) => format!("m:{}", esc(label)),
        CheckpointKind::End => "e".to_owned(),
    }
}

/// Checks the frame and checksum of a whole record, returning the
/// stored fingerprint and the body.
fn verify(bytes: &[u8]) -> Result<(u128, &[u8]), Corruption> {
    let frame = parse_frame(bytes).ok_or(Corruption::Truncated {
        expected: FRAME_LEN,
        found: bytes.len(),
    })?;
    let body = &bytes[FRAME_LEN..];
    if body.len() != frame.body_len as usize {
        return Err(Corruption::Truncated {
            expected: frame.body_len as usize,
            found: body.len(),
        });
    }
    if record_sum(frame.fp, body) != frame.sum {
        return Err(Corruption::BadChecksum);
    }
    Ok((frame.fp, body))
}

/// Splits a verified body into its stored key block and a reader
/// positioned at the run.
fn key_block(body: &[u8]) -> Result<(&[u8], Reader<'_>), Corruption> {
    let mut r = Reader { buf: body, pos: 0 };
    let block = r.bytes()?;
    Ok((block, r))
}

/// Decodes the run that follows a body's key block, to the body's end.
fn decode_run(mut r: Reader<'_>) -> Result<CachedRun, Corruption> {
    let body = r.buf;
    let mut counters = [0u64; 7];
    for c in &mut counters {
        *c = r.u64()?;
    }
    let [steps, native_instr, zero_fill_instr, output_digest, extra_instr, stores, hash_updates] =
        counters;
    let flags = r.u8()?;
    if flags & !(FLAG_L1 | FLAG_ALLOC | FLAG_TRACE) != 0 {
        return Err(malformed("unknown section flags"));
    }
    let cache = if flags & FLAG_L1 != 0 {
        Some(mhm::CacheStats {
            hits: r.u64()?,
            misses: r.u64()?,
            mhm_reads: r.u64()?,
            mhm_read_misses: r.u64()?,
        })
    } else {
        None
    };
    // Kind tables are tiny (a program's barriers plus End), so the
    // common case stays off the heap.
    let k = r.len()?;
    if k > body.len() - r.pos {
        return Err(Corruption::Truncated {
            expected: r.pos + k,
            found: body.len(),
        });
    }
    let mut inline = [CheckpointKind::End; 8];
    let mut spilled = Vec::new();
    let kinds = if k <= inline.len() {
        &mut inline[..k]
    } else {
        spilled.resize(k, CheckpointKind::End);
        &mut spilled[..]
    };
    for kind in kinds.iter_mut() {
        *kind = match r.u8()? {
            KIND_END => CheckpointKind::End,
            KIND_BARRIER => CheckpointKind::Barrier(BarrierId::from_index(r.len()?)),
            KIND_MANUAL => CheckpointKind::Manual(intern(r.str()?)),
            _ => return Err(malformed("unknown checkpoint kind")),
        };
    }
    let c = r.len()?;
    let mut checkpoints = Vec::with_capacity(c.min(body.len()));
    for _ in 0..c {
        let kind = *kinds
            .get(r.len()?)
            .ok_or_else(|| malformed("checkpoint kind index out of range"))?;
        checkpoints.push(CheckpointRecord {
            kind,
            hash: HashSum::from_raw(r.u64()?),
        });
    }
    let alloc_log = if flags & FLAG_ALLOC != 0 {
        let mut blob = Reader {
            buf: r.bytes()?,
            pos: 0,
        };
        let mut log = AllocLog::default();
        while blob.pos < blob.buf.len() {
            let tid = blob.len()?;
            log.insert(tid, blob.var()?, blob.var()?);
        }
        Some(Arc::new(log))
    } else {
        None
    };
    let sim_trace = if flags & FLAG_TRACE != 0 {
        let text = std::str::from_utf8(r.bytes()?).map_err(|_| malformed("trace is not utf-8"))?;
        Some(obs::parse_jsonl(text).map_err(|e| Corruption::Malformed(format!("trace: {e}")))?)
    } else {
        None
    };
    if r.pos != body.len() {
        return Err(malformed("trailing bytes after the last section"));
    }
    Ok(CachedRun {
        hashes: RunHashes {
            checkpoints,
            output_digest,
            extra_instr,
            stores,
            hash_updates,
            cache,
        },
        steps,
        native_instr,
        zero_fill_instr,
        alloc_log,
        sim_trace,
    })
}

/// The hot read path: verifies one whole record and decodes it as the
/// record of `(fp, block)`. After the length and checksum checks, the
/// frame's fingerprint must be `fp` and the stored key block must equal
/// `block` byte for byte — the preimage check a fingerprint only
/// approximates — before the run is decoded.
///
/// # Errors
///
/// [`Corruption::Truncated`] or [`Corruption::BadChecksum`] for a
/// damaged record; [`Corruption::Malformed`] for a checksum-valid one
/// that does not decode or whose stored key differs from `block`.
pub(crate) fn decode_for(bytes: &[u8], fp: u128, block: &[u8]) -> Result<CachedRun, Corruption> {
    let (stored, body) = verify(bytes)?;
    if stored != fp {
        return Err(malformed("record does not match its address"));
    }
    let (stored, run) = key_block(body)?;
    if stored != block {
        return Err(malformed("stored key does not match its address"));
    }
    decode_run(run)
}

/// Decodes one whole record for tooling: verifies frame and checksum,
/// then returns the stored key and the run. The stored block must be
/// the canonical block of a [`RunKey`] ([`RunKey::from_bytes`]), and
/// the frame's fingerprint the fingerprint of that block.
///
/// # Errors
///
/// A [`Corruption`] describing the first problem found.
pub fn decode_record(bytes: &[u8]) -> Result<(RunKey, CachedRun), Corruption> {
    let (fp, body) = verify(bytes)?;
    let (block, run) = key_block(body)?;
    let key = RunKey::from_bytes(block)
        .map_err(|why| Corruption::Malformed(format!("run key: {why}")))?;
    if fingerprint_block(block) != fp {
        return Err(malformed("fingerprint does not match the stored key"));
    }
    Ok((key, decode_run(run)?))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn varints_round_trip_at_every_width() {
        for v in [
            0,
            1,
            127,
            128,
            16_383,
            16_384,
            u64::from(u32::MAX),
            u64::MAX,
        ] {
            let mut out = Vec::new();
            put_var(&mut out, v);
            let mut r = Reader { buf: &out, pos: 0 };
            assert_eq!(r.var().unwrap(), v);
            assert_eq!(r.pos, out.len());
        }
        let overlong = [0xffu8; 11];
        assert!(Reader {
            buf: &overlong,
            pos: 0
        }
        .var()
        .is_err());
    }

    #[test]
    fn every_single_word_change_moves_the_sum() {
        let body: Vec<u8> = (0..37u8).collect();
        let base = record_sum(7, &body);
        for i in 0..body.len() {
            for bit in 0..8 {
                let mut b = body.clone();
                b[i] ^= 1 << bit;
                assert_ne!(record_sum(7, &b), base, "byte {i} bit {bit}");
            }
        }
        for bit in 0..128 {
            assert_ne!(record_sum(7 ^ (1 << bit), &body), base, "fp bit {bit}");
        }
        assert_ne!(record_sum(7, &body[..36]), base, "length is covered");
    }

    #[test]
    fn tooling_decode_refuses_a_key_block_that_is_not_canonical() {
        let run = CachedRun {
            hashes: RunHashes {
                checkpoints: Vec::new(),
                output_digest: 0,
                extra_instr: 0,
                stores: 0,
                hash_updates: 0,
                cache: None,
            },
            steps: 0,
            native_instr: 0,
            zero_fill_instr: 0,
            alloc_log: None,
            sim_trace: None,
        };
        let decode = |block: &[u8]| {
            let mut out = Vec::new();
            encode_into(&mut out, fingerprint_block(block), block, &run);
            decode_record(&out)
        };
        let key = RunKey {
            workload: String::new(),
            scheme: instantcheck::Scheme::HwInc,
            seed: 0,
            lib_seed: 0,
            switch: tsim::SwitchPolicy::SyncOnly,
            max_steps: 0,
            rounding: None,
            ignore_token: 0,
            fault_token: 0,
            cache_model: false,
            alloc_seed: None,
        };
        let good = key.with_bytes(<[u8]>::to_vec);
        let (decoded, _) = decode(&good).unwrap();
        assert_eq!(decoded, key);
        let mut empty = Vec::new();
        encode_into(&mut empty, 0, &good, &run);
        assert_eq!(empty.len(), FRAME_LEN + MIN_BODY_LEN, "the smallest body");
        let mut tagged = good.clone();
        tagged[4] = 7;
        let mut padded = good.clone();
        padded.push(0);
        for block in [&good[..68], &tagged, &padded, &[][..]] {
            assert!(
                matches!(decode(block), Err(Corruption::Malformed(_))),
                "{block:?}"
            );
        }
    }

    #[test]
    fn kind_tokens_escape_manual_labels() {
        assert_eq!(kind_token(CheckpointKind::End), "e");
        assert_eq!(
            kind_token(CheckpointKind::Barrier(BarrierId::from_index(3))),
            "b:3"
        );
        assert_eq!(
            kind_token(CheckpointKind::Manual("iter end%")),
            "m:iter%20end%25"
        );
    }

    #[test]
    fn interning_deduplicates() {
        let a = intern("label-a");
        let b = intern("label-a");
        assert!(std::ptr::eq(a, b));
        assert_eq!(a, "label-a");
    }
}
