//! Malformed-payload hardening for the write-ahead log and the manifest.
//!
//! Checksums are unkeyed, so a crafted file passes them: only the
//! payload decoders stand between its bytes and the allocator. Every
//! payload here sits behind a valid header and a correct checksum — of
//! each WAL frame kind (`WAL1`/`WAL2`/`WAL3`, with and without a base
//! record before it) and of the manifest — so each one reaches its
//! decoder. Whatever the bytes, the decoder must return a record or
//! `Corrupt`, never panic, and ask the allocator for at most
//! [`ALLOC_PER_BYTE`] bytes per byte of the log image, plus
//! [`ALLOC_PER_USER`] per user of the base record a delta is applied to,
//! plus [`ALLOC_SLACK`].
//!
//! Also here: an accepted-user list that is not strictly ascending is
//! corruption, in a full frame and in a delta, so replay can never
//! charge one user twice for one round.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use dptd_engine::store::{Manifest, MANIFEST_MAGIC};
use dptd_engine::wal::{self, WalError, FRAME_HEADER_LEN, WAL_MAGIC};
use dptd_engine::{EpochRecord, RecordKind, WalPolicy};
use dptd_stats::digest::Fnv1a;
use dptd_truth::Loss;

/// Bytes a decode may allocate per byte of the image it reads.
const ALLOC_PER_BYTE: usize = 4;
/// Bytes a delta may allocate per user of its base record (a copy of
/// the base's 12 bytes of state per user, with room to spare).
const ALLOC_PER_USER: usize = 32;
/// Fixed allowance: the replay's record list and small bookkeeping.
const ALLOC_SLACK: usize = 1024;

thread_local! {
    /// Bytes this thread has asked the allocator for since the last
    /// reset.
    static ALLOCATED: Cell<usize> = const { Cell::new(0) };
}

/// The system allocator, adding up each thread's requests.
struct Counting;

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the bookkeeping touches only a
// const-initialised, destructor-free thread-local `Cell`, so it neither
// allocates nor unwinds.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCATED.try_with(|n| n.set(n.get().saturating_add(layout.size())));
        // SAFETY: the caller's obligations are exactly `System.alloc`'s.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` above with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// `f`'s result and the bytes it asked the allocator for.
fn counted<T>(f: impl FnOnce() -> T) -> (T, usize) {
    ALLOCATED.with(|n| n.set(0));
    let out = f();
    (out, ALLOCATED.with(Cell::get))
}

/// SplitMix64.
struct Gen(u64);

impl Gen {
    fn u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.u64() % n as u64) as usize
    }

    fn bytes(&mut self, len: usize) -> Vec<u8> {
        (0..len).map(|_| self.u64() as u8).collect()
    }
}

fn fnv(payload: &[u8]) -> u64 {
    let mut h = Fnv1a::new();
    for &b in payload {
        h.write_u8(b);
    }
    h.finish()
}

/// `payload` behind a header whose self-check passes under `mask` and
/// whose checksum is the payload's.
fn frame(mask: &[u8; 4], payload: &[u8]) -> Vec<u8> {
    let len = payload.len() as u32;
    let mut out = len.to_le_bytes().to_vec();
    out.extend_from_slice(&(len ^ u32::from_le_bytes(*mask)).to_le_bytes());
    out.extend_from_slice(&fnv(payload).to_le_bytes());
    out.extend_from_slice(payload);
    out
}

fn record(kind: RecordKind, epoch: u64, accepted: Vec<usize>, debits: Vec<u32>) -> EpochRecord {
    EpochRecord {
        kind,
        epoch,
        batches_seen: epoch + 1,
        loss: Loss::Squared,
        policy: WalPolicy {
            per_round_epsilon: 0.5,
            per_round_delta: 0.0,
            budget_epsilon: 2.0,
            budget_delta: 0.25,
            stream_tag: 7,
        },
        accepted_users: accepted,
        cumulative_losses: debits.iter().map(|&d| f64::from(d) * 0.75).collect(),
        rounds_debited: debits,
    }
}

/// The base record fuzzed deltas are applied to, and the record after it.
fn base() -> EpochRecord {
    record(RecordKind::Epoch, 4, vec![0, 3], vec![1, 0, 0, 1, 0])
}

fn next() -> EpochRecord {
    record(RecordKind::Epoch, 5, vec![1, 3], vec![1, 1, 0, 2, 0])
}

/// A valid payload of each WAL frame kind, with its mask.
fn valid_payloads() -> Vec<(&'static [u8; 4], Vec<u8>)> {
    let payload = |frame: Vec<u8>| frame[FRAME_HEADER_LEN..].to_vec();
    vec![
        (b"WAL1", payload(next().encode())),
        (b"WAL2", payload(next().to_snapshot().encode())),
        (b"WAL3", payload(next().encode_delta(&base()).unwrap())),
    ]
}

/// Replay `payload` as the last frame of a log, behind `mask` and
/// optionally behind the base record: it must decode to a record or be
/// refused as corrupt at its own offset, within the allocation bound.
fn check_wal(mask: &[u8; 4], payload: &[u8], with_base: bool) {
    let mut log = WAL_MAGIC.to_vec();
    let population = if with_base {
        log.extend_from_slice(&base().encode());
        base().num_users()
    } else {
        0
    };
    let offset = log.len() as u64;
    log.extend_from_slice(&frame(mask, payload));
    let (outcome, allocated) = counted(|| wal::replay(&log));
    let bound = ALLOC_PER_BYTE * log.len() + ALLOC_PER_USER * population + ALLOC_SLACK;
    assert!(
        allocated <= bound,
        "{allocated} bytes allocated (bound {bound}) for {mask:?} {payload:?}"
    );
    match outcome {
        Ok(replay) => {
            assert_eq!(replay.records.len(), usize::from(with_base) + 1);
            assert_eq!(replay.valid_len, log.len() as u64);
        }
        Err(WalError::Corrupt { offset: at, .. }) => assert_eq!(at, offset, "{payload:?}"),
        Err(other) => panic!("{other:?} for {mask:?} {payload:?}"),
    }
}

#[test]
fn arbitrary_payloads_behind_every_wal_header_are_records_or_corrupt() {
    let mut gen = Gen(0x5eed);
    let valid = valid_payloads();
    for mask in [b"WAL1", b"WAL2", b"WAL3"] {
        for with_base in [false, true] {
            for _ in 0..400 {
                let len = gen.below(160);
                check_wal(mask, &gen.bytes(len), with_base);
                // A valid payload of any kind with a random tail: its
                // counts now mostly disagree with the bytes present.
                let (_, good) = &valid[gen.below(valid.len())];
                let mut spliced = good[..gen.below(good.len() + 1)].to_vec();
                let tail = gen.below(64);
                spliced.extend(gen.bytes(tail));
                check_wal(mask, &spliced, with_base);
            }
        }
    }
}

#[test]
fn every_mutation_of_a_valid_wal_payload_is_a_record_or_corrupt() {
    let mut gen = Gen(0xf1a9);
    for (mask, good) in valid_payloads() {
        // The unmutated payload is a record.
        check_wal(mask, &good, true);
        for at in 0..good.len() {
            for flip in [0x01, 0x80, 0xff, (gen.u64() as u8) | 1] {
                let mut mutated = good.clone();
                mutated[at] ^= flip;
                check_wal(mask, &mutated, true);
                check_wal(mask, &mutated, false);
            }
        }
        // Every 8-byte window overwritten with a huge count: whatever it
        // lands on, nothing is sized by it.
        for at in 0..good.len().saturating_sub(7) {
            for huge in [u64::MAX, 1 << 61, 1 << 40, 1 << 20] {
                let mut mutated = good.clone();
                mutated[at..at + 8].copy_from_slice(&huge.to_le_bytes());
                check_wal(mask, &mutated, true);
            }
        }
    }
}

/// Decode `payload` as a manifest's: it must be a manifest or corrupt,
/// within the allocation bound.
fn check_manifest(payload: &[u8]) {
    let mut bytes = MANIFEST_MAGIC.to_vec();
    bytes.extend_from_slice(&frame(b"MAN1", payload));
    let (outcome, allocated) = counted(|| Manifest::decode(&bytes));
    let bound = ALLOC_PER_BYTE * bytes.len() + ALLOC_SLACK;
    assert!(
        allocated <= bound,
        "{allocated} bytes allocated (bound {bound}) for {payload:?}"
    );
    match outcome {
        Ok(manifest) => assert_eq!(manifest.encode(), bytes),
        Err(WalError::Corrupt { .. }) => {}
        Err(other) => panic!("{other:?} for {payload:?}"),
    }
}

#[test]
fn arbitrary_and_mutated_manifest_payloads_are_manifests_or_corrupt() {
    let mut gen = Gen(0x3a4f);
    for _ in 0..2000 {
        let len = gen.below(96);
        check_manifest(&gen.bytes(len));
    }
    let good = Manifest {
        segments: vec![2, 5, 9],
    }
    .encode()[MANIFEST_MAGIC.len() + FRAME_HEADER_LEN..]
        .to_vec();
    check_manifest(&good);
    for at in 0..good.len() {
        for flip in [0x01, 0x80, 0xff] {
            let mut mutated = good.clone();
            mutated[at] ^= flip;
            check_manifest(&mutated);
        }
    }
    for at in 0..good.len().saturating_sub(7) {
        let mut mutated = good.clone();
        mutated[at..at + 8].copy_from_slice(&u64::MAX.to_le_bytes());
        check_manifest(&mutated);
    }
}

#[test]
fn accepted_users_out_of_order_or_repeated_are_corrupt() {
    // Payload offset of the first accepted user: epoch, batches seen,
    // loss tag, five policy words, population and accepted count.
    const ACCEPTED_AT: usize = 8 + 8 + 1 + 40 + 8 + 8;
    let base = record(RecordKind::Epoch, 4, vec![0, 2], vec![1, 0, 1]);
    let next = record(RecordKind::Epoch, 5, vec![0, 2], vec![2, 0, 2]);
    let full = next.encode()[FRAME_HEADER_LEN..].to_vec();
    let delta = next.encode_delta(&base).unwrap()[FRAME_HEADER_LEN..].to_vec();
    for (mask, good) in [(b"WAL1", full), (b"WAL3", delta)] {
        let log =
            |payload: &[u8]| [WAL_MAGIC.as_slice(), &base.encode(), &frame(mask, payload)].concat();
        assert_eq!(wal::replay(&log(&good)).unwrap().records[1], next);
        for accepted in [[2u64, 0], [1, 1]] {
            let mut bad = good.clone();
            for (i, user) in accepted.iter().enumerate() {
                let at = ACCEPTED_AT + 8 * i;
                bad[at..at + 8].copy_from_slice(&user.to_le_bytes());
            }
            match wal::replay(&log(&bad)) {
                Err(WalError::Corrupt { reason, .. }) => {
                    assert!(reason.contains("ascending"), "{reason}");
                }
                other => panic!("{mask:?} accepted {accepted:?}: {other:?}"),
            }
        }
    }
}
