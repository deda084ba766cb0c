//! The v2 frame check's guarantees, as properties.
//!
//! [`frame_check`] runs four `u64` lanes, each step a bijection in its
//! word, and folds the lanes and the body length through bijections.
//! So a body that differs from the sent one in a single word — and so
//! in a single byte or bit — is refused with **certainty**, not with
//! high probability. The first two properties check that promise
//! exhaustively over every bit of short bodies (which straddle the
//! 8-byte tail word and the 32-byte block) and for random aligned words
//! of bodies up to 64 KiB. The others check corruptions the check only
//! catches with high probability but must not miss structurally: two
//! words swapped within one lane or across lanes, and a body extended
//! with zeros under a header whose length was made consistent.

use proptest::prelude::*;

use dptd_server::wire::{frame_check, split_frame, WireError};

/// SplitMix64 bytes: a body per seed, without a 64 KiB `Vec` strategy.
fn body(seed: u64, len: usize) -> Vec<u8> {
    let mut state = seed;
    let mut out = Vec::with_capacity(len + 8);
    while out.len() < len {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        out.extend_from_slice(&(z ^ (z >> 31)).to_le_bytes());
    }
    out.truncate(len);
    out
}

/// `body` framed under a consistent header whose stored check is `check`.
fn frame(body: &[u8], check: u64) -> Vec<u8> {
    let len = body.len() as u32;
    [
        &len.to_le_bytes()[..],
        &(len ^ u32::from_le_bytes(*b"NET1")).to_le_bytes(),
        &check.to_le_bytes(),
        body,
    ]
    .concat()
}

/// `corrupted` differs from `sent`; framed under `sent`'s check, the
/// frame decoder must refuse it.
fn assert_refused(sent: &[u8], corrupted: &[u8], what: &str) {
    assert_ne!(sent, corrupted, "{what}: not a corruption");
    assert_ne!(frame_check(sent), frame_check(corrupted), "{what}");
    assert_eq!(
        split_frame(&frame(corrupted, frame_check(sent))),
        Err(WireError::Checksum),
        "{what}"
    );
}

#[test]
fn the_empty_body_check_is_non_zero() {
    assert_ne!(frame_check(&[]), 0);
    // So a zeroed header is never an empty frame that passes.
    assert_eq!(
        split_frame(&frame(&[], 0)),
        Err(WireError::Checksum),
        "a zero stored check on an empty body"
    );
}

#[test]
fn every_single_bit_flip_is_detected_in_bodies_up_to_100_bytes() {
    for len in 0..=100usize {
        for sent in [vec![0u8; len], body(len as u64, len)] {
            let framed = frame(&sent, frame_check(&sent));
            assert_eq!(split_frame(&framed), Ok((&sent[..], framed.len())));
            for bit in 0..len * 8 {
                let mut corrupted = sent.clone();
                corrupted[bit / 8] ^= 1 << (bit % 8);
                assert_refused(&sent, &corrupted, &format!("len {len}, bit {bit}"));
            }
        }
    }
}

/// `sent` with whole words `i` and `j` traded places.
fn swapped(sent: &[u8], i: usize, j: usize) -> Vec<u8> {
    let mut out = sent.to_vec();
    out[i * 8..i * 8 + 8].copy_from_slice(&sent[j * 8..j * 8 + 8]);
    out[j * 8..j * 8 + 8].copy_from_slice(&sent[i * 8..i * 8 + 8]);
    out
}

/// Every pair of words in bodies of up to three blocks: where one block
/// is all there is, a swap across lanes exchanges two lanes' whole
/// histories, which only distinct seeds and an ordered fold tell apart.
#[test]
fn every_word_swap_is_detected_in_bodies_up_to_three_blocks() {
    for words in 2..=12usize {
        let sent = body(words as u64, words * 8);
        for i in 0..words {
            for j in i + 1..words {
                let what = format!("words {i} and {j} of {words}");
                assert_refused(&sent, &swapped(&sent, i, j), &what);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Any value written over one aligned word — a partial one at the
    /// tail included — is refused.
    #[test]
    fn a_substituted_aligned_word_is_detected(
        seed in 0u64..u64::MAX,
        len in 1usize..=64 * 1024,
        at in 0usize..usize::MAX,
        replacement in 0u64..u64::MAX,
    ) {
        let sent = body(seed, len);
        let start = (at % len.div_ceil(8)) * 8;
        let end = (start + 8).min(len);
        let mut corrupted = sent.clone();
        corrupted[start..end].copy_from_slice(&replacement.to_le_bytes()[..end - start]);
        if corrupted == sent {
            corrupted[start] ^= 1;
        }
        assert_refused(&sent, &corrupted, &format!("len {len}, word at {start}"));
    }

    /// Two distinct whole words traded places: `lane_gap == 0` keeps both
    /// in one lane (they are whole blocks apart), otherwise they sit in
    /// different lanes.
    #[test]
    fn swapped_words_are_detected(
        seed in 0u64..u64::MAX,
        words in 2usize..=512,
        first in 0usize..usize::MAX,
        blocks_apart in 0usize..16,
        lane_gap in 0usize..4,
    ) {
        let sent = body(seed, words * 8);
        let i = first % words;
        let j = (i + blocks_apart * 4 + lane_gap) % words;
        let corrupted = swapped(&sent, i, j);
        if corrupted != sent {
            assert_refused(&sent, &corrupted, &format!("words {i} and {j} of {words}"));
        }
    }

    /// Zeros appended to a body, with the length prefix and its
    /// self-check rewritten to match: the header is consistent, but the
    /// check was taken over the shorter body. The zero-padded tail word
    /// alone cannot tell these apart; the length folded into the check
    /// does.
    #[test]
    fn a_zero_extended_body_under_a_consistent_header_is_refused(
        seed in 0u64..u64::MAX,
        len in 0usize..=1024,
        extra in 1usize..=64,
    ) {
        let sent = body(seed, len);
        let mut extended = sent.clone();
        extended.resize(len + extra, 0);
        assert_refused(&sent, &extended, &format!("len {len} + {extra} zeros"));
    }
}
