//! Incremental frame decoding for the event-driven front end.
//!
//! A reactor thread reads whatever bytes a socket has — one byte, half
//! a frame, three frames and a torn tail — and must never block waiting
//! for the rest. [`FrameDecoder`] is the per-connection accumulator
//! that turns those arbitrary read boundaries back into whole frames:
//! bytes go in via [`extend`](FrameDecoder::extend), complete
//! checksummed bodies come out via
//! [`next_frame`](FrameDecoder::next_frame), and a frame split across
//! any number of reads decodes identically to one read off a blocking
//! socket (pinned by `decoder_proptests.rs` at every byte boundary).
//!
//! The decoder is a thin stateful wrapper over [`wire::split_frame`] —
//! the pure decode the malformed-input proptests use, which validates a
//! header with the same `wire::FrameHeader` the blocking path reads
//! through and runs the same v2 [`wire::frame_check`] once per body — so
//! every hardening property carries over: a typed [`WireError`] for
//! corruption, no allocation driven by an unvalidated length, no panic
//! on any byte string.

use crate::wire::{self, WireError, FRAME_HEADER_LEN, MAX_FRAME_LEN};

/// How much dead space a connection buffer (this decoder's, and the
/// connection's output buffer) may accumulate before the live tail is
/// compacted to the front. Compaction is O(live bytes), so amortising it
/// against at least a header's worth of consumed frames keeps the
/// buffer linear overall.
pub(crate) const COMPACT_THRESHOLD: usize = 4 * 1024;

/// A per-connection incremental frame decoder.
///
/// Feed it bytes in whatever chunks the socket yields; pull complete
/// frame bodies out. Once a frame is malformed (failed checksum, lying
/// length, oversized) the error is sticky — a connection that has lost
/// framing can never resynchronise, so every later call returns the
/// same error and the caller should hang up.
#[derive(Debug, Default)]
pub struct FrameDecoder {
    /// Accumulated bytes; `start..` is the undecoded tail.
    buf: Vec<u8>,
    /// Offset of the first undecoded byte.
    start: usize,
    /// The first hard decode error, latched.
    poisoned: Option<WireError>,
}

impl FrameDecoder {
    /// A fresh decoder with nothing buffered.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append bytes read from the connection.
    pub fn extend(&mut self, bytes: &[u8]) {
        if self.poisoned.is_some() {
            return;
        }
        self.compact_if_worthwhile();
        self.buf.extend_from_slice(bytes);
    }

    /// Pop the next complete frame body, if the buffer holds one.
    ///
    /// `Ok(None)` means "more bytes needed" — the connection is healthy,
    /// just mid-frame. `Ok(Some(body))` is one decoded, checksum-valid
    /// frame body in arrival order.
    ///
    /// # Errors
    ///
    /// Any non-truncation [`WireError`] from the underlying
    /// [`wire::split_frame`]; the error latches and the connection
    /// should be closed.
    pub fn next_frame(&mut self) -> Result<Option<Vec<u8>>, WireError> {
        if let Some(err) = &self.poisoned {
            return Err(err.clone());
        }
        match wire::split_frame(&self.buf[self.start..]) {
            Ok((body, consumed)) => {
                let body = body.to_vec();
                self.start += consumed;
                if self.start == self.buf.len() {
                    self.buf.clear();
                    self.start = 0;
                }
                Ok(Some(body))
            }
            Err(WireError::Truncated { .. }) => Ok(None),
            Err(err) => {
                self.poisoned = Some(err.clone());
                Err(err)
            }
        }
    }

    /// Whether bytes of an incomplete frame are buffered — the
    /// distinction the connection deadlines care about: a connection
    /// holding half a frame is *stalled* (short deadline), an empty one
    /// is merely *idle* (long deadline).
    pub fn has_partial(&self) -> bool {
        self.start < self.buf.len()
    }

    /// Bytes currently buffered but not yet decoded.
    pub fn buffered(&self) -> usize {
        self.buf.len() - self.start
    }

    /// Whether a hard decode error has latched.
    pub fn is_poisoned(&self) -> bool {
        self.poisoned.is_some()
    }

    /// Upper bound on bytes worth reading right now: enough to finish
    /// the frame in progress (or start a new one) without letting one
    /// connection buffer unboundedly past [`MAX_FRAME_LEN`].
    pub fn read_budget(&self) -> usize {
        (MAX_FRAME_LEN + FRAME_HEADER_LEN).saturating_sub(self.buffered())
    }

    fn compact_if_worthwhile(&mut self) {
        if self.start >= COMPACT_THRESHOLD && self.start * 2 >= self.buf.len() {
            self.buf.drain(..self.start);
            self.start = 0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::Request;

    fn frames() -> Vec<Vec<u8>> {
        vec![
            Request::QueryTruths {
                campaign: "a".to_string(),
            }
            .encode(),
            Request::CloseRound {
                campaign: "b".to_string(),
                epoch: 3,
            }
            .encode(),
            Request::QueryBudget {
                campaign: "c".to_string(),
            }
            .encode(),
        ]
    }

    #[test]
    fn one_byte_at_a_time_yields_every_frame_in_order() {
        let frames = frames();
        let stream: Vec<u8> = frames.concat();
        let mut decoder = FrameDecoder::new();
        let mut out = Vec::new();
        for &b in &stream {
            decoder.extend(&[b]);
            while let Some(body) = decoder.next_frame().unwrap() {
                out.push(body);
            }
        }
        let expected: Vec<Vec<u8>> = frames
            .iter()
            .map(|f| f[FRAME_HEADER_LEN..].to_vec())
            .collect();
        assert_eq!(out, expected);
        assert!(!decoder.has_partial());
    }

    #[test]
    fn many_frames_in_one_read_drain_without_more_input() {
        let stream: Vec<u8> = frames().concat();
        let mut decoder = FrameDecoder::new();
        decoder.extend(&stream);
        let mut n = 0;
        while decoder.next_frame().unwrap().is_some() {
            n += 1;
        }
        assert_eq!(n, 3);
        assert_eq!(decoder.buffered(), 0);
    }

    #[test]
    fn partial_frames_report_stalled_not_idle() {
        let frame = frames().remove(0);
        let mut decoder = FrameDecoder::new();
        assert!(!decoder.has_partial(), "empty decoder is idle");
        decoder.extend(&frame[..frame.len() - 1]);
        assert_eq!(decoder.next_frame().unwrap(), None);
        assert!(decoder.has_partial(), "a torn frame is a stall");
        decoder.extend(&frame[frame.len() - 1..]);
        assert!(decoder.next_frame().unwrap().is_some());
        assert!(!decoder.has_partial());
    }

    #[test]
    fn corruption_latches_and_repeats() {
        let mut frame = frames().remove(0);
        let last = frame.len() - 1;
        frame[last] ^= 0x01;
        let mut decoder = FrameDecoder::new();
        decoder.extend(&frame);
        assert_eq!(decoder.next_frame(), Err(WireError::Checksum));
        assert!(decoder.is_poisoned());
        // Later (even well-formed) bytes cannot resynchronise the stream.
        decoder.extend(&frames()[1]);
        assert_eq!(decoder.next_frame(), Err(WireError::Checksum));
    }

    #[test]
    fn compaction_preserves_the_undecoded_tail() {
        // Enough small frames to push `start` past the compaction
        // threshold, with a torn frame held across the boundary.
        let small = Request::QueryTruths {
            campaign: "x".to_string(),
        }
        .encode();
        let mut decoder = FrameDecoder::new();
        let mut decoded = 0;
        for _ in 0..1024 {
            decoder.extend(&small);
            while decoder.next_frame().unwrap().is_some() {
                decoded += 1;
            }
        }
        // Tear one frame across two extends with decode attempts between.
        decoder.extend(&small[..5]);
        assert_eq!(decoder.next_frame().unwrap(), None);
        decoder.extend(&small[5..]);
        assert!(decoder.next_frame().unwrap().is_some());
        assert_eq!(decoded, 1024);
    }

    #[test]
    fn read_budget_is_bounded_by_the_frame_cap() {
        let mut decoder = FrameDecoder::new();
        assert_eq!(decoder.read_budget(), MAX_FRAME_LEN + FRAME_HEADER_LEN);
        decoder.extend(&[0u8; 7]);
        assert_eq!(decoder.read_budget(), MAX_FRAME_LEN + FRAME_HEADER_LEN - 7);
    }
}
