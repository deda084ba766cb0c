//! The segmented store's manifest: the single source of truth for
//! which segment files constitute the log, in order.
//!
//! The manifest is a tiny checksummed binary file, only ever replaced
//! **atomically** ([`StoreFs::write_atomic`](super::fs::StoreFs) —
//! temp file + fsync + rename + directory fsync), which is what makes
//! rotation and compaction crash-atomic: every multi-file operation is
//! staged so that the single manifest rename is its commit point. Any
//! `segment-*.wal` file *not* named by the manifest is an orphan — a
//! staged segment whose commit never happened, or a collected segment
//! whose deletion was interrupted — and is deterministically deleted
//! when a writer next opens the store.
//!
//! # On-disk layout (version 1, pinned by a golden test)
//!
//! ```text
//! file    := magic frame
//! magic   := "DPTDMAN" 0x01                     (8 bytes)
//! frame   := payload_len:u32 len_check:u32 checksum:u64 payload
//! payload := segment_count:u64 segment_id:u64*  (little-endian)
//! ```
//!
//! `len_check` is `payload_len ^ "MAN1"` and `checksum` is FNV-1a over
//! the payload: the frame is the WAL's own ([`crate::wal`] writes and
//! parses it), and the payload is declared with [`crate::codec`].
//! Segment ids are strictly increasing; the **last** id is the active
//! (appending) segment.

use crate::codec::{Ascending, Counter, Field, Malformed, Reader};
use crate::wal::{checksum, put_frame, read_header, WalError, FRAME_HEADER_LEN};

/// Name of the manifest file inside a store directory.
pub const MANIFEST_FILE: &str = "MANIFEST";

/// The 8-byte manifest header: 7 ASCII magic bytes plus the version.
pub const MANIFEST_MAGIC: [u8; 8] = *b"DPTDMAN\x01";

/// XOR mask for the manifest frame's length self-check.
const MAN_XOR: u32 = u32::from_le_bytes(*b"MAN1");

/// The ordered list of segments that constitute the log. The last entry
/// is the active segment; everything before it is sealed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Manifest {
    /// Strictly increasing segment ids, oldest first, never empty.
    pub segments: Vec<u64>,
}

/// File name of segment `id` (`segment-000.wal`, `segment-001.wal`, …;
/// the zero-padding widens past 999 without colliding).
pub fn segment_file_name(id: u64) -> String {
    format!("segment-{id:03}.wal")
}

/// Parse a segment file name back to its id (`None` for any other
/// file — the lock, the manifest, a temp file).
pub fn parse_segment_name(name: &str) -> Option<u64> {
    name.strip_prefix("segment-")?
        .strip_suffix(".wal")?
        .parse()
        .ok()
}

impl Manifest {
    /// The active (appending) segment's id.
    pub fn active(&self) -> u64 {
        *self.segments.last().expect("manifest is never empty")
    }

    /// The id the next rotation or compaction will use. Ids strictly
    /// increase for the store's lifetime, so a garbage-collected id is
    /// never reused (a stale file can never masquerade as a live one).
    pub fn next_id(&self) -> u64 {
        self.active() + 1
    }

    /// Encode the manifest file (magic + checksummed frame).
    pub fn encode(&self) -> Vec<u8> {
        let mut len = Counter(0);
        Ascending::<u64>::put(&self.segments, &mut len);
        let mut bytes = MANIFEST_MAGIC.to_vec();
        put_frame(&mut bytes, MAN_XOR, len.0, |w| {
            Ascending::<u64>::put(&self.segments, w)
        });
        bytes
    }

    /// Decode and validate a manifest file.
    ///
    /// A manifest is only ever written atomically, so **any** damage —
    /// bad magic, failed self-check, bad checksum, truncation, a
    /// non-increasing id list — is [`WalError::Corrupt`] (or
    /// [`WalError::BadMagic`] for a foreign header), never repaired:
    /// unlike a log tail there is no legitimate way for it to be torn.
    pub fn decode(bytes: &[u8]) -> Result<Self, WalError> {
        let corrupt = |reason: &'static str, offset: u64| WalError::Corrupt { offset, reason };
        if bytes.len() < MANIFEST_MAGIC.len() {
            return Err(corrupt("manifest shorter than its header", 0));
        }
        if bytes[..MANIFEST_MAGIC.len()] != MANIFEST_MAGIC {
            return Err(WalError::BadMagic);
        }
        let rest = &bytes[MANIFEST_MAGIC.len()..];
        let (payload_len, mask, sum) =
            read_header(rest).ok_or(corrupt("manifest frame header truncated", 8))?;
        let payload = &rest[FRAME_HEADER_LEN..];
        if mask != MAN_XOR || payload.len() != payload_len || checksum(payload) != sum {
            return Err(corrupt(
                "manifest frame failed its length or checksum check",
                8,
            ));
        }
        let r = &mut Reader { buf: payload };
        let segments: Vec<u64> =
            Ascending::<u64>::get(r).map_err(|Malformed(reason)| corrupt(reason, 24))?;
        if !r.buf.is_empty() {
            return Err(corrupt("manifest id count disagrees with its payload", 24));
        }
        if segments.is_empty() {
            return Err(corrupt("manifest names no segments", 24));
        }
        Ok(Self { segments })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn manifest_round_trips() {
        let m = Manifest {
            segments: vec![0, 3, 7],
        };
        assert_eq!(Manifest::decode(&m.encode()).unwrap(), m);
        assert_eq!(m.active(), 7);
        assert_eq!(m.next_id(), 8);
    }

    #[test]
    fn golden_manifest_layout_is_pinned() {
        // Version-1 layout, byte for byte. If this fails you changed the
        // manifest format: bump the magic version byte.
        let m = Manifest {
            segments: vec![2, 5],
        };
        let golden: Vec<u8> = [
            b"DPTDMAN\x01".to_vec(),
            // payload_len = 24
            vec![24, 0, 0, 0],
            (24u32 ^ u32::from_le_bytes(*b"MAN1"))
                .to_le_bytes()
                .to_vec(),
            // FNV-1a over the payload
            checksum(&[2u64.to_le_bytes(), 2u64.to_le_bytes(), 5u64.to_le_bytes()].concat())
                .to_le_bytes()
                .to_vec(),
            // count = 2, ids 2 and 5
            vec![2, 0, 0, 0, 0, 0, 0, 0],
            vec![2, 0, 0, 0, 0, 0, 0, 0],
            vec![5, 0, 0, 0, 0, 0, 0, 0],
        ]
        .concat();
        assert_eq!(m.encode(), golden);
    }

    #[test]
    fn every_damaged_manifest_is_refused() {
        let good = Manifest {
            segments: vec![0, 1],
        }
        .encode();
        // Any single-byte flip is BadMagic or Corrupt, never a silent
        // different manifest.
        for i in 0..good.len() {
            let mut bad = good.clone();
            bad[i] ^= 0xff;
            let err = Manifest::decode(&bad).unwrap_err();
            assert!(
                matches!(err, WalError::Corrupt { .. } | WalError::BadMagic),
                "flip at {i}: {err:?}"
            );
        }
        // Any truncation is refused too (a manifest is never torn).
        for cut in 0..good.len() {
            assert!(Manifest::decode(&good[..cut]).is_err(), "cut at {cut}");
        }
        // Non-increasing ids and an empty list are structural damage.
        let dup = Manifest {
            segments: vec![3, 3],
        };
        assert!(Manifest::decode(&dup.encode()).is_err());
        let mut empty = MANIFEST_MAGIC.to_vec();
        let payload = 0u64.to_le_bytes();
        empty.extend_from_slice(&8u32.to_le_bytes());
        empty.extend_from_slice(&(8u32 ^ MAN_XOR).to_le_bytes());
        empty.extend_from_slice(&checksum(&payload).to_le_bytes());
        empty.extend_from_slice(&payload);
        assert!(Manifest::decode(&empty).is_err());
    }

    #[test]
    fn segment_names_round_trip() {
        assert_eq!(segment_file_name(0), "segment-000.wal");
        assert_eq!(segment_file_name(12), "segment-012.wal");
        assert_eq!(segment_file_name(4096), "segment-4096.wal");
        for id in [0, 7, 999, 1000, u64::MAX] {
            assert_eq!(parse_segment_name(&segment_file_name(id)), Some(id));
        }
        assert_eq!(parse_segment_name("MANIFEST"), None);
        assert_eq!(parse_segment_name("LOCK"), None);
        assert_eq!(parse_segment_name("segment-000.wal.tmp"), None);
        assert_eq!(parse_segment_name("segment-.wal"), None);
    }
}
