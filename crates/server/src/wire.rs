//! The campaign service's binary wire protocol (version 1).
//!
//! Everything on the socket is a **frame**: a fixed 16-byte header
//! followed by a checksummed body, mirroring the engine's write-ahead
//! log framing so both binary formats in the workspace share one
//! discipline (length prefix with an XOR self-check, FNV-1a checksum,
//! size-bounded decode).
//!
//! # On-the-wire layout (version 1, pinned by a golden test)
//!
//! ```text
//! hello  := "DPTDNET" 0x01                    (8 bytes, client → server,
//!                                              echoed back on accept)
//! frame  := body_len:u32 len_check:u32 checksum:u64 body
//! body   := kind:u8 payload                   (all little-endian)
//! ```
//!
//! `len_check` is `body_len ^ "NET1"`; `checksum` is FNV-1a over the
//! body. A header whose self-check fails, a body whose checksum fails,
//! or a length past [`MAX_FRAME_LEN`] is a typed [`WireError`] — never a
//! panic, and never an allocation driven by an unvalidated length: every
//! count a payload claims is bounded against the bytes actually present
//! before any `Vec` is sized (the same hardening as the WAL decode).
//!
//! Request kinds are `0x01..`, response kinds `0x81..`; an unknown kind
//! is [`WireError::UnknownKind`]. Strings (campaign ids) are
//! length-prefixed UTF-8, bounded by [`MAX_CAMPAIGN_ID_LEN`] and
//! restricted to `[A-Za-z0-9._-]` (they name per-campaign WAL
//! directories, so path separators must be unrepresentable).
//!
//! # One declaration per layout
//!
//! Each kind of field — integer, flag, string, counted sequence, … — is
//! one `Field` impl: its minimum size, how it is written, and how it is
//! read back with every check on outside input. A frame is one row of
//! the `frames!` table under [`Request`] or [`Response`] — kind byte,
//! variant, fields in wire order — and the variant definition, kind
//! dispatch, exact length ([`Request::body_len`]), `encode` and `decode`
//! are all expanded from that row, so they cannot disagree (`record!`
//! does the same for flat structs, `tagged!` for byte-tagged enums).
//! A frame's length is known before it is built, so it is allocated
//! once at exactly its size and [`MAX_FRAME_LEN`] is enforced on the way
//! **out** too ([`Request::try_encode`]).
//!
//! # Adding a frame
//!
//! 1. Add one row to the `frames!` table: the next free kind byte, the
//!    variant with its rustdoc, and `field: Type` in wire order (`as
//!    Kind` where the wire form is narrower than the type). A new field
//!    type needs one `Field` impl, or a `record!` if it is a flat struct.
//! 2. Add its fixture and captured bytes to `tests/wire_golden.rs` and a
//!    generator arm to `tests/wire_proptests.rs`, which walks
//!    [`Request::KINDS`] and fails on a kind it cannot generate.
//!
//! Changing an existing row is a format break: bump the [`HELLO`]
//! version byte and keep a v1 decoder instead.

use std::fmt;

use dptd_core::roles::PerturbedReport;
use dptd_obs::{
    HistogramSnapshot, MetricValue, MetricsSnapshot, SpanContext, TraceEvent, NUM_BUCKETS,
};
use dptd_protocol::message::StampedReport;
use dptd_stats::digest::Fnv1a;

/// The 8-byte connection hello: 7 ASCII magic bytes plus the protocol
/// version. Sent by the client on connect, echoed by the server.
pub const HELLO: [u8; 8] = *b"DPTDNET\x01";

/// Bytes of frame overhead before each body (length prefix, length
/// self-check, checksum).
pub const FRAME_HEADER_LEN: usize = 4 + 4 + 8;

/// Upper bound on a frame body. Large submissions must be chunked by the
/// client ([`crate::client::Client::submit_chunked`]); the bound is what
/// lets the server reject a length-lying header before allocating.
pub const MAX_FRAME_LEN: usize = 32 << 20;

/// Upper bound on a campaign id, in bytes.
pub const MAX_CAMPAIGN_ID_LEN: usize = 64;

/// XOR mask for the frame header's length self-check.
const LEN_XOR: u32 = u32::from_le_bytes(*b"NET1");

/// Typed wire-level failures. Every way a byte stream can be malformed
/// maps here; the codec never panics and never over-allocates.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The buffer ends before the frame does (stream truncated mid-frame
    /// — e.g. a peer that died mid-write).
    Truncated {
        /// Bytes the frame needs.
        needed: usize,
        /// Bytes present.
        have: usize,
    },
    /// The header claims a body larger than [`MAX_FRAME_LEN`].
    TooLarge {
        /// The claimed body length.
        claimed: u64,
    },
    /// The length prefix failed its XOR self-check — a corrupted or
    /// non-protocol header.
    LenCheck,
    /// The body checksum did not match its header.
    Checksum,
    /// The body's kind byte names no known message.
    UnknownKind(
        /// The offending kind byte.
        u8,
    ),
    /// The payload violates its kind's structure (a claimed count larger
    /// than the bytes present, an over-long or ill-charactered campaign
    /// id, trailing bytes, …).
    Malformed(
        /// What was wrong.
        &'static str,
    ),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated { needed, have } => {
                write!(f, "frame truncated: needs {needed} bytes, got {have}")
            }
            WireError::TooLarge { claimed } => {
                write!(
                    f,
                    "frame body of {claimed} bytes exceeds the {MAX_FRAME_LEN}-byte cap"
                )
            }
            WireError::LenCheck => write!(f, "frame length prefix failed its self-check"),
            WireError::Checksum => write!(f, "frame checksum mismatch"),
            WireError::UnknownKind(kind) => write!(f, "unknown frame kind 0x{kind:02x}"),
            WireError::Malformed(reason) => write!(f, "malformed frame payload: {reason}"),
        }
    }
}

impl std::error::Error for WireError {}

/// A `#[repr(u8)]` enum that states `Variant = byte` (and, where people
/// read it, `=> "display-name"`) once: the definition, `from_u8`, the
/// `Field` codec — an unknown byte is `Malformed($unknown)` — and `Display`
/// come from one list, so a variant cannot be encodable but not decodable.
macro_rules! tagged {
    (
        $(#[$meta:meta])*
        pub enum $name:ident, else $unknown:literal {
            $($(#[$vmeta:meta])* $variant:ident = $byte:literal $(=> $display:literal)?),* $(,)?
        }
    ) => {
        $(#[$meta])*
        pub enum $name {
            $($(#[$vmeta])* $variant = $byte),*
        }

        impl $name {
            /// Decode a wire byte.
            pub fn from_u8(byte: u8) -> Option<Self> {
                match byte {
                    $($byte => Some(Self::$variant),)*
                    _ => None,
                }
            }
        }

        impl Field for $name {
            const MIN_LEN: usize = 1;
            fn put<S: Sink>(v: &Self, w: &mut S) {
                w.put(&(*v as u8));
            }
            fn get(r: &mut Reader<'_>) -> Result<Self, WireError> {
                Self::from_u8(r.get()?).ok_or(WireError::Malformed($unknown))
            }
        }

        tagged!(@display $name $($variant $($display)?)*);
    };
    (@display $name:ident $($variant:ident $display:literal)+) => {
        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                f.write_str(match self {
                    $(Self::$variant => $display,)*
                })
            }
        }
    };
    (@display $name:ident $($variant:ident)*) => {};
}

tagged! {
    /// Why the server refused a request, as a stable wire-level code.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    #[repr(u8)]
    pub enum ErrorCode, else "unknown error code" {
        /// No campaign under that id.
        UnknownCampaign = 1 => "unknown-campaign",
        /// A live campaign already holds that id.
        CampaignExists = 2 => "campaign-exists",
        /// The request was structurally valid but semantically wrong (wrong
        /// epoch, bad sizing, ill-formed campaign id, …).
        InvalidRequest = 3 => "invalid-request",
        /// The round starved: after deadline/dedup/refusal filtering some
        /// object had no surviving report.
        InsufficientCoverage = 4 => "insufficient-coverage",
        /// Every submitting user's privacy budget is exhausted — the
        /// [`dptd_protocol::budget::BudgetAccountant`] refused them all.
        BudgetExhausted = 5 => "budget-exhausted",
        /// The campaign's write-ahead log refused the operation (locked by
        /// another writer, corrupt, policy mismatch, or durability was
        /// requested on a server with no WAL root).
        WalRefused = 6 => "wal-refused",
        /// The server is at its connection worker budget.
        ServerBusy = 7 => "server-busy",
        /// Anything else (engine/internal failures).
        Internal = 8 => "internal",
        /// The campaign is quarantined: a worker panicked while holding its
        /// state lock, so the in-memory state cannot be trusted mid-round.
        /// Requests on the campaign are refused instead of risking a
        /// corrupted merge; recreate the campaign (or restart the server,
        /// replaying its WAL) to recover.
        CampaignQuarantined = 9 => "campaign-quarantined",
    }
}

tagged! {
    /// A store operation replicated from a primary's WAL directory to its
    /// follower, in commit order. The four variants mirror the four
    /// mutating methods of the engine's `StoreFs` trait, so a follower that
    /// applies them in sequence reconstructs the primary's directory byte
    /// for byte.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    #[repr(u8)]
    pub enum StoreOp, else "unknown store operation" {
        /// Append bytes to a (possibly new) file.
        Append = 0,
        /// Replace a file's contents all-or-nothing.
        WriteAtomic = 1,
        /// Shrink a file to `arg` bytes.
        Truncate = 2,
        /// Delete a file.
        Remove = 3,
    }
}

fn checksum(body: &[u8]) -> u64 {
    let mut h = Fnv1a::new();
    for &b in body {
        h.write_u8(b);
    }
    h.finish()
}

/// Split one frame off the front of `buf`.
///
/// Returns the frame body and the total bytes consumed. This is the pure
/// decode the socket layer and the malformed-input proptests share: any
/// byte string either yields a body, a typed [`WireError`], or
/// [`WireError::Truncated`] (more bytes needed) — never a panic, and the
/// body allocation is bounded by the bytes actually present.
///
/// # Errors
///
/// [`WireError::Truncated`] when `buf` holds less than a full frame;
/// [`WireError::LenCheck`], [`WireError::TooLarge`], or
/// [`WireError::Checksum`] for an invalid header or body.
pub fn split_frame(buf: &[u8]) -> Result<(&[u8], usize), WireError> {
    if buf.len() < FRAME_HEADER_LEN {
        return Err(WireError::Truncated {
            needed: FRAME_HEADER_LEN,
            have: buf.len(),
        });
    }
    let body_len = u32::from_le_bytes(buf[..4].try_into().expect("4 bytes"));
    let len_check = u32::from_le_bytes(buf[4..8].try_into().expect("4 bytes"));
    if body_len ^ LEN_XOR != len_check {
        return Err(WireError::LenCheck);
    }
    if body_len as usize > MAX_FRAME_LEN {
        return Err(WireError::TooLarge {
            claimed: u64::from(body_len),
        });
    }
    let stored_sum = u64::from_le_bytes(buf[8..16].try_into().expect("8 bytes"));
    let total = FRAME_HEADER_LEN + body_len as usize;
    if buf.len() < total {
        return Err(WireError::Truncated {
            needed: total,
            have: buf.len(),
        });
    }
    let body = &buf[FRAME_HEADER_LEN..total];
    if checksum(body) != stored_sum {
        return Err(WireError::Checksum);
    }
    Ok((body, total))
}

/// Validate a campaign id: non-empty, at most [`MAX_CAMPAIGN_ID_LEN`]
/// bytes, characters from `[A-Za-z0-9._-]`, not starting with a dot.
/// Ids name per-campaign WAL directories, so nothing path-like may pass.
///
/// # Errors
///
/// [`WireError::Malformed`] describing the violated rule.
pub fn validate_campaign_id(id: &str) -> Result<(), WireError> {
    if id.is_empty() {
        return Err(WireError::Malformed("campaign id is empty"));
    }
    if id.len() > MAX_CAMPAIGN_ID_LEN {
        return Err(WireError::Malformed("campaign id too long"));
    }
    if id.starts_with('.') {
        return Err(WireError::Malformed("campaign id starts with a dot"));
    }
    if !id
        .bytes()
        .all(|b| b.is_ascii_alphanumeric() || b == b'.' || b == b'_' || b == b'-')
    {
        return Err(WireError::Malformed(
            "campaign id may only use [A-Za-z0-9._-]",
        ));
    }
    Ok(())
}

// ---------------------------------------------------------------------
// Body writer/reader
// ---------------------------------------------------------------------

/// Where a body's bytes go: into the frame buffer ([`Writer`]) or, to
/// learn a frame's exact length before allocating it, into a
/// [`Counter`]. Both passes run the same `put` code, so the length a
/// frame declares cannot drift from the bytes it writes.
trait Sink: Sized {
    fn bytes(&mut self, b: &[u8]);
    /// Append one field; the value's type selects the wire form.
    fn put<T: Field>(&mut self, v: &T) {
        T::put(v, self);
    }
    /// `len:u16` then UTF-8. Free text past 65 535 bytes is cut to the
    /// longest prefix that ends on a `char` boundary, so its decoder still
    /// reads valid UTF-8 (validated ids and names are bounded to 64).
    fn str(&mut self, s: &str) {
        let mut end = s.len().min(usize::from(u16::MAX));
        while !s.is_char_boundary(end) {
            end -= 1;
        }
        self.put(&(end as u16));
        self.bytes(&s.as_bytes()[..end]);
    }
    /// A counted sequence: `count:u32` then each item.
    fn seq<T: Field>(&mut self, items: &[T]) {
        self.put(&(items.len() as u32));
        for item in items {
            self.put(item);
        }
    }
}

/// The sizing pass: counts what a [`Writer`] would be given.
struct Counter(usize);

impl Sink for Counter {
    fn bytes(&mut self, b: &[u8]) {
        self.0 += b.len();
    }
}

/// Builds one frame in place: the buffer opens with the 16 header
/// bytes reserved, the body is written behind them, and
/// [`Writer::finish`] patches length, length check and checksum into
/// the reservation — a multi-megabyte body is never copied into a
/// second buffer to gain its header.
struct Writer {
    buf: Vec<u8>,
}

impl Sink for Writer {
    fn bytes(&mut self, b: &[u8]) {
        self.buf.extend_from_slice(b);
    }
}

impl Writer {
    /// A writer whose buffer is sized once for a body of exactly
    /// `body_len` bytes (kind byte included) — or, past the cap every
    /// decoder enforces, the refusal the peer would have sent, before a
    /// byte is allocated.
    fn new(body_len: usize) -> Result<Self, WireError> {
        if body_len > MAX_FRAME_LEN {
            return Err(WireError::TooLarge {
                claimed: body_len as u64,
            });
        }
        let mut buf = Vec::with_capacity(FRAME_HEADER_LEN + body_len);
        buf.extend_from_slice(&[0; FRAME_HEADER_LEN]);
        Ok(Self { buf })
    }
    /// The body written so far (kind byte included).
    fn body(&self) -> &[u8] {
        &self.buf[FRAME_HEADER_LEN..]
    }
    /// Patch the v1 frame header over the reservation and hand the
    /// complete frame out.
    fn finish(mut self) -> Vec<u8> {
        let body_len = self.body().len() as u32;
        let sum = checksum(self.body());
        self.buf[..4].copy_from_slice(&body_len.to_le_bytes());
        self.buf[4..8].copy_from_slice(&(body_len ^ LEN_XOR).to_le_bytes());
        self.buf[8..FRAME_HEADER_LEN].copy_from_slice(&sum.to_le_bytes());
        self.buf
    }
}

struct Reader<'a> {
    buf: &'a [u8],
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.buf.len() < n {
            return Err(WireError::Malformed("payload shorter than its fields"));
        }
        let (head, rest) = self.buf.split_at(n);
        self.buf = rest;
        Ok(head)
    }
    /// Read one field; the expected type selects the wire form.
    fn get<T: Field>(&mut self) -> Result<T, WireError> {
        T::get(self)
    }
    /// A claimed element count, bounded by the bytes still present: each
    /// element needs at least `min_elem_bytes`, so a count the remaining
    /// buffer cannot possibly hold is malformed — checked **before** any
    /// allocation sized by it.
    fn bounded_count(&mut self, min_elem_bytes: usize) -> Result<usize, WireError> {
        let claimed = self.get::<u32>()? as usize;
        let need = claimed
            .checked_mul(min_elem_bytes)
            .ok_or(WireError::Malformed("element count overflows"))?;
        if self.buf.len() < need {
            return Err(WireError::Malformed(
                "claimed count larger than the payload",
            ));
        }
        Ok(claimed)
    }
}

// ---------------------------------------------------------------------
// Field kinds — each wire form is implemented once, here
// ---------------------------------------------------------------------

/// One kind of payload field, holding a value of type `T`. A type is its
/// own kind (`u64`, `Vec<f64>`, [`CampaignSpec`]) unless its wire form is
/// narrower than the type; then a marker names the kind (`CampaignId`,
/// `StoreName`, `Bytes`, `Phase`, `Buckets`) and a table row selects it
/// with `as`. Impls are monomorphised into the generated frame codecs:
/// no `dyn` and no runtime schema on the frame path.
trait Field<T = Self> {
    /// Fewest bytes any value encodes to: what a counted sequence
    /// multiplies a claimed count by before it sizes a `Vec`.
    const MIN_LEN: usize;
    /// Append `v`'s wire form.
    fn put<S: Sink>(v: &T, w: &mut S);
    /// Read one value back, refusing anything `put` could not have
    /// written.
    fn get(r: &mut Reader<'_>) -> Result<T, WireError>;
}

/// The codec of one table field: the field's own type, or the kind
/// named after `as`.
macro_rules! kind {
    ($ty:ty) => {
        $ty
    };
    ($ty:ty, $kind:ty) => {
        $kind
    };
}

/// A flat record: its fields in wire order, written once. The first arm
/// also defines the struct; the second gives a struct defined elsewhere
/// its codec.
macro_rules! record {
    (
        $(#[$meta:meta])*
        pub struct $name:ident {
            $($(#[$fmeta:meta])* pub $field:ident: $ty:ty $(as $kind:ty)?),* $(,)?
        }
    ) => {
        $(#[$meta])*
        pub struct $name {
            $($(#[$fmeta])* pub $field: $ty),*
        }

        record!(impl $name { $($field: $ty $(as $kind)?),* });
    };
    (impl $name:ident { $($field:ident: $ty:ty $(as $kind:ty)?),* $(,)? }) => {
        impl Field for $name {
            const MIN_LEN: usize = 0 $(+ <kind!($ty $(, $kind)?) as Field<$ty>>::MIN_LEN)*;
            fn put<S: Sink>(v: &Self, w: &mut S) {
                $(<kind!($ty $(, $kind)?) as Field<$ty>>::put(&v.$field, w);)*
            }
            fn get(r: &mut Reader<'_>) -> Result<Self, WireError> {
                Ok(Self {
                    $($field: <kind!($ty $(, $kind)?) as Field<$ty>>::get(r)?),*
                })
            }
        }
    };
}

macro_rules! scalar_fields {
    ($($ty:ident),*) => {$(
        impl Field for $ty {
            const MIN_LEN: usize = std::mem::size_of::<$ty>();
            fn put<S: Sink>(v: &$ty, w: &mut S) {
                w.bytes(&v.to_le_bytes());
            }
            fn get(r: &mut Reader<'_>) -> Result<$ty, WireError> {
                let bytes = r.take(Self::MIN_LEN)?;
                Ok($ty::from_le_bytes(bytes.try_into().expect("sized by take")))
            }
        }
    )*};
}

scalar_fields!(u8, u16, u32, u64, f64);

/// A flag: one byte, `0` or `1`.
impl Field for bool {
    const MIN_LEN: usize = 1;
    fn put<S: Sink>(v: &bool, w: &mut S) {
        w.put(&u8::from(*v));
    }
    fn get(r: &mut Reader<'_>) -> Result<bool, WireError> {
        match r.get::<u8>()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(WireError::Malformed("flag is not 0/1")),
        }
    }
}

/// A length-prefixed string (written by [`Sink::str`]), refused on the
/// way in unless it is UTF-8 and `$check` passes.
macro_rules! string_fields {
    ($($(#[$meta:meta])* $kind:ident => $check:expr),* $(,)?) => {$(
        $(#[$meta])*
        impl Field<String> for $kind {
            const MIN_LEN: usize = 2;
            fn put<S: Sink>(v: &String, w: &mut S) {
                w.str(v);
            }
            fn get(r: &mut Reader<'_>) -> Result<String, WireError> {
                let len = usize::from(r.get::<u16>()?);
                let s = String::from_utf8(r.take(len)?.to_vec())
                    .map_err(|_| WireError::Malformed("string is not UTF-8"))?;
                $check(&s)?;
                Ok(s)
            }
        }
    )*};
}

/// A campaign id ([`validate_campaign_id`]).
struct CampaignId;
/// A replicated store file name: same path-safe charset as a campaign id
/// (the follower joins it onto its replica directory, so nothing
/// path-like may pass).
struct StoreName;

string_fields! {
    /// Free text: any UTF-8.
    String => |_: &str| Ok::<(), WireError>(()),
    CampaignId => validate_campaign_id,
    StoreName => |name: &str| validate_campaign_id(name)
        .map_err(|_| WireError::Malformed("store file name is not path-safe")),
}

/// A raw byte run: `len:u32` then the bytes, copied in one piece.
struct Bytes;

impl Field<Vec<u8>> for Bytes {
    const MIN_LEN: usize = 4;
    fn put<S: Sink>(v: &Vec<u8>, w: &mut S) {
        w.put(&(v.len() as u32));
        w.bytes(v);
    }
    fn get(r: &mut Reader<'_>) -> Result<Vec<u8>, WireError> {
        let n = r.bounded_count(1)?;
        Ok(r.take(n)?.to_vec())
    }
}

/// A counted sequence of any field: the one home of the
/// count-before-allocation bound for everything the tables declare.
impl<T: Field> Field for Vec<T> {
    const MIN_LEN: usize = 4;
    fn put<S: Sink>(v: &Vec<T>, w: &mut S) {
        w.seq(v);
    }
    fn get(r: &mut Reader<'_>) -> Result<Vec<T>, WireError> {
        // An element that can encode to nothing would leave the claimed
        // count unbounded.
        const { assert!(T::MIN_LEN > 0) };
        let count = r.bounded_count(T::MIN_LEN)?;
        let mut out = Vec::with_capacity(count);
        for _ in 0..count {
            out.push(r.get()?);
        }
        Ok(out)
    }
}

impl<A: Field, B: Field> Field for (A, B) {
    const MIN_LEN: usize = A::MIN_LEN + B::MIN_LEN;
    fn put<S: Sink>(v: &(A, B), w: &mut S) {
        w.put(&v.0);
        w.put(&v.1);
    }
    fn get(r: &mut Reader<'_>) -> Result<(A, B), WireError> {
        Ok((r.get()?, r.get()?))
    }
}

impl<T: Field> Field for Box<T> {
    const MIN_LEN: usize = T::MIN_LEN;
    fn put<S: Sink>(v: &Box<T>, w: &mut S) {
        w.put::<T>(v);
    }
    fn get(r: &mut Reader<'_>) -> Result<Box<T>, WireError> {
        r.get().map(Box::new)
    }
}

/// Encoded size of the optional trace-context extension (trace id +
/// span id). When present it is always the **last** 16 bytes of the
/// payload — decoders read it iff bytes remain after the v1 fields, so
/// an absent context keeps the frame byte-identical to the
/// pre-extension layout and old peers interoperate untraced.
const CTX_BYTES: usize = 8 + 8;

record!(impl SpanContext { trace_id: u64, span_id: u64 });

/// The trailing, all-or-nothing trace context: always a row's last field.
impl Field for Option<SpanContext> {
    const MIN_LEN: usize = 0;
    fn put<S: Sink>(v: &Self, w: &mut S) {
        if let Some(ctx) = v {
            w.put(ctx);
        }
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, WireError> {
        match r.buf.len() {
            0 => Ok(None),
            CTX_BYTES => r.get().map(Some),
            _ => Err(WireError::Malformed(
                "trace-context extension is not 16 bytes",
            )),
        }
    }
}

/// A [`BatchRefusal`]'s cause: `0` is retryable backpressure, anything
/// else an [`ErrorCode`] byte.
impl Field for Option<ErrorCode> {
    const MIN_LEN: usize = 1;
    fn put<S: Sink>(v: &Self, w: &mut S) {
        w.put(&v.map_or(0, |c| c as u8));
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, WireError> {
        match r.get::<u8>()? {
            0 => Ok(None),
            byte => ErrorCode::from_u8(byte)
                .map(Some)
                .ok_or(WireError::Malformed("unknown refusal code")),
        }
    }
}

/// A trace event's phase: `'B'`, `'E'` or `'i'` as one ASCII byte.
struct Phase;

impl Field<char> for Phase {
    const MIN_LEN: usize = 1;
    fn put<S: Sink>(v: &char, w: &mut S) {
        w.put(&(*v as u8));
    }
    fn get(r: &mut Reader<'_>) -> Result<char, WireError> {
        match r.get::<u8>()? {
            phase @ (b'B' | b'E' | b'i') => Ok(char::from(phase)),
            _ => Err(WireError::Malformed("unknown trace event phase")),
        }
    }
}

/// Encoded size of one report value (object:u32 + value:f64).
const VALUE_BYTES: usize = 4 + 8;

/// A prepared claim: `user:u64 nvals:u32 (object:u32 value:f64)*`. The
/// hot loop of every submission frame, and it narrows `usize` ids to
/// their wire widths, so it is written by hand.
impl Field for PerturbedReport {
    const MIN_LEN: usize = 8 + 4;
    fn put<S: Sink>(v: &Self, w: &mut S) {
        w.put(&(v.user as u64));
        w.put(&(v.values.len() as u32));
        for &(object, value) in &v.values {
            w.put(&(object as u32));
            w.put(&value);
        }
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let user =
            usize::try_from(r.get::<u64>()?).map_err(|_| WireError::Malformed("user overflows"))?;
        let nvals = r.bounded_count(VALUE_BYTES)?;
        let mut values = Vec::with_capacity(nvals);
        for _ in 0..nvals {
            let object = usize::try_from(r.get::<u32>()?)
                .map_err(|_| WireError::Malformed("object overflows"))?;
            values.push((object, r.get()?));
        }
        Ok(PerturbedReport { user, values })
    }
}

// A stamped report is its stamp, then the claim it carries.
record!(impl StampedReport { epoch: u64, sent_at_us: u64, report: PerturbedReport });

/// A histogram's sparse buckets: a counted sequence of `(index, count)`,
/// in range and strictly increasing (the canonical sparse form — a
/// duplicate would double-count on merge).
struct Buckets;

impl Field<Vec<(u32, u64)>> for Buckets {
    const MIN_LEN: usize = 4;
    fn put<S: Sink>(v: &Vec<(u32, u64)>, w: &mut S) {
        w.seq(v);
    }
    fn get(r: &mut Reader<'_>) -> Result<Vec<(u32, u64)>, WireError> {
        let buckets: Vec<(u32, u64)> = r.get()?;
        let mut prev: Option<u32> = None;
        for &(idx, _) in &buckets {
            if idx as usize >= NUM_BUCKETS {
                return Err(WireError::Malformed("histogram bucket index out of range"));
            }
            if prev.is_some_and(|p| idx <= p) {
                return Err(WireError::Malformed(
                    "histogram bucket indices not strictly increasing",
                ));
            }
            prev = Some(idx);
        }
        Ok(buckets)
    }
}

record!(impl HistogramSnapshot {
    count: u64,
    total_ns: u64,
    max_ns: u64,
    buckets: Vec<(u32, u64)> as Buckets,
});

/// Metric-value tags inside a [`Response::Status`] snapshot entry.
const VALUE_TAG_COUNTER: u8 = 0;
const VALUE_TAG_GAUGE: u8 = 1;
const VALUE_TAG_HISTOGRAM: u8 = 2;

/// `tag:u8`, then a `u64` (counter, gauge) or a histogram snapshot.
impl Field for MetricValue {
    const MIN_LEN: usize = 1 + 8;
    fn put<S: Sink>(v: &Self, w: &mut S) {
        match v {
            MetricValue::Counter(n) => {
                w.put(&VALUE_TAG_COUNTER);
                w.put(n);
            }
            MetricValue::Gauge(n) => {
                w.put(&VALUE_TAG_GAUGE);
                w.put(n);
            }
            MetricValue::Histogram(h) => {
                w.put(&VALUE_TAG_HISTOGRAM);
                w.put(h);
            }
        }
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, WireError> {
        match r.get::<u8>()? {
            VALUE_TAG_COUNTER => r.get().map(MetricValue::Counter),
            VALUE_TAG_GAUGE => r.get().map(MetricValue::Gauge),
            VALUE_TAG_HISTOGRAM => r.get().map(MetricValue::Histogram),
            _ => Err(WireError::Malformed("unknown metric value tag")),
        }
    }
}

/// A counted sequence of `(name, value)`; decoding goes through
/// [`MetricsSnapshot::set`], which keeps the entries sorted and unique.
impl Field for MetricsSnapshot {
    const MIN_LEN: usize = 4;
    fn put<S: Sink>(v: &Self, w: &mut S) {
        w.seq(&v.entries);
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let mut out = MetricsSnapshot::new();
        for (name, value) in r.get::<Vec<(String, MetricValue)>>()? {
            out.set(name, value);
        }
        Ok(out)
    }
}

record! {
    /// A campaign's engine counters as reported over the wire — the
    /// remotely observable subset of the engine's `EngineMetrics` plus the
    /// registry's current submission-queue depth. Latency quantiles are in
    /// nanoseconds (`0` before any ingest has been timed).
    #[derive(Debug, Clone, Copy, PartialEq)]
    pub struct MetricsReport {
        /// Reports offered to the engine.
        pub reports_submitted: u64,
        /// Reports that survived dedup/deadline and were aggregated.
        pub reports_accepted: u64,
        /// Duplicates discarded (first-wins).
        pub duplicates_discarded: u64,
        /// Reports dropped as late.
        pub late_dropped: u64,
        /// Reports dropped as out-of-order.
        pub out_of_order_dropped: u64,
        /// Times a producer stalled on a full shard queue.
        pub backpressure_stalls: u64,
        /// Epochs merged into the estimator.
        pub epochs_merged: u64,
        /// High-water mark of the engine's shard queues.
        pub max_queue_depth: u64,
        /// Reports currently buffered for the next close (pending plus the
        /// one-round lookahead).
        pub queue_depth: u64,
        /// Accepted reports per second of engine wall time.
        pub throughput_rps: f64,
        /// Median ingest latency, nanoseconds.
        pub ingest_p50_ns: u64,
        /// 99th-percentile ingest latency, nanoseconds.
        pub ingest_p99_ns: u64,
        /// Connections live on the serving front end right now (a
        /// server-wide gauge, repeated in every campaign's report).
        pub conn_live: u64,
        /// Connections accepted since the server started.
        pub conn_accepted: u64,
        /// Connections refused at accept because the front end was at its
        /// connection budget.
        pub conn_refused: u64,
        /// I/O threads the front end is running.
        pub io_threads: u64,
    }
}

record! {
    /// Sizing and privacy policy for a campaign created over the wire —
    /// everything the server needs to build the engine, the campaign driver
    /// and (optionally) the per-campaign write-ahead log.
    #[derive(Debug, Clone, Copy, PartialEq)]
    pub struct CampaignSpec {
        /// Population size.
        pub num_users: u64,
        /// Objects per round.
        pub num_objects: u64,
        /// Engine ingestion shards.
        pub num_shards: u64,
        /// Engine drain workers (0 = auto).
        pub workers: u64,
        /// Engine per-shard queue depth.
        pub engine_queue: u64,
        /// Per-round submission deadline (virtual µs).
        pub deadline_us: u64,
        /// Cap on reports buffered between `SubmitReports` and `CloseRound`;
        /// past it the server replies `Busy` instead of growing the queue.
        pub submission_capacity: u64,
        /// ε one aggregated report costs its user.
        pub per_round_epsilon: f64,
        /// δ one aggregated report costs its user.
        pub per_round_delta: f64,
        /// The campaign-wide ε ceiling per user.
        pub budget_epsilon: f64,
        /// The campaign-wide δ ceiling per user.
        pub budget_delta: f64,
        /// Opaque fingerprint of the input stream driving this campaign
        /// (`0` when unused). Stamped into every durable WAL record: a
        /// re-create that would resume the log under a **different** stream
        /// (e.g. `dptd submit` with a new `--seed`) is refused instead of
        /// silently replaying the ledger against reports it never
        /// accounted — the same guard `dptd campaign --wal` applies.
        pub stream_tag: u64,
        /// Whether the campaign logs every round to its own WAL directory
        /// under the server's WAL root (and resumes from it when re-created).
        pub durable: bool,
    }
}

record! {
    /// One refused batch inside a [`Response::SubmitAcked`], carried as a
    /// delta against the cumulative ack.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct BatchRefusal {
        /// The refused batch's sequence number.
        pub seq: u64,
        /// Why it was refused. `None` is retryable backpressure (the queue
        /// was full, or the batch arrived out of order behind another
        /// refusal): resend from this sequence number once the earlier
        /// refusal clears. `Some(code)` is a hard refusal.
        pub code: Option<ErrorCode>,
    }
}

record!(impl TraceEvent {
    tid: u64,
    ts_ns: u64,
    phase: char as Phase,
    code: u32,
    arg: u64,
    trace_id: u64,
    span_id: u64,
    parent_span: u64,
});

/// A frame enum: each row is `kind byte => Variant { field: Type, … }`
/// in wire order (`as Kind` where the wire form is narrower than the
/// type), and the definition, the kind dispatch, the exact length,
/// `encode` and `decode` below are all expanded from that one row.
macro_rules! frames {
    (
        $(#[$meta:meta])*
        pub enum $name:ident {
            $(
                $(#[$vmeta:meta])*
                $kind:literal => $variant:ident $({
                    $($(#[$fmeta:meta])* $field:ident: $ty:ty $(as $codec:ty)?),* $(,)?
                })?
            ),* $(,)?
        }
    ) => {
        $(#[$meta])*
        pub enum $name {
            $($(#[$vmeta])* $variant $({ $($(#[$fmeta])* $field: $ty),* })?),*
        }

        impl $name {
            /// Every kind byte this enum decodes, in table order.
            pub const KINDS: &'static [u8] = &[$($kind),*];

            fn put_body<S: Sink>(&self, w: &mut S) {
                match self {
                    $(Self::$variant { $($($field),*)? } => {
                        w.put::<u8>(&$kind);
                        $($(<kind!($ty $(, $codec)?) as Field<$ty>>::put($field, w);)*)?
                    })*
                }
            }

            /// Exact length of the encoded body — the kind byte plus
            /// every field — counted without building it.
            pub fn body_len(&self) -> usize {
                let mut n = Counter(0);
                self.put_body(&mut n);
                n.0
            }

            /// Encode as one complete frame (header + body), allocated
            /// once at exactly its length.
            ///
            /// # Errors
            ///
            /// [`WireError::TooLarge`] — before anything is allocated —
            /// when the body would exceed [`MAX_FRAME_LEN`], the cap
            /// every decoder enforces.
            pub fn try_encode(&self) -> Result<Vec<u8>, WireError> {
                let mut w = Writer::new(self.body_len())?;
                self.put_body(&mut w);
                Ok(w.finish())
            }

            /// Encode as one complete frame (header + body).
            ///
            /// # Panics
            ///
            /// When the body would exceed [`MAX_FRAME_LEN`]. A frame
            /// sized by outside input — a population, a batch — goes
            /// through [`Self::try_encode`] instead.
            pub fn encode(&self) -> Vec<u8> {
                self.try_encode().expect("frame body within MAX_FRAME_LEN")
            }

            /// Decode a frame body (as returned by [`split_frame`]).
            ///
            /// # Errors
            ///
            /// [`WireError::UnknownKind`] for a kind byte outside
            /// [`Self::KINDS`], [`WireError::Malformed`] for structural
            /// violations.
            pub fn decode(body: &[u8]) -> Result<Self, WireError> {
                let mut r = Reader { buf: body };
                let frame = match r.get::<u8>()? {
                    $($kind => Self::$variant {
                        $($($field: <kind!($ty $(, $codec)?) as Field<$ty>>::get(&mut r)?),*)?
                    },)*
                    other => return Err(WireError::UnknownKind(other)),
                };
                if !r.buf.is_empty() {
                    return Err(WireError::Malformed("trailing bytes after the payload"));
                }
                Ok(frame)
            }
        }
    };
}

frames! {
    /// A client→server request.
    #[derive(Debug, Clone, PartialEq)]
    pub enum Request {
        /// Register a new campaign (or resume a durable one from its WAL).
        0x01 => CreateCampaign {
            /// The campaign id (also its WAL directory name when durable).
            campaign: String as CampaignId,
            /// Sizing and privacy policy.
            spec: CampaignSpec,
        },
        /// Append a batch of stamped reports to the campaign's bounded
        /// submission queue. All reports must carry the campaign's next
        /// epoch; the batch is taken atomically or refused (`Busy`).
        0x02 => SubmitReports {
            /// Target campaign.
            campaign: String as CampaignId,
            /// The batch, in stream order.
            reports: Vec<StampedReport>,
            /// Optional trace-context extension: the sender's current span,
            /// so the server's queue/merge spans causally link to the
            /// client's submit span. `None` encodes byte-identically to the
            /// pre-extension frame, so untraced peers interoperate.
            ctx: Option<SpanContext>,
        },
        /// Execute the campaign's next round over everything submitted since
        /// the previous close.
        0x03 => CloseRound {
            /// Target campaign.
            campaign: String as CampaignId,
            /// The epoch being closed (must be the campaign's next epoch —
            /// a stale retry is refused instead of silently re-running).
            epoch: u64,
        },
        /// Read the latest truths and the current weights digest.
        0x04 => QueryTruths {
            /// Target campaign.
            campaign: String as CampaignId,
        },
        /// Read the privacy-budget ledger.
        0x05 => QueryBudget {
            /// Target campaign.
            campaign: String as CampaignId,
        },
        /// Read the campaign's engine metrics (throughput, latency
        /// quantiles, drop counters, queue depth).
        0x06 => QueryMetrics {
            /// Target campaign.
            campaign: String as CampaignId,
        },
        /// Identify this connection as a cluster peer. A coordinator sends
        /// it after the hello so a node can confirm the partition geometry
        /// both sides assume; a plain campaign server refuses it.
        0x07 => NodeHello {
            /// The node's index in the cluster's partition map.
            node_id: u32,
            /// Total nodes the sender believes the cluster has.
            num_nodes: u32,
        },
        /// Phase one of the cluster's two-phase round barrier: drain the
        /// node's submission queue for `epoch`, filter it exactly as a
        /// round close would (refusal withhold → deadline → first-wins
        /// dedup), and return the surviving claims **without** touching
        /// durable state. The coordinator merges all nodes' claims before
        /// anything commits.
        0x08 => CloseRoundPrepare {
            /// Target campaign.
            campaign: String as CampaignId,
            /// The epoch being closed (must be the node's next epoch).
            epoch: u64,
            /// Node-local user ids whose budget the coordinator's global
            /// ledger says is exhausted — their reports are withheld before
            /// the deadline cut, matching the driver's refusal order.
            refused: Vec<u64>,
            /// Optional trace-context extension: the coordinator's barrier
            /// span, so the node's drain span parents under it in a merged
            /// timeline. `None` is byte-identical to the pre-extension frame.
            ctx: Option<SpanContext>,
        },
        /// Phase two of the barrier: durably append the node's slice of the
        /// merged round to its WAL. Idempotent — re-sending the previous
        /// epoch's byte-identical record is acknowledged without a second
        /// append, so a coordinator that died between commit fan-out and
        /// its own state advance can safely re-drive the barrier.
        0x09 => CloseRoundCommit {
            /// Target campaign.
            campaign: String as CampaignId,
            /// The epoch being committed.
            epoch: u64,
            /// Estimator batches merged globally after this round.
            batches_seen: u64,
            /// Node-local ids accepted this round, ascending.
            accepted_users: Vec<u64>,
            /// The node's slice of the post-round cumulative losses, one
            /// per local user.
            cumulative_losses: Vec<f64>,
            /// The node's slice of the post-round debit ledger, one per
            /// local user.
            rounds_debited: Vec<u32>,
            /// Optional trace-context extension (see
            /// [`Request::CloseRoundPrepare::ctx`]).
            ctx: Option<SpanContext>,
        },
        /// Stream one committed store operation to a follower, in commit
        /// order. The follower applies it under its replica root and acks
        /// with the same sequence number.
        0x0a => ReplicateSegment {
            /// The campaign whose WAL directory is being replicated.
            campaign: String as CampaignId,
            /// Position of this operation in the primary's commit order
            /// (strictly increasing from 0).
            seq: u64,
            /// Which store mutation to apply.
            op: StoreOp,
            /// The file within the campaign's directory.
            name: String as StoreName,
            /// Operand for [`StoreOp::Truncate`] (the new length); `0`
            /// otherwise.
            arg: u64,
            /// Payload for [`StoreOp::Append`] / [`StoreOp::WriteAtomic`];
            /// empty otherwise.
            bytes: Vec<u8> as Bytes,
        },
        /// Read a node's durable round ledger — what a fresh coordinator
        /// needs to rebuild global state after failover.
        0x0b => QueryLedger {
            /// Target campaign.
            campaign: String as CampaignId,
            /// Epoch to read the ledger *as of*: the node answers with its
            /// state after committing `upto` (or refuses if it never did).
            /// `u64::MAX` means "your latest".
            upto: u64,
        },
        /// One batch of a **pipelined** submission stream. Unlike
        /// [`Request::SubmitReports`] the client does not wait for the
        /// previous batch's reply before sending the next: it keeps a window
        /// of batches in flight, each stamped with a per-connection sequence
        /// number (strictly increasing over *accepted* batches), and the
        /// server answers every batch with a cumulative
        /// [`Response::SubmitAcked`]. The connection front end accepts only
        /// the next in-order sequence number, so the submission queue sees
        /// the exact byte order the client sent — pipelining never perturbs
        /// campaign results.
        0x0c => SubmitReportsStream {
            /// Target campaign.
            campaign: String as CampaignId,
            /// This batch's position in the connection's stream. The first
            /// batch on a connection is `0`; a refused batch is retried
            /// under the **same** number.
            seq: u64,
            /// The batch, in stream order.
            reports: Vec<StampedReport>,
            /// Optional trace-context extension (see
            /// [`Request::SubmitReports::ctx`]).
            ctx: Option<SpanContext>,
        },
        /// Read the server's full observability snapshot: every registry
        /// metric (connection gauges, per-campaign stage-busy counters,
        /// error-code frequencies, WAL bytes) plus per-campaign ingest
        /// histograms — the frame behind `dptd status --connect`. Unlike
        /// [`Request::QueryMetrics`] it is server-wide, not per-campaign.
        0x0d => QueryStatus,
        /// Read the process's retained trace rings — every event the
        /// per-thread buffers still hold, plus the wall-clock anchor that
        /// lets a coordinator align timelines from different machines. The
        /// frame behind `dptd cluster trace`.
        0x0e => QueryTrace,
    }
}

frames! {
    /// A server→client reply.
    #[derive(Debug, Clone, PartialEq)]
    pub enum Response {
        /// Campaign registered.
        0x81 => Created {
            /// Rounds already durably committed (non-zero only when a
            /// durable campaign resumed from its WAL).
            resumed_rounds: u64,
        },
        /// Batch accepted into the submission queue.
        0x82 => Submitted {
            /// Reports now pending for the next close.
            queued: u64,
        },
        /// Backpressure: the submission queue cannot take the batch. Nothing
        /// was enqueued — the client must retry after a `CloseRound` drains
        /// the queue (the server never buffers unboundedly).
        0x83 => Busy {
            /// Reports currently pending.
            queued: u64,
            /// The queue's capacity.
            capacity: u64,
        },
        /// A round executed.
        0x84 => RoundClosed {
            /// The epoch that closed.
            epoch: u64,
            /// Reports aggregated.
            accepted: u64,
            /// Users refused because their budget was exhausted.
            refused: u64,
            /// Duplicates discarded (first-wins).
            duplicates: u64,
            /// Reports dropped as late.
            late: u64,
            /// Estimated truths for the round's objects.
            truths: Vec<f64>,
            /// FNV-1a digest of the post-round weights' bit patterns — the
            /// same digest `dptd campaign` prints, so wire and in-process
            /// runs diff from the shell.
            weights_digest: u64,
            /// Worst cumulative ε across the population after the round.
            max_spent_epsilon: f64,
            /// Worst cumulative δ across the population after the round.
            max_spent_delta: f64,
        },
        /// Current truths.
        0x85 => Truths {
            /// Rounds completed so far.
            rounds_run: u64,
            /// Truths from the last closed round (empty before the first).
            truths: Vec<f64>,
            /// FNV-1a digest of the current weights.
            weights_digest: u64,
        },
        /// The privacy ledger.
        0x86 => Budget {
            /// Users whose budget affords no further round.
            exhausted: u64,
            /// Worst cumulative ε spent.
            max_spent_epsilon: f64,
            /// Worst cumulative δ spent.
            max_spent_delta: f64,
            /// Per-user debit counts, user order — the exact snapshot
            /// [`dptd_protocol::budget::BudgetAccountant::debits_by_user`]
            /// exposes, so a wire ledger can be compared bit-for-bit with an
            /// in-process one.
            debits: Vec<u32>,
        },
        /// The request was refused.
        0x87 => Error {
            /// Stable machine-readable cause.
            code: ErrorCode,
            /// Human-readable detail.
            message: String,
        },
        /// The campaign's engine counters.
        0x88 => Metrics {
            /// The observable metrics snapshot (boxed — it is by far the
            /// widest variant, and responses travel through `Result` errors).
            metrics: Box<MetricsReport>,
        },
        /// The node accepts the peer handshake.
        0x89 => NodeWelcome {
            /// The node's own index (must match the `NodeHello`).
            node_id: u32,
        },
        /// Phase-one result: the node's filtered claims for the epoch.
        0x8a => Prepared {
            /// The epoch that was drained.
            epoch: u64,
            /// Duplicates discarded by the node's first-wins filter.
            duplicates: u64,
            /// Reports the node dropped as late.
            late: u64,
            /// Distinct refused users that actually submitted this epoch.
            refused_seen: u64,
            /// Surviving reports in ascending local-user order. `user` is
            /// the **node-local** dense id; the coordinator maps it back to
            /// the global id through the partition map.
            claims: Vec<PerturbedReport>,
        },
        /// Phase-two result: the node's WAL holds the epoch.
        0x8b => Committed {
            /// The epoch now durable.
            epoch: u64,
            /// Whether a record was appended (`false` = the byte-identical
            /// record was already the node's latest — an idempotent retry).
            appended: bool,
        },
        /// The follower applied the replicated store operation.
        0x8c => Replicated {
            /// Echo of the operation's sequence number.
            seq: u64,
        },
        /// Cumulative acknowledgement of a pipelined submission stream: one
        /// is sent for every [`Request::SubmitReportsStream`] frame, in
        /// order, so a client with `W` batches in flight reads `W` acks.
        0x8e => SubmitAcked {
            /// Batches accepted contiguously from sequence `0` — equally,
            /// the next sequence number the server will accept. Everything
            /// below it is durably queued and will never be re-requested.
            contiguous: u64,
            /// Reports pending for the next close after the most recently
            /// accepted batch (the same counter as
            /// [`Response::Submitted::queued`]).
            queued: u64,
            /// Batches refused since the previous ack, as deltas. Empty
            /// when this ack's own batch was accepted.
            refusals: Vec<BatchRefusal>,
        },
        /// A node's durable round ledger.
        0x8d => Ledger {
            /// The next epoch the node would commit.
            next_epoch: u64,
            /// Estimator batches reflected in the slices below.
            batches_seen: u64,
            /// Per-local-user debit counts.
            rounds_debited: Vec<u32>,
            /// Per-local-user cumulative losses.
            cumulative_losses: Vec<f64>,
        },
        /// The server's full observability snapshot (reply to
        /// [`Request::QueryStatus`]).
        0x8f => Status {
            /// Every metric the server's registry holds, sorted by name.
            snapshot: dptd_obs::MetricsSnapshot,
        },
        /// The process's retained trace rings (reply to
        /// [`Request::QueryTrace`]).
        0x90 => TraceDump {
            /// Wall-clock nanoseconds since the Unix epoch at the process's
            /// trace epoch — `ts_ns + anchor_ns` places an event on the
            /// shared wall clock, which is how a coordinator aligns rings
            /// from different processes into one timeline.
            anchor_ns: u64,
            /// Per-ring truncation: `(tid, events_overwritten)` for every
            /// ring that wrapped, so a merged timeline can say what is
            /// missing instead of silently looking complete.
            dropped: Vec<(u64, u64)>,
            /// The retained events, oldest-first per ring.
            events: Vec<TraceEvent>,
        },
    }
}

/// Encode a [`Request::SubmitReports`] frame — or, given a stream
/// sequence number, a [`Request::SubmitReportsStream`] one — straight
/// from a borrowed batch: a client chunking a slice need not deep-clone
/// every report into an owned `Request` first. It restates those two
/// rows; a unit test pins it byte-equal to the table's encoder.
pub(crate) fn encode_submit(
    campaign: &str,
    seq: Option<u64>,
    reports: &[StampedReport],
    ctx: Option<SpanContext>,
) -> Result<Vec<u8>, WireError> {
    fn put_body<S: Sink>(
        w: &mut S,
        campaign: &str,
        seq: Option<u64>,
        reports: &[StampedReport],
        ctx: &Option<SpanContext>,
    ) {
        w.put(&if seq.is_some() { 0x0c_u8 } else { 0x02 });
        w.str(campaign);
        if let Some(seq) = seq {
            w.put(&seq);
        }
        w.seq(reports);
        w.put(ctx);
    }
    let mut n = Counter(0);
    put_body(&mut n, campaign, seq, reports, &ctx);
    let mut w = Writer::new(n.0)?;
    put_body(&mut w, campaign, seq, reports, &ctx);
    Ok(w.finish())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> CampaignSpec {
        CampaignSpec {
            num_users: 100,
            num_objects: 4,
            num_shards: 8,
            workers: 0,
            engine_queue: 4096,
            deadline_us: 1_000_000,
            submission_capacity: 65_536,
            per_round_epsilon: 0.5,
            per_round_delta: 0.02,
            budget_epsilon: 5.0,
            budget_delta: 0.2,
            stream_tag: 0x5EED_5EED,
            durable: true,
        }
    }

    fn stamped(
        epoch: u64,
        user: usize,
        sent_at_us: u64,
        values: Vec<(usize, f64)>,
    ) -> StampedReport {
        StampedReport {
            epoch,
            sent_at_us,
            report: PerturbedReport { user, values },
        }
    }

    /// A hand-built body: `kind`, then whatever the test writes behind it.
    fn body_of(kind: u8) -> Writer {
        let mut w = Writer::new(0).unwrap();
        w.put(&kind);
        w
    }

    fn roundtrip_request(req: Request) {
        let bytes = req.encode();
        let (body, consumed) = split_frame(&bytes).unwrap();
        assert_eq!(consumed, bytes.len());
        assert_eq!(Request::decode(body).unwrap(), req);
    }

    fn roundtrip_response(resp: Response) {
        let bytes = resp.encode();
        let (body, consumed) = split_frame(&bytes).unwrap();
        assert_eq!(consumed, bytes.len());
        assert_eq!(Response::decode(body).unwrap(), resp);
    }

    #[test]
    fn every_message_roundtrips() {
        roundtrip_request(Request::CreateCampaign {
            campaign: "air-quality_7".to_string(),
            spec: spec(),
        });
        roundtrip_request(Request::SubmitReports {
            campaign: "c".to_string(),
            reports: vec![
                stamped(3, 0, 10, vec![(0, 1.5), (2, -0.5)]),
                stamped(3, 1, 20, vec![]),
            ],
            ctx: None,
        });
        roundtrip_request(Request::SubmitReports {
            campaign: "c".to_string(),
            reports: vec![stamped(3, 0, 10, vec![(0, 1.5)])],
            ctx: Some(SpanContext {
                trace_id: 0xDEAD_BEEF_CAFE_F00D,
                span_id: 0x0123_4567_89AB_CDEF,
            }),
        });
        roundtrip_request(Request::CloseRound {
            campaign: "c".to_string(),
            epoch: 9,
        });
        roundtrip_request(Request::QueryTruths {
            campaign: "c".to_string(),
        });
        roundtrip_request(Request::QueryBudget {
            campaign: "c".to_string(),
        });

        roundtrip_response(Response::Created { resumed_rounds: 2 });
        roundtrip_response(Response::Submitted { queued: 17 });
        roundtrip_response(Response::Busy {
            queued: 64,
            capacity: 64,
        });
        roundtrip_response(Response::RoundClosed {
            epoch: 4,
            accepted: 90,
            refused: 3,
            duplicates: 2,
            late: 1,
            truths: vec![20.5, 19.75],
            weights_digest: 0xDEAD_BEEF,
            max_spent_epsilon: 2.5,
            max_spent_delta: 0.1,
        });
        roundtrip_response(Response::Truths {
            rounds_run: 4,
            truths: vec![1.0],
            weights_digest: 7,
        });
        roundtrip_response(Response::Budget {
            exhausted: 5,
            max_spent_epsilon: 5.0,
            max_spent_delta: 0.2,
            debits: vec![10, 0, 3],
        });
        roundtrip_response(Response::Error {
            code: ErrorCode::BudgetExhausted,
            message: "everyone is out of budget".to_string(),
        });
    }

    #[test]
    fn every_cluster_message_roundtrips() {
        roundtrip_request(Request::QueryMetrics {
            campaign: "c".to_string(),
        });
        roundtrip_request(Request::NodeHello {
            node_id: 2,
            num_nodes: 5,
        });
        roundtrip_request(Request::CloseRoundPrepare {
            campaign: "c".to_string(),
            epoch: 3,
            refused: vec![0, 7, 12],
            ctx: None,
        });
        roundtrip_request(Request::CloseRoundPrepare {
            campaign: "c".to_string(),
            epoch: 3,
            refused: vec![],
            ctx: Some(SpanContext {
                trace_id: 17,
                span_id: 92,
            }),
        });
        roundtrip_request(Request::CloseRoundCommit {
            campaign: "c".to_string(),
            epoch: 3,
            batches_seen: 4,
            accepted_users: vec![1, 2],
            cumulative_losses: vec![0.5, -1.25, 3.0e-300],
            rounds_debited: vec![2, 0, 1],
            ctx: None,
        });
        roundtrip_request(Request::CloseRoundCommit {
            campaign: "c".to_string(),
            epoch: 3,
            batches_seen: 4,
            accepted_users: vec![1, 2],
            cumulative_losses: vec![0.5],
            rounds_debited: vec![2],
            ctx: Some(SpanContext {
                trace_id: u64::MAX,
                span_id: 1,
            }),
        });
        roundtrip_request(Request::ReplicateSegment {
            campaign: "c".to_string(),
            seq: 42,
            op: StoreOp::Append,
            name: "segment-000.wal".to_string(),
            arg: 0,
            bytes: vec![0xde, 0xad, 0xbe, 0xef],
        });
        roundtrip_request(Request::ReplicateSegment {
            campaign: "c".to_string(),
            seq: 43,
            op: StoreOp::Truncate,
            name: "MANIFEST".to_string(),
            arg: 128,
            bytes: vec![],
        });
        roundtrip_request(Request::QueryLedger {
            campaign: "c".to_string(),
            upto: u64::MAX,
        });

        roundtrip_response(Response::Metrics {
            metrics: Box::new(MetricsReport {
                reports_submitted: 1000,
                reports_accepted: 990,
                duplicates_discarded: 7,
                late_dropped: 3,
                out_of_order_dropped: 0,
                backpressure_stalls: 2,
                epochs_merged: 5,
                max_queue_depth: 512,
                queue_depth: 17,
                throughput_rps: 12_345.5,
                ingest_p50_ns: 1_800,
                ingest_p99_ns: 95_000,
                conn_live: 3,
                conn_accepted: 40,
                conn_refused: 2,
                io_threads: 4,
            }),
        });
        roundtrip_response(Response::NodeWelcome { node_id: 2 });
        roundtrip_response(Response::Prepared {
            epoch: 3,
            duplicates: 2,
            late: 1,
            refused_seen: 1,
            claims: vec![
                PerturbedReport {
                    user: 0,
                    values: vec![(0, 1.5), (3, -0.25)],
                },
                PerturbedReport {
                    user: 4,
                    values: vec![],
                },
            ],
        });
        roundtrip_response(Response::Committed {
            epoch: 3,
            appended: true,
        });
        roundtrip_response(Response::Committed {
            epoch: 2,
            appended: false,
        });
        roundtrip_response(Response::Replicated { seq: 42 });
        roundtrip_response(Response::Ledger {
            next_epoch: 4,
            batches_seen: 4,
            rounds_debited: vec![2, 0, 1],
            cumulative_losses: vec![0.5, 0.0, -3.5],
        });
    }

    /// The bulk arms compute their body size from their element counts,
    /// so a multi-megabyte frame is allocated once: at most the optional
    /// trace context's 16 bytes go unused, and nothing is regrown.
    #[test]
    fn bulk_frames_are_sized_up_front() {
        let reports: Vec<StampedReport> = (0..100)
            .map(|u| stamped(3, u, 10, vec![(0, 1.5); u % 4]))
            .collect();
        let claims: Vec<PerturbedReport> = reports.iter().map(|r| r.report.clone()).collect();
        let ctx = Some(SpanContext {
            trace_id: 1,
            span_id: 2,
        });
        let frames = [
            Request::SubmitReports {
                campaign: "c".to_string(),
                reports: reports.clone(),
                ctx,
            }
            .encode(),
            Request::SubmitReportsStream {
                campaign: "c".to_string(),
                seq: 7,
                reports,
                ctx: None,
            }
            .encode(),
            Request::CloseRoundCommit {
                campaign: "c".to_string(),
                epoch: 3,
                batches_seen: 4,
                accepted_users: vec![1; 70],
                cumulative_losses: vec![0.5; 100],
                rounds_debited: vec![2; 100],
                ctx,
            }
            .encode(),
            Request::ReplicateSegment {
                campaign: "c".to_string(),
                seq: 42,
                op: StoreOp::Append,
                name: "segment-000.wal".to_string(),
                arg: 0,
                bytes: vec![0xab; 1000],
            }
            .encode(),
            Response::Prepared {
                epoch: 3,
                duplicates: 2,
                late: 1,
                refused_seen: 1,
                claims,
            }
            .encode(),
            Response::Ledger {
                next_epoch: 4,
                batches_seen: 4,
                rounds_debited: vec![2; 100],
                cumulative_losses: vec![0.5; 100],
            }
            .encode(),
        ];
        for frame in frames {
            let spare = frame.capacity() - frame.len();
            assert!(
                spare == 0 || spare == CTX_BYTES,
                "kind {:#04x}: {} bytes in a buffer of {}",
                frame[FRAME_HEADER_LEN],
                frame.len(),
                frame.capacity()
            );
        }
    }

    /// A string past what its `u16` length prefix can carry is cut, at a
    /// `char` boundary, instead of wrapping the prefix into a frame the
    /// decoder refuses.
    #[test]
    fn over_long_strings_are_cut_at_a_char_boundary() {
        let decoded_message = |message: String| {
            let resp = Response::Error {
                code: ErrorCode::Internal,
                message,
            };
            let frame = resp.encode();
            assert_eq!(frame.len(), FRAME_HEADER_LEN + resp.body_len());
            let (body, _) = split_frame(&frame).unwrap();
            match Response::decode(body).unwrap() {
                Response::Error { message, .. } => message,
                other => panic!("{other:?}"),
            }
        };
        assert_eq!(decoded_message("x".repeat(70_000)), "x".repeat(65_535));
        // The 65 535th byte is the lead byte of a two-byte character …
        let two = format!("{}é and more", "x".repeat(65_534));
        assert_eq!(decoded_message(two), "x".repeat(65_534));
        // … or the last byte of a three-byte one that starts two earlier.
        let three = format!("{}€ and more", "x".repeat(65_533));
        assert_eq!(decoded_message(three), "x".repeat(65_533));
        // At the limit exactly, nothing is cut.
        let fits = format!("{}é", "x".repeat(65_533));
        assert_eq!(decoded_message(fits.clone()), fits);
    }

    /// The borrowed submit encoder restates two table rows; it must write
    /// exactly what they write.
    #[test]
    fn borrowed_submit_encoder_matches_the_table() {
        let reports = [
            stamped(3, 0, 10, vec![(0, 1.5), (2, -0.5)]),
            stamped(3, 1, 20, vec![]),
        ];
        let some = Some(SpanContext {
            trace_id: 17,
            span_id: 92,
        });
        for (reports, ctx) in [(&reports[..], None), (&reports[..], some), (&[][..], some)] {
            assert_eq!(
                encode_submit("cafe", None, reports, ctx).unwrap(),
                Request::SubmitReports {
                    campaign: "cafe".to_string(),
                    reports: reports.to_vec(),
                    ctx,
                }
                .encode()
            );
            assert_eq!(
                encode_submit("cafe", Some(7), reports, ctx).unwrap(),
                Request::SubmitReportsStream {
                    campaign: "cafe".to_string(),
                    seq: 7,
                    reports: reports.to_vec(),
                    ctx,
                }
                .encode()
            );
        }
    }

    /// The cap every decoder enforces is enforced on the way out, from
    /// the declared length alone: a body of exactly `MAX_FRAME_LEN` is a
    /// frame its decoder accepts, one byte more is refused unbuilt.
    #[test]
    fn the_frame_cap_is_enforced_before_encoding() {
        let segment = |len: usize| Request::ReplicateSegment {
            campaign: "c".to_string(),
            seq: 0,
            op: StoreOp::Append,
            name: "s".to_string(),
            arg: 0,
            bytes: vec![0; len],
        };
        let overhead = segment(0).body_len();
        let at_cap = segment(MAX_FRAME_LEN - overhead);
        assert_eq!(at_cap.body_len(), MAX_FRAME_LEN);
        let frame = at_cap.try_encode().unwrap();
        let (body, _) = split_frame(&frame).unwrap();
        assert_eq!(body.len(), MAX_FRAME_LEN);

        assert_eq!(
            segment(MAX_FRAME_LEN - overhead + 1).try_encode(),
            Err(WireError::TooLarge {
                claimed: MAX_FRAME_LEN as u64 + 1
            })
        );
        let reports = vec![stamped(0, 0, 0, vec![(0, 0.0); 3_000_000])];
        assert!(matches!(
            encode_submit("c", None, &reports, None),
            Err(WireError::TooLarge { .. })
        ));
    }

    #[test]
    fn every_streaming_message_roundtrips() {
        roundtrip_request(Request::SubmitReportsStream {
            campaign: "c".to_string(),
            seq: 17,
            reports: vec![
                stamped(3, 0, 10, vec![(0, 1.5), (2, -0.5)]),
                stamped(3, 1, 20, vec![]),
            ],
            ctx: None,
        });
        roundtrip_request(Request::SubmitReportsStream {
            campaign: "c".to_string(),
            seq: 18,
            reports: vec![stamped(3, 1, 20, vec![])],
            ctx: Some(SpanContext {
                trace_id: 0xF00D,
                span_id: 0xBEEF,
            }),
        });
        roundtrip_response(Response::SubmitAcked {
            contiguous: 18,
            queued: 512,
            refusals: vec![],
        });
        roundtrip_response(Response::SubmitAcked {
            contiguous: 18,
            queued: 512,
            refusals: vec![
                BatchRefusal {
                    seq: 18,
                    code: None,
                },
                BatchRefusal {
                    seq: 19,
                    code: Some(ErrorCode::BudgetExhausted),
                },
            ],
        });
    }

    #[test]
    fn every_status_message_roundtrips() {
        roundtrip_request(Request::QueryStatus);

        roundtrip_response(Response::Status {
            snapshot: MetricsSnapshot::new(),
        });

        let mut snap = MetricsSnapshot::new();
        snap.set("server.conn.live".to_string(), MetricValue::Gauge(3));
        snap.set("server.requests".to_string(), MetricValue::Counter(512));
        snap.set(
            "campaign.air.ingest_latency".to_string(),
            MetricValue::Histogram(HistogramSnapshot {
                count: 4,
                total_ns: 10_000,
                max_ns: 4_000,
                buckets: vec![(17, 1), (42, 2), (99, 1)],
            }),
        );
        roundtrip_response(Response::Status { snapshot: snap });
    }

    #[test]
    fn status_snapshot_refuses_malformed_payloads() {
        // Unknown value tag.
        let mut w = body_of(0x8f);
        w.put(&1u32);
        w.str("m");
        w.put(&9u8);
        w.put(&0u64);
        assert_eq!(
            Response::decode(w.body()),
            Err(WireError::Malformed("unknown metric value tag"))
        );

        // Bucket index past the shared layout.
        let mut w = body_of(0x8f);
        w.put(&1u32);
        w.str("h");
        w.put(&VALUE_TAG_HISTOGRAM);
        w.put(&1u64);
        w.put(&10u64);
        w.put(&10u64);
        w.put(&1u32);
        w.put(&(NUM_BUCKETS as u32));
        w.put(&1u64);
        assert_eq!(
            Response::decode(w.body()),
            Err(WireError::Malformed("histogram bucket index out of range"))
        );

        // Bucket indices must be strictly increasing (canonical sparse
        // form — a duplicate would double-count on merge).
        let mut w = body_of(0x8f);
        w.put(&1u32);
        w.str("h");
        w.put(&VALUE_TAG_HISTOGRAM);
        w.put(&2u64);
        w.put(&20u64);
        w.put(&10u64);
        w.put(&2u32);
        w.put(&7u32);
        w.put(&1u64);
        w.put(&7u32);
        w.put(&1u64);
        assert_eq!(
            Response::decode(w.body()),
            Err(WireError::Malformed(
                "histogram bucket indices not strictly increasing"
            ))
        );
    }

    #[test]
    fn golden_status_wire_layout_is_pinned() {
        // The status frames share the v1 framing; a change to either
        // payload is a format break (bump the HELLO version byte and
        // keep v1 decoders).
        let bytes = Request::QueryStatus.encode();
        // body := kind(0x0d)  → 1 byte
        let body = vec![0x0d];
        let golden: Vec<u8> = [
            1u32.to_le_bytes().to_vec(),
            (1u32 ^ u32::from_le_bytes(*b"NET1")).to_le_bytes().to_vec(),
            checksum(&body).to_le_bytes().to_vec(),
            body,
        ]
        .concat();
        assert_eq!(bytes, golden, "QueryStatus wire layout changed");
        assert_eq!(
            u64::from_le_bytes(bytes[8..16].try_into().unwrap()),
            0xaf63_c04c_8601_bcf8,
            "QueryStatus checksum constant changed: {:#x}",
            u64::from_le_bytes(bytes[8..16].try_into().unwrap())
        );

        let mut snap = MetricsSnapshot::new();
        snap.set("c".to_string(), MetricValue::Counter(7));
        snap.set(
            "h".to_string(),
            MetricValue::Histogram(HistogramSnapshot {
                count: 1,
                total_ns: 32,
                max_ns: 32,
                buckets: vec![(80, 1)],
            }),
        );
        let bytes = Response::Status { snapshot: snap }.encode();
        // body := kind(0x8f) nentries:u32
        //         namelen:u16 "c" tag(0x00) value:u64
        //         namelen:u16 "h" tag(0x02) count:u64 total:u64 max:u64
        //         nbuckets:u32 idx:u32 bucket_count:u64
        let body: Vec<u8> = [
            vec![0x8f],
            2u32.to_le_bytes().to_vec(),
            1u16.to_le_bytes().to_vec(),
            b"c".to_vec(),
            vec![0x00],
            7u64.to_le_bytes().to_vec(),
            1u16.to_le_bytes().to_vec(),
            b"h".to_vec(),
            vec![0x02],
            1u64.to_le_bytes().to_vec(),
            32u64.to_le_bytes().to_vec(),
            32u64.to_le_bytes().to_vec(),
            1u32.to_le_bytes().to_vec(),
            80u32.to_le_bytes().to_vec(),
            1u64.to_le_bytes().to_vec(),
        ]
        .concat();
        let golden: Vec<u8> = [
            (body.len() as u32).to_le_bytes().to_vec(),
            ((body.len() as u32) ^ u32::from_le_bytes(*b"NET1"))
                .to_le_bytes()
                .to_vec(),
            checksum(&body).to_le_bytes().to_vec(),
            body,
        ]
        .concat();
        assert_eq!(bytes, golden, "Status wire layout changed");
    }

    #[test]
    fn every_trace_message_roundtrips() {
        roundtrip_request(Request::QueryTrace);
        roundtrip_response(Response::TraceDump {
            anchor_ns: 0,
            dropped: vec![],
            events: vec![],
        });
        roundtrip_response(Response::TraceDump {
            anchor_ns: 1_700_000_000_000_000_000,
            dropped: vec![(1, 0), (3, 4096)],
            events: vec![
                TraceEvent {
                    tid: 1,
                    ts_ns: 1_500,
                    phase: 'B',
                    code: 1,
                    arg: 7,
                    trace_id: 0xABC,
                    span_id: 0x11,
                    parent_span: 0,
                },
                TraceEvent {
                    tid: 1,
                    ts_ns: 2_000,
                    phase: 'i',
                    code: 4,
                    arg: 128,
                    trace_id: 0xABC,
                    span_id: 0,
                    parent_span: 0x11,
                },
                TraceEvent {
                    tid: 1,
                    ts_ns: 2_250,
                    phase: 'E',
                    code: 1,
                    arg: 7,
                    trace_id: 0xABC,
                    span_id: 0x11,
                    parent_span: 0,
                },
            ],
        });
    }

    #[test]
    fn golden_trace_wire_layout_is_pinned() {
        // The trace frames share the v1 framing; a change to either
        // payload is a format break (bump the HELLO version byte and
        // keep v1 decoders).
        let bytes = Request::QueryTrace.encode();
        // body := kind(0x0e)  → 1 byte
        let body = vec![0x0e];
        let golden: Vec<u8> = [
            1u32.to_le_bytes().to_vec(),
            (1u32 ^ u32::from_le_bytes(*b"NET1")).to_le_bytes().to_vec(),
            checksum(&body).to_le_bytes().to_vec(),
            body,
        ]
        .concat();
        assert_eq!(bytes, golden, "QueryTrace wire layout changed");

        let bytes = Response::TraceDump {
            anchor_ns: 99,
            dropped: vec![(2, 5)],
            events: vec![TraceEvent {
                tid: 2,
                ts_ns: 1_500,
                phase: 'B',
                code: 1,
                arg: 7,
                trace_id: 0xABC,
                span_id: 0x11,
                parent_span: 0x22,
            }],
        }
        .encode();
        // body := kind(0x90) anchor:u64 ndropped:u32 tid:u64 n:u64
        //         nevents:u32 tid:u64 ts:u64 phase:u8 code:u32 arg:u64
        //         trace:u64 span:u64 parent:u64
        let body: Vec<u8> = [
            vec![0x90],
            99u64.to_le_bytes().to_vec(),
            1u32.to_le_bytes().to_vec(),
            2u64.to_le_bytes().to_vec(),
            5u64.to_le_bytes().to_vec(),
            1u32.to_le_bytes().to_vec(),
            2u64.to_le_bytes().to_vec(),
            1_500u64.to_le_bytes().to_vec(),
            vec![b'B'],
            1u32.to_le_bytes().to_vec(),
            7u64.to_le_bytes().to_vec(),
            0xABCu64.to_le_bytes().to_vec(),
            0x11u64.to_le_bytes().to_vec(),
            0x22u64.to_le_bytes().to_vec(),
        ]
        .concat();
        let golden: Vec<u8> = [
            (body.len() as u32).to_le_bytes().to_vec(),
            ((body.len() as u32) ^ u32::from_le_bytes(*b"NET1"))
                .to_le_bytes()
                .to_vec(),
            checksum(&body).to_le_bytes().to_vec(),
            body,
        ]
        .concat();
        assert_eq!(bytes, golden, "TraceDump wire layout changed");
    }

    #[test]
    fn trace_context_extension_is_all_or_nothing() {
        // The context extension is exactly 16 trailing bytes; a partial
        // one is malformed, not silently dropped.
        let good = Request::SubmitReports {
            campaign: "c".to_string(),
            reports: vec![],
            ctx: Some(SpanContext {
                trace_id: 1,
                span_id: 2,
            }),
        }
        .encode();
        let (body, _) = split_frame(&good).unwrap();
        let partial = &body[..body.len() - 8];
        assert_eq!(
            Request::decode(partial),
            Err(WireError::Malformed(
                "trace-context extension is not 16 bytes"
            ))
        );

        // And a with-context frame is exactly the without-context frame
        // plus the 16-byte tail — old decoders see old bytes when the
        // sender is untraced.
        let bare = Request::SubmitReports {
            campaign: "c".to_string(),
            reports: vec![],
            ctx: None,
        }
        .encode();
        let (bare_body, _) = split_frame(&bare).unwrap();
        assert_eq!(&body[..body.len() - CTX_BYTES], bare_body);
    }

    #[test]
    fn trace_dump_refuses_unknown_phases() {
        let mut w = body_of(0x90);
        w.put(&0u64);
        w.put(&0u32);
        w.put(&1u32);
        w.put(&1u64);
        w.put(&10u64);
        w.put(&b'X');
        w.put(&1u32);
        w.put(&0u64);
        w.put(&0u64);
        w.put(&0u64);
        w.put(&0u64);
        assert_eq!(
            Response::decode(w.body()),
            Err(WireError::Malformed("unknown trace event phase"))
        );
    }

    #[test]
    fn submit_acked_refuses_unknown_refusal_codes() {
        let mut w = body_of(0x8e);
        w.put(&0u64);
        w.put(&0u64);
        w.put(&1u32);
        w.put(&5u64);
        w.put(&0xee_u8);
        assert_eq!(
            Response::decode(w.body()),
            Err(WireError::Malformed("unknown refusal code"))
        );
    }

    #[test]
    fn golden_streaming_wire_layout_is_pinned() {
        // The pipelined-submit frames share the v1 framing; a change to
        // either payload is a format break (bump the HELLO version byte
        // and keep v1 decoders).
        let bytes = Request::SubmitReportsStream {
            campaign: "cafe".to_string(),
            seq: 7,
            reports: vec![stamped(3, 9, 11, vec![(1, 2.5)])],
            ctx: None,
        }
        .encode();
        // body := kind(0x0c) idlen:u16 "cafe" seq:u64 count:u32
        //         epoch:u64 sent_at:u64 user:u64 nvals:u32 obj:u32 val:f64
        let body: Vec<u8> = [
            vec![0x0c],
            4u16.to_le_bytes().to_vec(),
            b"cafe".to_vec(),
            7u64.to_le_bytes().to_vec(),
            1u32.to_le_bytes().to_vec(),
            3u64.to_le_bytes().to_vec(),
            11u64.to_le_bytes().to_vec(),
            9u64.to_le_bytes().to_vec(),
            1u32.to_le_bytes().to_vec(),
            1u32.to_le_bytes().to_vec(),
            2.5f64.to_bits().to_le_bytes().to_vec(),
        ]
        .concat();
        let golden: Vec<u8> = [
            (body.len() as u32).to_le_bytes().to_vec(),
            ((body.len() as u32) ^ u32::from_le_bytes(*b"NET1"))
                .to_le_bytes()
                .to_vec(),
            checksum(&body).to_le_bytes().to_vec(),
            body,
        ]
        .concat();
        assert_eq!(bytes, golden, "SubmitReportsStream wire layout changed");
        assert_eq!(
            u64::from_le_bytes(bytes[8..16].try_into().unwrap()),
            0x99ca_6a1a_6610_8381,
            "SubmitReportsStream checksum constant changed: {:#x}",
            u64::from_le_bytes(bytes[8..16].try_into().unwrap())
        );

        let bytes = Response::SubmitAcked {
            contiguous: 8,
            queued: 96,
            refusals: vec![BatchRefusal {
                seq: 8,
                code: Some(ErrorCode::ServerBusy),
            }],
        }
        .encode();
        // body := kind(0x8e) contiguous:u64 queued:u64 nrefusals:u32
        //         seq:u64 code:u8
        let body: Vec<u8> = [
            vec![0x8e],
            8u64.to_le_bytes().to_vec(),
            96u64.to_le_bytes().to_vec(),
            1u32.to_le_bytes().to_vec(),
            8u64.to_le_bytes().to_vec(),
            vec![0x07],
        ]
        .concat();
        let golden: Vec<u8> = [
            (body.len() as u32).to_le_bytes().to_vec(),
            ((body.len() as u32) ^ u32::from_le_bytes(*b"NET1"))
                .to_le_bytes()
                .to_vec(),
            checksum(&body).to_le_bytes().to_vec(),
            body,
        ]
        .concat();
        assert_eq!(bytes, golden, "SubmitAcked wire layout changed");
        assert_eq!(
            u64::from_le_bytes(bytes[8..16].try_into().unwrap()),
            0x23fa_c372_b366_8f35,
            "SubmitAcked checksum constant changed: {:#x}",
            u64::from_le_bytes(bytes[8..16].try_into().unwrap())
        );
    }

    #[test]
    fn golden_cluster_wire_layout_is_pinned() {
        // The cluster frames share the v1 framing; their payloads are
        // pinned here the same way `golden_wire_layout_is_pinned` pins
        // the original five. A change means a format break: bump the
        // HELLO version byte and keep decoders for v1.
        let bytes = Request::QueryMetrics {
            campaign: "cafe".to_string(),
        }
        .encode();
        // body := kind(0x06) idlen:u16 "cafe"  → 1+2+4 = 7
        let body: Vec<u8> = [vec![0x06], 4u16.to_le_bytes().to_vec(), b"cafe".to_vec()].concat();
        let golden: Vec<u8> = [
            7u32.to_le_bytes().to_vec(),
            (7u32 ^ u32::from_le_bytes(*b"NET1")).to_le_bytes().to_vec(),
            checksum(&body).to_le_bytes().to_vec(),
            body,
        ]
        .concat();
        assert_eq!(bytes, golden, "QueryMetrics wire layout changed");
        assert_eq!(
            u64::from_le_bytes(bytes[8..16].try_into().unwrap()),
            0xf136_3cf3_dd59_6008,
            "QueryMetrics checksum constant changed"
        );

        let bytes = Request::ReplicateSegment {
            campaign: "cafe".to_string(),
            seq: 7,
            op: StoreOp::Append,
            name: "seg.0001".to_string(),
            arg: 0,
            bytes: b"abc".to_vec(),
        }
        .encode();
        // body := kind(0x0a) idlen:u16 "cafe" seq:u64 op:u8
        //         namelen:u16 "seg.0001" arg:u64 nbytes:u32 "abc"
        let body: Vec<u8> = [
            vec![0x0a],
            4u16.to_le_bytes().to_vec(),
            b"cafe".to_vec(),
            7u64.to_le_bytes().to_vec(),
            vec![0x00],
            8u16.to_le_bytes().to_vec(),
            b"seg.0001".to_vec(),
            0u64.to_le_bytes().to_vec(),
            3u32.to_le_bytes().to_vec(),
            b"abc".to_vec(),
        ]
        .concat();
        let golden: Vec<u8> = [
            (body.len() as u32).to_le_bytes().to_vec(),
            ((body.len() as u32) ^ u32::from_le_bytes(*b"NET1"))
                .to_le_bytes()
                .to_vec(),
            checksum(&body).to_le_bytes().to_vec(),
            body,
        ]
        .concat();
        assert_eq!(bytes, golden, "ReplicateSegment wire layout changed");
        assert_eq!(
            u64::from_le_bytes(bytes[8..16].try_into().unwrap()),
            0x033c_15dc_4987_7e7c,
            "ReplicateSegment checksum constant changed"
        );
    }

    #[test]
    fn replicated_store_names_are_path_safe() {
        for bad in ["", "a/b", "a\\b", "..", ".hidden", "x\0y"] {
            let frame = Request::ReplicateSegment {
                campaign: "c".to_string(),
                seq: 0,
                op: StoreOp::Remove,
                name: bad.to_string(),
                arg: 0,
                bytes: vec![],
            }
            .encode();
            let (body, _) = split_frame(&frame).unwrap();
            assert!(
                matches!(Request::decode(body), Err(WireError::Malformed(_))),
                "store name {bad:?} must be refused"
            );
        }
    }

    #[test]
    fn golden_wire_layout_is_pinned() {
        // Version-1 layout, byte for byte. If this fails you have changed
        // the wire format: bump the HELLO version byte and keep decoders
        // for the old one — deployed clients must not be misread.
        assert_eq!(HELLO, *b"DPTDNET\x01");

        let bytes = Request::CloseRound {
            campaign: "cafe".to_string(),
            epoch: 7,
        }
        .encode();
        // body := kind(0x03) idlen:u16 "cafe" epoch:u64  → 1+2+4+8 = 15
        let body: Vec<u8> = [
            vec![0x03],
            4u16.to_le_bytes().to_vec(),
            b"cafe".to_vec(),
            7u64.to_le_bytes().to_vec(),
        ]
        .concat();
        let golden: Vec<u8> = [
            15u32.to_le_bytes().to_vec(),
            (15u32 ^ u32::from_le_bytes(*b"NET1"))
                .to_le_bytes()
                .to_vec(),
            checksum(&body).to_le_bytes().to_vec(),
            body,
        ]
        .concat();
        assert_eq!(bytes, golden, "wire v1 frame layout changed");
        // And the checksum itself is pinned (FNV-1a over the body).
        assert_eq!(
            u64::from_le_bytes(bytes[8..16].try_into().unwrap()),
            0xb072_23e2_7d00_7524,
            "checksum constant changed: {:#x}",
            u64::from_le_bytes(bytes[8..16].try_into().unwrap())
        );
    }

    #[test]
    fn truncated_frames_ask_for_more_bytes() {
        let bytes = Request::QueryTruths {
            campaign: "c".to_string(),
        }
        .encode();
        for cut in 0..bytes.len() {
            match split_frame(&bytes[..cut]) {
                Err(WireError::Truncated { needed, have }) => {
                    assert_eq!(have, cut);
                    assert!(needed > cut);
                }
                other => panic!("cut at {cut}: expected Truncated, got {other:?}"),
            }
        }
    }

    #[test]
    fn corrupted_headers_and_bodies_are_typed_errors() {
        let good = Request::CloseRound {
            campaign: "c".to_string(),
            epoch: 1,
        }
        .encode();

        // Flip a length-prefix bit: self-check catches it.
        let mut bad_len = good.clone();
        bad_len[1] ^= 0x40;
        assert_eq!(split_frame(&bad_len), Err(WireError::LenCheck));

        // Flip a body bit: checksum catches it.
        let mut bad_body = good.clone();
        *bad_body.last_mut().unwrap() ^= 0x01;
        assert_eq!(split_frame(&bad_body), Err(WireError::Checksum));

        // A consistent header claiming more than the cap is TooLarge —
        // rejected before any allocation.
        let huge = (MAX_FRAME_LEN as u32) + 1;
        let mut lying = Vec::new();
        lying.extend_from_slice(&huge.to_le_bytes());
        lying.extend_from_slice(&(huge ^ LEN_XOR).to_le_bytes());
        lying.extend_from_slice(&0u64.to_le_bytes());
        assert_eq!(
            split_frame(&lying),
            Err(WireError::TooLarge {
                claimed: u64::from(huge)
            })
        );
    }

    #[test]
    fn claimed_counts_are_bounded_before_allocation() {
        // A submit body claiming 2^32-1 reports in a tiny payload must
        // be Malformed, not a 4-billion-element Vec::with_capacity.
        let mut w = body_of(0x02);
        w.str("c");
        w.put(&u32::MAX);
        assert_eq!(
            Request::decode(w.body()),
            Err(WireError::Malformed(
                "claimed count larger than the payload"
            ))
        );
        // Same for a modest but still payload-exceeding claim.
        let mut w = body_of(0x02);
        w.str("c");
        w.put(&1_000u32);
        assert_eq!(
            Request::decode(w.body()),
            Err(WireError::Malformed(
                "claimed count larger than the payload"
            ))
        );
    }

    #[test]
    fn campaign_ids_are_path_safe() {
        assert!(validate_campaign_id("air-quality_7.v2").is_ok());
        for bad in ["", ".hidden", "a/b", "a\\b", "a b", "ü", "x\0"] {
            assert!(
                validate_campaign_id(bad).is_err(),
                "{bad:?} must be refused"
            );
        }
        let long = "x".repeat(MAX_CAMPAIGN_ID_LEN + 1);
        assert!(validate_campaign_id(&long).is_err());
        let max = "x".repeat(MAX_CAMPAIGN_ID_LEN);
        assert!(validate_campaign_id(&max).is_ok());
    }

    #[test]
    fn unknown_kinds_and_trailing_bytes_are_refused() {
        assert_eq!(Request::decode(&[0x7f]), Err(WireError::UnknownKind(0x7f)));
        assert_eq!(Response::decode(&[0x01]), Err(WireError::UnknownKind(0x01)));
        // A valid message with trailing garbage.
        let mut w = body_of(0x81);
        w.put(&0u64);
        w.put(&0xaa_u8);
        assert_eq!(
            Response::decode(w.body()),
            Err(WireError::Malformed("trailing bytes after the payload"))
        );
    }
}
