//! The payload codec of the workspace's binary formats: the write-ahead
//! log's records ([`crate::wal`]), the store's manifest ([`crate::store`])
//! and the server's wire frames (`dptd_server::wire`) are declared with it.
//!
//! A layout is a list of [`Field`] kinds. A kind states the fewest bytes
//! a value takes, how it is written into a [`Sink`] and how it is read
//! back from a [`Reader`] with every check on outside input. A layout's
//! length is its `put` run into a [`Counter`], so a frame is allocated
//! once at exactly its size, and every count a payload claims is bounded
//! by the bytes present before a `Vec` is sized by it.
//!
//! A type is its own kind (`u64`, `Vec<f64>`, a
//! [`record!`](crate::record)) unless its encoded form is narrower, or
//! its crate cannot implement [`Field`] for it; then a marker type is the
//! kind, selected with `as` ([`kind!`](crate::kind)). `Vec<K>` encodes a
//! `Vec<T>` whose `T` kind `K` encodes, and a tuple of kinds a tuple.
//! Framing is not here: each format keeps its own.

use std::marker::PhantomData;

/// Why a payload was refused: the first check it failed. Each format
/// turns it into its own error, keeping the text.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Malformed(
    /// What was wrong.
    pub &'static str,
);

/// Where a payload's bytes go: into a buffer or, to learn its exact
/// length before allocating it, into a [`Counter`]. Both passes run the
/// same `put` code, so the length a frame declares cannot drift from the
/// bytes it writes.
pub trait Sink: Sized {
    /// Append raw bytes.
    fn bytes(&mut self, b: &[u8]);
    /// Append one field; the value's type selects its kind.
    fn put<T: Field>(&mut self, v: &T) {
        T::put(v, self);
    }
    /// Append each item in turn, uncounted: a column whose length the
    /// layout states elsewhere ([`Reader::column`] reads it back).
    fn column<T: Field>(&mut self, items: &[T]) {
        for item in items {
            self.put(item);
        }
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
}

/// The sizing pass: counts what a buffer would be given.
#[derive(Debug)]
pub struct Counter(
    /// Bytes counted so far.
    pub usize,
);

impl Sink for Counter {
    fn bytes(&mut self, b: &[u8]) {
        self.0 += b.len();
    }
}

impl Sink for Vec<u8> {
    fn bytes(&mut self, b: &[u8]) {
        self.extend_from_slice(b);
    }
}

/// Reads fields back off the front of a payload.
#[derive(Debug)]
pub struct Reader<'a> {
    /// The bytes not read yet.
    pub buf: &'a [u8],
}

impl<'a> Reader<'a> {
    /// The next `n` bytes, refused when fewer are left.
    #[inline]
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], Malformed> {
        if self.buf.len() < n {
            return Err(Malformed("payload shorter than its fields"));
        }
        let (head, rest) = self.buf.split_at(n);
        self.buf = rest;
        Ok(head)
    }

    /// Read one field; the expected type selects its kind.
    pub fn get<T: Field>(&mut self) -> Result<T, Malformed> {
        T::get(self)
    }

    /// `count` elements of at least `min_elem_bytes` each, checked
    /// against the bytes still present — **before** any allocation sized
    /// by the count.
    fn fits(&self, count: usize, min_elem_bytes: usize) -> Result<usize, Malformed> {
        let need = count
            .checked_mul(min_elem_bytes)
            .ok_or(Malformed("element count overflows"))?;
        if self.buf.len() < need {
            return Err(Malformed("claimed count larger than the payload"));
        }
        Ok(count)
    }

    /// A claimed `count:u32`, bounded by the bytes still present: each
    /// element needs at least `min_elem_bytes`, so a count the remaining
    /// buffer cannot possibly hold is malformed.
    pub fn bounded_count(&mut self, min_elem_bytes: usize) -> Result<usize, Malformed> {
        let claimed = self.get::<u32>()? as usize;
        self.fits(claimed, min_elem_bytes)
    }

    /// `n` values of kind `K` back to back, `n` being a count the payload
    /// stated: refused before the column is sized unless the bytes left
    /// can hold it.
    pub fn column<T, K: Field<T>>(&mut self, n: usize) -> Result<Vec<T>, Malformed> {
        // An element that can encode to nothing would leave `n` unbounded.
        const { assert!(K::MIN_LEN > 0) };
        let mut out = Vec::with_capacity(self.fits(n, K::MIN_LEN)?);
        for _ in 0..n {
            out.push(K::get(self)?);
        }
        Ok(out)
    }
}

/// One kind of payload field, holding a value of type `T`. Impls are
/// monomorphised into the layouts that name them: no `dyn` and no runtime
/// schema on the encode or decode path.
pub trait Field<T = Self> {
    /// Fewest bytes any value encodes to: what a counted sequence
    /// multiplies a claimed count by before it sizes a `Vec`.
    const MIN_LEN: usize;
    /// Append `v`'s encoded form.
    fn put<S: Sink>(v: &T, w: &mut S);
    /// Read one value back, refusing anything `put` could not have
    /// written.
    fn get(r: &mut Reader<'_>) -> Result<T, Malformed>;
}

/// The kind of one layout field: the field's own type, or the kind named
/// after `as`.
#[macro_export]
macro_rules! kind {
    ($ty:ty) => {
        $ty
    };
    ($ty:ty, $kind:ty) => {
        $kind
    };
}

/// A flat record: its fields in order, each `field: Type` (`as Kind`
/// where the type is not its own kind), written once. The first arm also
/// defines the struct; the second gives a struct defined elsewhere its
/// codec — on the struct itself, or, after `as Marker`, on a marker type
/// it defines (for a struct of another crate).
#[macro_export]
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

        $crate::record!(impl $name { $($field: $ty $(as $kind)?),* });
    };
    (impl $name:ident $(as $marker:ident)? { $($field:ident: $ty:ty $(as $kind:ty)?),* $(,)? }) => {
        $(struct $marker;)?

        impl $crate::codec::Field<$name> for $crate::kind!($name $(, $marker)?) {
            const MIN_LEN: usize =
                0 $(+ <$crate::kind!($ty $(, $kind)?) as $crate::codec::Field<$ty>>::MIN_LEN)*;
            fn put<S: $crate::codec::Sink>(v: &$name, w: &mut S) {
                $(<$crate::kind!($ty $(, $kind)?) as $crate::codec::Field<$ty>>::put(&v.$field, w);)*
            }
            fn get(r: &mut $crate::codec::Reader<'_>) -> Result<$name, $crate::codec::Malformed> {
                Ok($name {
                    $($field: <$crate::kind!($ty $(, $kind)?) as $crate::codec::Field<$ty>>::get(r)?),*
                })
            }
        }
    };
}

/// A `#[repr(u8)]` enum that states `Variant = byte` (and, where people
/// read it, `=> "display-name"`) once: the definition, `from_u8`, the
/// [`Field`] codec — an unknown byte is `Malformed($unknown)` — and
/// `Display` come from one list, so a variant cannot be encodable but not
/// decodable.
#[macro_export]
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
            /// Decode a tag byte.
            pub fn from_u8(byte: u8) -> Option<Self> {
                match byte {
                    $($byte => Some(Self::$variant),)*
                    _ => None,
                }
            }
        }

        impl $crate::codec::Field for $name {
            const MIN_LEN: usize = 1;
            fn put<S: $crate::codec::Sink>(v: &Self, w: &mut S) {
                w.put(&(*v as u8));
            }
            fn get(r: &mut $crate::codec::Reader<'_>) -> Result<Self, $crate::codec::Malformed> {
                Self::from_u8(r.get()?).ok_or($crate::codec::Malformed($unknown))
            }
        }

        $crate::tagged!(@display $name $($variant $($display)?)*);
    };
    (@display $name:ident $($variant:ident $display:literal)+) => {
        impl ::std::fmt::Display for $name {
            fn fmt(&self, f: &mut ::std::fmt::Formatter<'_>) -> ::std::fmt::Result {
                f.write_str(match self {
                    $(Self::$variant => $display,)*
                })
            }
        }
    };
    (@display $name:ident $($variant:ident)*) => {};
}

macro_rules! scalar_fields {
    ($($ty:ident),*) => {$(
        impl Field for $ty {
            const MIN_LEN: usize = std::mem::size_of::<$ty>();
            fn put<S: Sink>(v: &$ty, w: &mut S) {
                w.bytes(&v.to_le_bytes());
            }
            fn get(r: &mut Reader<'_>) -> Result<$ty, Malformed> {
                let bytes = r.take(Self::MIN_LEN)?;
                Ok($ty::from_le_bytes(bytes.try_into().expect("sized by take")))
            }
        }
    )*};
}

scalar_fields!(u8, u16, u32, u64, f64);

/// An id or count held as a `usize`: a `u64`, refused on the way in when
/// it does not fit.
impl Field for usize {
    const MIN_LEN: usize = 8;
    fn put<S: Sink>(v: &usize, w: &mut S) {
        w.put(&(*v as u64));
    }
    fn get(r: &mut Reader<'_>) -> Result<usize, Malformed> {
        usize::try_from(r.get::<u64>()?).map_err(|_| Malformed("value overflows usize"))
    }
}

/// A flag: one byte, `0` or `1`.
impl Field for bool {
    const MIN_LEN: usize = 1;
    fn put<S: Sink>(v: &bool, w: &mut S) {
        w.put(&u8::from(*v));
    }
    fn get(r: &mut Reader<'_>) -> Result<bool, Malformed> {
        match r.get::<u8>()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(Malformed("flag is not 0/1")),
        }
    }
}

/// Free text, as [`Sink::str`] writes it: any UTF-8.
impl Field for String {
    const MIN_LEN: usize = 2;
    fn put<S: Sink>(v: &String, w: &mut S) {
        w.str(v);
    }
    fn get(r: &mut Reader<'_>) -> Result<String, Malformed> {
        let len = usize::from(r.get::<u16>()?);
        String::from_utf8(r.take(len)?.to_vec()).map_err(|_| Malformed("string is not UTF-8"))
    }
}

/// A counted sequence: `count:u32`, then each item as `K`.
impl<T, K: Field<T>> Field<Vec<T>> for Vec<K> {
    const MIN_LEN: usize = 4;
    fn put<S: Sink>(v: &Vec<T>, w: &mut S) {
        w.put(&(v.len() as u32));
        for item in v {
            K::put(item, w);
        }
    }
    fn get(r: &mut Reader<'_>) -> Result<Vec<T>, Malformed> {
        let count = r.get::<u32>()? as usize;
        r.column::<T, K>(count)
    }
}

impl<A, B, KA: Field<A>, KB: Field<B>> Field<(A, B)> for (KA, KB) {
    const MIN_LEN: usize = KA::MIN_LEN + KB::MIN_LEN;
    fn put<S: Sink>(v: &(A, B), w: &mut S) {
        KA::put(&v.0, w);
        KB::put(&v.1, w);
    }
    fn get(r: &mut Reader<'_>) -> Result<(A, B), Malformed> {
        Ok((KA::get(r)?, KB::get(r)?))
    }
}

/// What orders an [`Ascending`] list: an entry's id — the entry itself,
/// or a tuple's first element.
pub trait Id {
    /// The id.
    fn id(&self) -> u64;
}

macro_rules! id_fields {
    ($($ty:ident),*) => {$(
        impl Id for $ty {
            fn id(&self) -> u64 {
                *self as u64
            }
        }
    )*};
}

id_fields!(u32, u64, usize);

impl<A: Id, B> Id for (A, B) {
    fn id(&self) -> u64 {
        self.0.id()
    }
}

/// A list of ids, or of entries that open with one: `count:u64`, then
/// each entry as `K`, the ids **strictly ascending** — so no id appears
/// twice, and a bound on the last id bounds them all.
#[derive(Debug)]
pub struct Ascending<K>(PhantomData<K>);

impl<K> Ascending<K> {
    /// Read the list, handing each entry to `apply` in order: every
    /// check [`Field::get`] makes, with no list built.
    pub fn each<T: Id>(
        r: &mut Reader<'_>,
        mut apply: impl FnMut(T) -> Result<(), Malformed>,
    ) -> Result<(), Malformed>
    where
        K: Field<T>,
    {
        const { assert!(K::MIN_LEN > 0) };
        let count = r.get::<usize>()?;
        r.fits(count, K::MIN_LEN)?;
        let mut last = None;
        for _ in 0..count {
            let entry = K::get(r)?;
            if last.is_some_and(|id| id >= entry.id()) {
                return Err(Malformed("ids not strictly ascending"));
            }
            last = Some(entry.id());
            apply(entry)?;
        }
        Ok(())
    }
}

impl<T: Id, K: Field<T>> Field<Vec<T>> for Ascending<K> {
    const MIN_LEN: usize = 8;
    fn put<S: Sink>(v: &Vec<T>, w: &mut S) {
        w.put(&(v.len() as u64));
        for entry in v {
            K::put(entry, w);
        }
    }
    fn get(r: &mut Reader<'_>) -> Result<Vec<T>, Malformed> {
        // Sized once from the stated count, which `each` checks again.
        let count = Reader { buf: r.buf }.get::<usize>()?;
        let mut entries = Vec::with_capacity(r.fits(count, K::MIN_LEN)?);
        Self::each(r, |entry| {
            entries.push(entry);
            Ok(())
        })?;
        Ok(entries)
    }
}
