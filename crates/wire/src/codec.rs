//! The compact self-describing binary codec every wire message uses.
//!
//! Design rules, in priority order:
//!
//! 1. **Never panic on input.** Decoding returns [`WireError`] for any
//!    byte sequence — truncated, garbage, adversarial. The fuzz tests in
//!    `tests/prop_wire.rs` hold this for random frames.
//! 2. **Compact.** Integers are LEB128 varints (a chunk index costs one
//!    byte, not eight); enums cost one tag byte; collections are
//!    length-prefixed. There is no schema negotiation — both ends are
//!    compiled from the same crate, so the message layout *is* the schema.
//! 3. **No external dependencies.** The codec is ~200 lines of hand-rolled
//!    encoding in the same vendor-shim spirit as the rest of the
//!    workspace.
//!
//! A message travels as a frame: the [`Wire`] encoding of the value,
//! carried inside a `u32`-LE length prefix by the transport layer
//! (`bff_net::transport`). [`decode`] requires the frame to be consumed
//! exactly — trailing bytes are a framing error, which catches
//! misrouted or version-skewed messages early.

pub use bff_net::transport::WireError;
use bytes::Bytes;
use std::ops::Range;
use std::sync::Arc;

/// Cursor over a received frame.
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
    /// The same frame as a shared buffer, when the decoder owns it:
    /// [`Reader::take_bytes`] then slices it instead of copying.
    shared: Option<&'a Bytes>,
}

impl<'a> Reader<'a> {
    /// Start reading `buf` from the beginning.
    pub fn new(buf: &'a [u8]) -> Self {
        Self {
            buf,
            pos: 0,
            shared: None,
        }
    }

    /// Start reading a frame the decoder owns (see [`decode_owned`]).
    pub fn shared(frame: &'a Bytes) -> Self {
        Self {
            buf: frame,
            pos: 0,
            shared: Some(frame),
        }
    }

    /// Bytes not yet consumed.
    #[inline]
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// The byte `at` positions past the cursor, without consuming it.
    #[inline]
    pub fn peek(&self, at: usize) -> Option<u8> {
        self.buf.get(self.pos + at).copied()
    }

    /// Next raw byte.
    #[inline]
    pub fn byte(&mut self) -> Result<u8, WireError> {
        let b = *self.buf.get(self.pos).ok_or(WireError::Truncated)?;
        self.pos += 1;
        Ok(b)
    }

    /// Next `n` raw bytes.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.remaining() < n {
            return Err(WireError::Truncated);
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Next `n` raw bytes as a buffer that outlives the reader: a view
    /// into the shared frame when there is one, a copy otherwise.
    pub fn take_bytes(&mut self, n: usize) -> Result<Bytes, WireError> {
        let start = self.pos;
        let raw = self.take(n)?;
        Ok(match self.shared {
            Some(frame) => frame.slice(start..start + n),
            None => Bytes::copy_from_slice(raw),
        })
    }

    /// Next LEB128 varint.
    pub fn varint(&mut self) -> Result<u64, WireError> {
        let mut val = 0u64;
        let mut shift = 0u32;
        loop {
            let b = self.byte()?;
            let bits = u64::from(b & 0x7f);
            if shift > 63 || (shift == 63 && bits > 1) {
                return Err(WireError::BadFrame);
            }
            val |= bits << shift;
            if b & 0x80 == 0 {
                return Ok(val);
            }
            shift += 7;
        }
    }

    /// Assert the frame was consumed exactly.
    pub fn finish(self) -> Result<(), WireError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(WireError::BadFrame)
        }
    }
}

/// Append `v` as a LEB128 varint.
pub fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let b = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(b);
            return;
        }
        out.push(b | 0x80);
    }
}

/// A value with a stable binary wire form.
pub trait Wire: Sized {
    /// Append the encoding of `self` to `out`.
    fn enc(&self, out: &mut Vec<u8>);
    /// Decode one value from `r`.
    fn dec(r: &mut Reader<'_>) -> Result<Self, WireError>;
}

/// Encode a value into a fresh frame payload.
pub fn encode<T: Wire>(v: &T) -> Vec<u8> {
    let mut out = Vec::new();
    v.enc(&mut out);
    out
}

/// Decode a full frame payload; trailing bytes are a framing error.
pub fn decode<T: Wire>(buf: &[u8]) -> Result<T, WireError> {
    let mut r = Reader::new(buf);
    let v = T::dec(&mut r)?;
    r.finish()?;
    Ok(v)
}

/// [`decode`] for a frame the caller owns, such as the reply a
/// transport returned: the frame becomes a shared buffer and literal
/// payload segments are views into it, so a chunk-sized reply is not
/// copied again on its way into a `Payload`. The whole frame stays
/// allocated for as long as any such segment does: the chunks of a
/// batch reply share one buffer while any of them is cached, as the
/// chunks of a multi-chunk `Fetch` reply always have.
pub fn decode_owned<T: Wire>(frame: Vec<u8>) -> Result<T, WireError> {
    decode_shared(&Bytes::from(frame))
}

/// [`decode`] for a frame already in a shared buffer, such as a record
/// replayed from a log file: literal payload segments are views into it,
/// as with [`decode_owned`].
pub fn decode_shared<T: Wire>(frame: &Bytes) -> Result<T, WireError> {
    let mut r = Reader::shared(frame);
    let v = T::dec(&mut r)?;
    r.finish()?;
    Ok(v)
}

impl Wire for u64 {
    fn enc(&self, out: &mut Vec<u8>) {
        put_varint(out, *self);
    }
    fn dec(r: &mut Reader<'_>) -> Result<Self, WireError> {
        r.varint()
    }
}

impl Wire for u32 {
    fn enc(&self, out: &mut Vec<u8>) {
        put_varint(out, u64::from(*self));
    }
    fn dec(r: &mut Reader<'_>) -> Result<Self, WireError> {
        u32::try_from(r.varint()?).map_err(|_| WireError::BadFrame)
    }
}

impl Wire for usize {
    fn enc(&self, out: &mut Vec<u8>) {
        put_varint(out, *self as u64);
    }
    fn dec(r: &mut Reader<'_>) -> Result<Self, WireError> {
        usize::try_from(r.varint()?).map_err(|_| WireError::BadFrame)
    }
}

impl Wire for bool {
    fn enc(&self, out: &mut Vec<u8>) {
        out.push(u8::from(*self));
    }
    fn dec(r: &mut Reader<'_>) -> Result<Self, WireError> {
        match r.byte()? {
            0 => Ok(false),
            1 => Ok(true),
            t => Err(WireError::BadTag("bool", t)),
        }
    }
}

impl<T: Wire> Wire for Vec<T> {
    fn enc(&self, out: &mut Vec<u8>) {
        put_varint(out, self.len() as u64);
        for item in self {
            item.enc(out);
        }
    }
    fn dec(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let n = usize::dec(r)?;
        // Every Wire encoding is at least one byte, so a declared count
        // beyond the remaining frame is corrupt — reject before
        // allocating for it.
        if n > r.remaining() {
            return Err(WireError::Truncated);
        }
        let mut v = Vec::with_capacity(n);
        for _ in 0..n {
            v.push(T::dec(r)?);
        }
        Ok(v)
    }
}

/// The entries of a batch message: a list whose entries are never
/// batches themselves. It encodes as a `Vec`; decoding looks at each
/// entry's tag before descending into it and rejects a nested batch
/// there, so decoding stays one level deep whatever a frame declares —
/// a frame of nothing but batch tags is an error, not a deep recursion.
#[derive(Debug, Clone, PartialEq)]
pub struct Flat<T>(pub Vec<T>);

impl<T> Default for Flat<T> {
    fn default() -> Self {
        Flat(Vec::new())
    }
}

/// A type that can be an entry of a [`Flat`] list.
pub trait FlatEntry: Wire {
    /// If the value encoded `at` bytes past the cursor is a batch, the
    /// error that rejects it there. Consumes nothing.
    fn nested(r: &Reader<'_>, at: usize) -> Option<WireError>;
}

/// An outcome is nested when its `Ok` value is.
impl<T: FlatEntry, E: Wire> FlatEntry for Result<T, E> {
    fn nested(r: &Reader<'_>, at: usize) -> Option<WireError> {
        (r.peek(at) == Some(0))
            .then(|| T::nested(r, at + 1))
            .flatten()
    }
}

impl<T: FlatEntry> Wire for Flat<T> {
    fn enc(&self, out: &mut Vec<u8>) {
        self.0.enc(out);
    }
    fn dec(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let n = usize::dec(r)?;
        if n > r.remaining() {
            return Err(WireError::Truncated);
        }
        let mut v = Vec::with_capacity(n);
        for _ in 0..n {
            if let Some(e) = T::nested(r, 0) {
                return Err(e);
            }
            v.push(T::dec(r)?);
        }
        Ok(Flat(v))
    }
}

/// Encodes as the value it shares, so a reply can hand out server-side
/// state by refcount when no frame is ever built.
impl<T: Wire> Wire for Arc<T> {
    fn enc(&self, out: &mut Vec<u8>) {
        (**self).enc(out);
    }
    fn dec(r: &mut Reader<'_>) -> Result<Self, WireError> {
        T::dec(r).map(Arc::new)
    }
}

/// Encodes like a `Vec`: a shared slice is a list on the wire.
impl<T: Wire> Wire for Arc<[T]> {
    fn enc(&self, out: &mut Vec<u8>) {
        put_varint(out, self.len() as u64);
        for item in self.iter() {
            item.enc(out);
        }
    }
    fn dec(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Vec::dec(r).map(Arc::from)
    }
}

impl<T: Wire> Wire for Option<T> {
    fn enc(&self, out: &mut Vec<u8>) {
        match self {
            None => out.push(0),
            Some(v) => {
                out.push(1);
                v.enc(out);
            }
        }
    }
    fn dec(r: &mut Reader<'_>) -> Result<Self, WireError> {
        match r.byte()? {
            0 => Ok(None),
            1 => Ok(Some(T::dec(r)?)),
            t => Err(WireError::BadTag("option", t)),
        }
    }
}

impl<T: Wire, E: Wire> Wire for Result<T, E> {
    fn enc(&self, out: &mut Vec<u8>) {
        match self {
            Ok(v) => {
                out.push(0);
                v.enc(out);
            }
            Err(e) => {
                out.push(1);
                e.enc(out);
            }
        }
    }
    fn dec(r: &mut Reader<'_>) -> Result<Self, WireError> {
        match r.byte()? {
            0 => Ok(Ok(T::dec(r)?)),
            1 => Ok(Err(E::dec(r)?)),
            t => Err(WireError::BadTag("result", t)),
        }
    }
}

impl<A: Wire, B: Wire> Wire for (A, B) {
    fn enc(&self, out: &mut Vec<u8>) {
        self.0.enc(out);
        self.1.enc(out);
    }
    fn dec(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok((A::dec(r)?, B::dec(r)?))
    }
}

impl<A: Wire, B: Wire, C: Wire> Wire for (A, B, C) {
    fn enc(&self, out: &mut Vec<u8>) {
        self.0.enc(out);
        self.1.enc(out);
        self.2.enc(out);
    }
    fn dec(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok((A::dec(r)?, B::dec(r)?, C::dec(r)?))
    }
}

impl Wire for Range<u64> {
    fn enc(&self, out: &mut Vec<u8>) {
        put_varint(out, self.start);
        put_varint(out, self.end);
    }
    fn dec(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(r.varint()?..r.varint()?)
    }
}

/// Encode a `&'static str` drawn from an intern `table` as its index.
/// Strings not in the table encode as index 0 — tables reserve slot 0
/// for their "unknown" placeholder, so decoding is total and the round
/// trip is the identity for every interned string.
pub fn enc_static(s: &str, table: &[&'static str], out: &mut Vec<u8>) {
    let idx = table.iter().position(|t| *t == s).unwrap_or(0);
    put_varint(out, idx as u64);
}

/// Decode an interned `&'static str` (see [`enc_static`]).
pub fn dec_static(r: &mut Reader<'_>, table: &[&'static str]) -> Result<&'static str, WireError> {
    let idx = usize::dec(r)?;
    table
        .get(idx)
        .copied()
        .ok_or(WireError::BadTag("interned string", idx as u8))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn varint_roundtrip_edges() {
        for v in [0u64, 1, 127, 128, 300, u32::MAX as u64, u64::MAX] {
            let mut out = Vec::new();
            put_varint(&mut out, v);
            let mut r = Reader::new(&out);
            assert_eq!(r.varint().unwrap(), v);
            r.finish().unwrap();
        }
    }

    #[test]
    fn varint_overlong_rejected() {
        // 11 continuation bytes can never be a valid u64.
        let buf = [0x80u8; 11];
        let mut r = Reader::new(&buf);
        assert_eq!(r.varint().unwrap_err(), WireError::BadFrame);
        // Truncated varint: continuation bit set, no next byte.
        let mut r = Reader::new(&[0x80]);
        assert_eq!(r.varint().unwrap_err(), WireError::Truncated);
    }

    #[test]
    fn vec_count_beyond_frame_rejected() {
        // Declares 1000 elements but carries none.
        let mut out = Vec::new();
        put_varint(&mut out, 1000);
        assert_eq!(decode::<Vec<u64>>(&out).unwrap_err(), WireError::Truncated);
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut out = encode(&7u64);
        out.push(0);
        assert_eq!(decode::<u64>(&out).unwrap_err(), WireError::BadFrame);
    }

    #[test]
    fn composites_roundtrip() {
        let v: Vec<(u64, Option<bool>)> = vec![(1, None), (2, Some(true)), (300, Some(false))];
        assert_eq!(decode::<Vec<(u64, Option<bool>)>>(&encode(&v)).unwrap(), v);
        let r: Result<u64, u32> = Err(9);
        assert_eq!(decode::<Result<u64, u32>>(&encode(&r)).unwrap(), r);
        let range = 17u64..99u64;
        assert_eq!(decode::<Range<u64>>(&encode(&range)).unwrap(), range);
    }
}
