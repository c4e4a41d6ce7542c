//! Minimal binary encoding helpers for on-disk records and for every
//! format another principal can write.
//!
//! All on-disk structures in the store (log records, the object map, the
//! checkpoint superblock) are encoded with this little-endian, length-
//! prefixed format.  It is deliberately tiny: fixed-width integers, byte
//! strings, and checksummed frames — `len ‖ payload ‖ XXH64(payload)`,
//! the one checksum on every store disk path.  The library's shared-segment
//! and wire formats are [`Wire`] types over the same [`Encoder`] and
//! [`Decoder`], so the bytes another principal wrote become values in one
//! place, and that place cannot panic.

/// Writer for the on-disk encoding.
#[derive(Debug, Default)]
pub struct Encoder {
    buf: Vec<u8>,
}

impl Encoder {
    /// Creates an empty encoder.
    pub fn new() -> Encoder {
        Encoder::default()
    }

    /// Creates an empty encoder with room for `capacity` bytes.
    pub fn with_capacity(capacity: usize) -> Encoder {
        Encoder {
            buf: Vec::with_capacity(capacity),
        }
    }

    /// Appends a `u8`.
    pub fn put_u8(&mut self, v: u8) -> &mut Self {
        self.buf.push(v);
        self
    }

    /// Appends a little-endian `u32`.
    pub fn put_u32(&mut self, v: u32) -> &mut Self {
        self.buf.extend_from_slice(&v.to_le_bytes());
        self
    }

    /// Appends a little-endian `u64`.
    pub fn put_u64(&mut self, v: u64) -> &mut Self {
        self.buf.extend_from_slice(&v.to_le_bytes());
        self
    }

    /// Appends a length-prefixed byte string.
    pub fn put_bytes(&mut self, v: &[u8]) -> &mut Self {
        self.put_bytes_padded(v, v.len())
    }

    /// Appends a length-prefixed byte string of `len` bytes: `v`, then
    /// zeros written straight into the buffer (`v.len() <= len`).
    pub fn put_bytes_padded(&mut self, v: &[u8], len: usize) -> &mut Self {
        self.put_u64(len as u64);
        self.buf.extend_from_slice(v);
        self.buf.resize(self.buf.len() + (len - v.len()), 0);
        self
    }

    /// Appends `v` as it is, with no length prefix.
    pub fn put_raw(&mut self, v: &[u8]) -> &mut Self {
        self.buf.extend_from_slice(v);
        self
    }

    /// Appends a length-prefixed UTF-8 string.
    pub fn put_str(&mut self, v: &str) -> &mut Self {
        self.put_bytes(v.as_bytes())
    }

    /// Appends the byte `tags` pairs with `value`: an enum's tags sit in
    /// one table, which [`Decoder::get_tag`] reads back.  A value the
    /// table lacks is written as `u8::MAX`, which no table holds.
    pub fn put_tag<T: PartialEq>(&mut self, tags: &[(T, u8)], value: &T) -> &mut Self {
        let tag = tags.iter().find(|(v, _)| v == value);
        self.put_u8(tag.map_or(u8::MAX, |&(_, tag)| tag))
    }

    /// Finishes encoding, returning the buffer.
    pub fn finish(self) -> Vec<u8> {
        self.buf
    }
}

/// Errors produced while decoding.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DecodeError {
    /// The input ended before the expected field.
    UnexpectedEnd,
    /// A length prefix exceeded the remaining input.
    BadLength,
    /// A checksum did not match.
    BadChecksum,
    /// A string field was not valid UTF-8.
    BadUtf8,
    /// A field held a value its format does not admit: an unknown tag, an
    /// id past 61 bits, or a position past what the reader knows the
    /// writer had room for.
    BadValue,
    /// Bytes followed a complete value in a format that ends there.
    Trailing,
}

impl core::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            DecodeError::UnexpectedEnd => write!(f, "unexpected end of input"),
            DecodeError::BadLength => write!(f, "length prefix exceeds input"),
            DecodeError::BadChecksum => write!(f, "checksum mismatch"),
            DecodeError::BadUtf8 => write!(f, "invalid UTF-8 in string field"),
            DecodeError::BadValue => write!(f, "field value out of range"),
            DecodeError::Trailing => write!(f, "trailing bytes after value"),
        }
    }
}

impl std::error::Error for DecodeError {}

/// Reader for the on-disk encoding.  Every read is checked: input that
/// ends early or lies about a length is a [`DecodeError`], never a panic.
#[derive(Debug)]
pub struct Decoder<'a> {
    /// The input not yet read.
    buf: &'a [u8],
}

impl<'a> Decoder<'a> {
    /// Creates a decoder over `buf`.
    pub fn new(buf: &'a [u8]) -> Decoder<'a> {
        Decoder { buf }
    }

    /// Bytes remaining.
    pub fn remaining(&self) -> usize {
        self.buf.len()
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        let (out, rest) = self
            .buf
            .split_at_checked(n)
            .ok_or(DecodeError::UnexpectedEnd)?;
        self.buf = rest;
        Ok(out)
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N], DecodeError> {
        self.take(N)?
            .try_into()
            .map_err(|_| DecodeError::UnexpectedEnd)
    }

    /// Reads a `u8`.
    pub fn get_u8(&mut self) -> Result<u8, DecodeError> {
        Ok(u8::from_le_bytes(self.array()?))
    }

    /// Reads a little-endian `u32`.
    pub fn get_u32(&mut self) -> Result<u32, DecodeError> {
        Ok(u32::from_le_bytes(self.array()?))
    }

    /// Reads a little-endian `u64`.
    pub fn get_u64(&mut self) -> Result<u64, DecodeError> {
        Ok(u64::from_le_bytes(self.array()?))
    }

    /// Reads `len` bytes with no prefix, lent from the input: a `len` the
    /// input cannot hold is [`DecodeError::BadLength`].
    pub fn get_raw(&mut self, len: u64) -> Result<&'a [u8], DecodeError> {
        let len = usize::try_from(len).unwrap_or(usize::MAX);
        self.take(len).map_err(|_| DecodeError::BadLength)
    }

    /// Reads a length-prefixed byte string, lent from the input.
    pub fn get_slice(&mut self) -> Result<&'a [u8], DecodeError> {
        let len = self.get_u64()?;
        self.get_raw(len)
    }

    /// Reads a length-prefixed byte string.
    pub fn get_bytes(&mut self) -> Result<Vec<u8>, DecodeError> {
        Ok(self.get_slice()?.to_vec())
    }

    /// Reads a length-prefixed UTF-8 string, lent from the input.
    pub fn get_str_slice(&mut self) -> Result<&'a str, DecodeError> {
        core::str::from_utf8(self.get_slice()?).map_err(|_| DecodeError::BadUtf8)
    }

    /// Reads a tag byte and returns the value `tags` pairs with it: a tag
    /// the table lacks is [`DecodeError::BadValue`].
    pub fn get_tag<T: Copy>(&mut self, tags: &[(T, u8)]) -> Result<T, DecodeError> {
        let tag = self.get_u8()?;
        let found = tags.iter().find(|&&(_, t)| t == tag);
        found.map(|&(v, _)| v).ok_or(DecodeError::BadValue)
    }

    /// `n`, a count read from the input, of items at least `item_len`
    /// bytes long each, if the input left can hold them: the one check a
    /// count passes before anything is allocated for it
    /// ([`DecodeError::BadLength`] if it fails).
    pub fn count(&self, n: u64, item_len: usize) -> Result<usize, DecodeError> {
        let fits = |n: &usize| *n <= self.remaining() / item_len.max(1);
        usize::try_from(n)
            .ok()
            .filter(fits)
            .ok_or(DecodeError::BadLength)
    }

    /// Takes the rest of the input, lent.
    pub fn rest(&mut self) -> &'a [u8] {
        core::mem::take(&mut self.buf)
    }

    /// Checks that the input is used up: [`DecodeError::Trailing`] if not.
    pub fn finish(&self) -> Result<(), DecodeError> {
        (self.remaining() == 0)
            .then_some(())
            .ok_or(DecodeError::Trailing)
    }
}

/// A format another principal can write: a ring header in a shared
/// segment, a descriptor's state, a frame off the wire.  [`Wire::put`]
/// writes a value; [`Wire::get`] reads one back through a [`Decoder`], so
/// it cannot index past its input, and checks every field whose range it
/// knows, returning a [`DecodeError`], never a panic: a length against the
/// bytes left, a ring position against the ring's capacity.  `Known` is
/// what the reader knows before it reads (the capacity); `()`, the
/// default, for a format that stands alone.  [`Wire::decode`] reads a
/// whole input and refuses trailing bytes; a format that ignores them
/// says so and takes them in `get`.
pub trait Wire<'a, Known: Copy = ()>: Sized {
    /// The bytes an encoding reserves: a fixed-size format's size.
    const SIZE: usize = 0;

    /// Appends the encoding of `self`.
    fn put(&self, e: &mut Encoder);

    /// Reads one value.
    fn get(d: &mut Decoder<'a>, known: Known) -> Result<Self, DecodeError>;

    /// The encoding of `self`.
    fn encode(&self) -> Vec<u8> {
        let mut e = Encoder::with_capacity(Self::SIZE);
        self.put(&mut e);
        e.finish()
    }

    /// Reads a value that is all of `bytes`.
    fn decode_with(bytes: &'a [u8], known: Known) -> Result<Self, DecodeError> {
        let mut d = Decoder::new(bytes);
        let value = Self::get(&mut d, known)?;
        d.finish().map(|()| value)
    }

    /// Reads a value that is all of `bytes`, for a format that stands
    /// alone.
    fn decode(bytes: &'a [u8]) -> Result<Self, DecodeError>
    where
        Self: Wire<'a>,
    {
        <Self as Wire<'a>>::decode_with(bytes, ())
    }
}

/// A length-prefixed byte string, lent from the input.
impl<'a> Wire<'a> for &'a [u8] {
    fn put(&self, e: &mut Encoder) {
        e.put_bytes(self);
    }

    fn get(d: &mut Decoder<'a>, (): ()) -> Result<&'a [u8], DecodeError> {
        d.get_slice()
    }
}

/// A length-prefixed byte string, owned.
impl Wire<'_> for Vec<u8> {
    fn put(&self, e: &mut Encoder) {
        e.put_bytes(self);
    }

    fn get(d: &mut Decoder<'_>, (): ()) -> Result<Vec<u8>, DecodeError> {
        d.get_bytes()
    }
}

/// A byte string of exactly `N` bytes, length-prefixed: any other length
/// is [`DecodeError::BadValue`].
impl<const N: usize> Wire<'_> for [u8; N] {
    const SIZE: usize = 8 + N;

    fn put(&self, e: &mut Encoder) {
        e.put_bytes(self);
    }

    fn get(d: &mut Decoder<'_>, (): ()) -> Result<[u8; N], DecodeError> {
        d.get_slice()?.try_into().map_err(|_| DecodeError::BadValue)
    }
}

/// A little-endian `u64`.
impl Wire<'_> for u64 {
    const SIZE: usize = 8;

    fn put(&self, e: &mut Encoder) {
        e.put_u64(*self);
    }

    fn get(d: &mut Decoder<'_>, (): ()) -> Result<u64, DecodeError> {
        d.get_u64()
    }
}

/// A flag byte: `0` or `1`, any other byte [`DecodeError::BadValue`].
impl Wire<'_> for bool {
    const SIZE: usize = 1;

    fn put(&self, e: &mut Encoder) {
        e.put_u8(u8::from(*self));
    }

    fn get(d: &mut Decoder<'_>, (): ()) -> Result<bool, DecodeError> {
        let flag = [false, true].get(usize::from(d.get_u8()?));
        flag.copied().ok_or(DecodeError::BadValue)
    }
}

/// An optional value: a flag, then the value if the flag is set.
impl<'a, T: Wire<'a>> Wire<'a> for Option<T> {
    fn put(&self, e: &mut Encoder) {
        self.is_some().put(e);
        self.iter().for_each(|v| v.put(e));
    }

    fn get(d: &mut Decoder<'a>, (): ()) -> Result<Option<T>, DecodeError> {
        bool::get(d, ())?.then(|| T::get(d, ())).transpose()
    }
}

/// A list: a `u64` count, then each item.  Every item takes at least a
/// byte ([`Wire::SIZE`] bytes if its size is fixed), so the count is held
/// to the bytes left before the list is allocated.
impl<'a, T: Wire<'a>> Wire<'a> for Vec<T> {
    fn put(&self, e: &mut Encoder) {
        e.put_u64(self.len() as u64);
        for item in self {
            item.put(e);
        }
    }

    fn get(d: &mut Decoder<'a>, (): ()) -> Result<Vec<T>, DecodeError> {
        let n = d.get_u64()?;
        let n = d.count(n, T::SIZE)?;
        let mut items = Vec::with_capacity(n);
        for _ in 0..n {
            items.push(T::get(d, ())?);
        }
        Ok(items)
    }
}

const PRIME64_1: u64 = 0x9e37_79b1_85eb_ca87;
const PRIME64_2: u64 = 0xc2b2_ae3d_27d4_eb4f;
const PRIME64_3: u64 = 0x1656_67b1_9e37_79f9;
const PRIME64_4: u64 = 0x85eb_ca77_c2b2_ae63;
const PRIME64_5: u64 = 0x27d4_eb2f_1656_67c5;

fn read_u64(b: &[u8]) -> u64 {
    u64::from_le_bytes(b[..8].try_into().expect("8 bytes"))
}

fn xxh_round(acc: u64, lane: u64) -> u64 {
    acc.wrapping_add(lane.wrapping_mul(PRIME64_2))
        .rotate_left(31)
        .wrapping_mul(PRIME64_1)
}

fn xxh_merge(acc: u64, lane: u64) -> u64 {
    (acc ^ xxh_round(0, lane))
        .wrapping_mul(PRIME64_1)
        .wrapping_add(PRIME64_4)
}

/// XXH64 with seed 0: the frame checksum that detects torn or rotten
/// records.  Four independent 64-bit lanes consume 32-byte stripes, so
/// it runs at memory speed instead of one serial multiply per byte, and
/// any damage to a frame goes undetected with probability about 2⁻⁶⁴.
pub fn checksum(data: &[u8]) -> u64 {
    let mut stripes = data.chunks_exact(32);
    let mut h = if data.len() >= 32 {
        let mut v = [
            PRIME64_1.wrapping_add(PRIME64_2),
            PRIME64_2,
            0,
            PRIME64_1.wrapping_neg(),
        ];
        for stripe in &mut stripes {
            for (i, lane) in v.iter_mut().enumerate() {
                *lane = xxh_round(*lane, read_u64(&stripe[8 * i..]));
            }
        }
        let h = v[0]
            .rotate_left(1)
            .wrapping_add(v[1].rotate_left(7))
            .wrapping_add(v[2].rotate_left(12))
            .wrapping_add(v[3].rotate_left(18));
        v.iter().fold(h, |h, &lane| xxh_merge(h, lane))
    } else {
        PRIME64_5
    };
    h = h.wrapping_add(data.len() as u64);
    let mut tail = stripes.remainder();
    while tail.len() >= 8 {
        h = (h ^ xxh_round(0, read_u64(tail)))
            .rotate_left(27)
            .wrapping_mul(PRIME64_1)
            .wrapping_add(PRIME64_4);
        tail = &tail[8..];
    }
    if tail.len() >= 4 {
        let word = u32::from_le_bytes(tail[..4].try_into().expect("4 bytes"));
        h = (h ^ u64::from(word).wrapping_mul(PRIME64_1))
            .rotate_left(23)
            .wrapping_mul(PRIME64_2)
            .wrapping_add(PRIME64_3);
        tail = &tail[4..];
    }
    for &b in tail {
        h = (h ^ u64::from(b).wrapping_mul(PRIME64_5))
            .rotate_left(11)
            .wrapping_mul(PRIME64_1);
    }
    h ^= h >> 33;
    h = h.wrapping_mul(PRIME64_2);
    h ^= h >> 29;
    h = h.wrapping_mul(PRIME64_3);
    h ^ (h >> 32)
}

/// Wraps a payload in a checksummed frame: `len || payload || checksum`,
/// built in one allocation.
pub fn frame(payload: &[u8]) -> Vec<u8> {
    let mut e = Encoder::with_capacity(16 + payload.len());
    e.put_bytes(payload).put_u64(checksum(payload));
    e.finish()
}

/// Unwraps a frame produced by [`frame`], verifying its checksum.  Returns
/// the payload, lent from `data`, and the number of bytes consumed.
pub fn unframe(data: &[u8]) -> Result<(&[u8], usize), DecodeError> {
    let mut d = Decoder::new(data);
    let payload = d.get_slice()?;
    let sum = d.get_u64()?;
    if checksum(payload) != sum {
        return Err(DecodeError::BadChecksum);
    }
    Ok((payload, data.len() - d.remaining()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitive_round_trip() {
        let mut e = Encoder::new();
        e.put_u8(7)
            .put_u32(0xdead_beef)
            .put_u64(u64::MAX)
            .put_str("hello");
        let bytes = e.finish();
        let mut d = Decoder::new(&bytes);
        assert_eq!(d.get_u8().unwrap(), 7);
        assert_eq!(d.get_u32().unwrap(), 0xdead_beef);
        assert_eq!(d.get_u64().unwrap(), u64::MAX);
        assert_eq!(d.get_str_slice().unwrap(), "hello");
        assert_eq!(d.remaining(), 0);
    }

    #[test]
    fn decode_errors() {
        let mut d = Decoder::new(&[1, 2]);
        assert_eq!(d.get_u32(), Err(DecodeError::UnexpectedEnd));
        // A length prefix longer than the buffer is rejected.
        let mut e = Encoder::new();
        e.put_u64(1_000_000);
        let bytes = e.finish();
        let mut d = Decoder::new(&bytes);
        assert_eq!(d.get_bytes(), Err(DecodeError::BadLength));
    }

    #[test]
    fn a_wire_value_is_all_of_its_input() {
        let bytes = b"abc".as_slice().encode();
        assert_eq!(<&[u8]>::decode(&bytes), Ok(&b"abc"[..]));
        let mut longer = bytes.clone();
        longer.push(0);
        assert_eq!(<&[u8]>::decode(&longer), Err(DecodeError::Trailing));
        assert_eq!(<&[u8]>::decode(&bytes[..10]), Err(DecodeError::BadLength));
        let mut d = Decoder::new(&longer);
        assert_eq!(d.get_raw(u64::MAX), Err(DecodeError::BadLength));
        assert_eq!(d.get_raw(2), Ok(&bytes[..2]));
        assert_eq!(d.rest(), &longer[2..]);
        assert_eq!((d.remaining(), d.finish()), (0, Ok(())));
    }

    /// XXH64 (seed 0) of `0, 1, …, n - 1` for `n` in `0..=40`: every
    /// path through the tail (stripes, 8-byte words, a 4-byte word,
    /// single bytes).  Computed with the reference libxxhash 0.8.1.
    const XXH64_PREFIXES: [u64; 41] = [
        0xef46db3751d8e999,
        0xe934a84adb052768,
        0x4865a00ba85b7cd6,
        0xe5c7bb4533bc65dd,
        0xffced8604453cc1e,
        0xdd0274386e26030c,
        0x438e2507bf950423,
        0x14cc643f630c72d2,
        0x884a173614b81b8d,
        0x67d85784a7c78c5b,
        0xf76d60ec32541987,
        0x652a564a95365aca,
        0x424af23f1f08dca5,
        0x13d17c4c779723a8,
        0x5cda8b69bbfc1d45,
        0xa948f5f0f6abac2d,
        0x44b6ef2fb84169f7,
        0x5603e60c527599b6,
        0x50297af5a62c6c94,
        0xf74e4b128deb27ae,
        0xa3e3fbe96798d8ac,
        0x742b5135879d8608,
        0xe85325844a45e58b,
        0x9261c231bda56181,
        0xdd14a0292632be9b,
        0x73f9acb5acbae666,
        0xc2bf3773323881b0,
        0xac2d59a1653fcb2b,
        0x1424bb04e9f164ff,
        0x91b302cb6ee942e4,
        0x76e444d8a036c867,
        0xc346d2b59b4d8ee1,
        0xcbf59c5116ff32b4,
        0x0c535d1acafb8ead,
        0xfcd5494424f0c640,
        0xf8c4b2dacbdcba83,
        0xdde0ef85e3aef05c,
        0xd93fa2dfee5c24c9,
        0x68367a0ec49135ca,
        0x00a396ef1679a859,
        0xf5da40f1b11741e9,
    ];

    fn counting(n: usize) -> Vec<u8> {
        (0..n).map(|i| i as u8).collect()
    }

    #[test]
    fn checksum_is_xxh64() {
        assert_eq!(checksum(b""), 0xef46db3751d8e999);
        assert_eq!(checksum(b"abc"), 0x44bc2cf5ad770999);
        assert_eq!(checksum(&[0u8]), 0xe934a84adb052768);
        assert_eq!(checksum(&counting(4096)), 0x0f6e64be186af6a4);
        for (n, &want) in XXH64_PREFIXES.iter().enumerate() {
            assert_eq!(checksum(&counting(n)), want, "length {n}");
        }
    }

    fn refused(framed: &[u8]) -> bool {
        matches!(
            unframe(framed),
            Err(DecodeError::BadChecksum | DecodeError::BadLength | DecodeError::UnexpectedEnd)
        )
    }

    #[test]
    fn frame_round_trip_and_corruption_detection() {
        let payload: Vec<u8> = (0..200u32).map(|i| (i * 37 + 11) as u8).collect();
        let framed = frame(&payload);
        let (out, consumed) = unframe(&framed).unwrap();
        assert_eq!(out, payload);
        assert_eq!(consumed, framed.len());
        assert_eq!(framed.len(), 16 + payload.len());

        // Every single-bit flip — length prefix, payload or checksum.
        let mut rotten = framed;
        for bit in 0..rotten.len() * 8 {
            rotten[bit / 8] ^= 1 << (bit % 8);
            assert!(refused(&rotten), "bit {bit} flipped went undetected");
            rotten[bit / 8] ^= 1 << (bit % 8);
        }
    }

    /// The xorshift64* generator of the kernel's seeded property suites.
    struct Rng(u64);

    impl Rng {
        fn below(&mut self, bound: u64) -> u64 {
            let mut x = self.0;
            x ^= x >> 12;
            x ^= x << 25;
            x ^= x >> 27;
            self.0 = x;
            ((x.wrapping_mul(0x2545_F491_4F6C_DD1D) as u128 * bound as u128) >> 64) as u64
        }
    }

    #[test]
    fn every_two_bit_flip_in_a_window_is_detected() {
        let mut rng = Rng(0x5eed_c0de);
        let payload: Vec<u8> = (0..4096).map(|_| rng.below(256) as u8).collect();
        let mut rotten = frame(&payload);
        // The first window straddles the length prefix and the payload,
        // the last the payload and the checksum.
        let mut windows = vec![0, rotten.len() - 32];
        windows.extend((0..2).map(|_| rng.below(rotten.len() as u64 - 32) as usize));
        for start in windows {
            for a in start * 8..(start + 32) * 8 {
                rotten[a / 8] ^= 1 << (a % 8);
                for b in a + 1..(start + 32) * 8 {
                    rotten[b / 8] ^= 1 << (b % 8);
                    assert!(refused(&rotten), "bits {a} and {b} flipped went undetected");
                    rotten[b / 8] ^= 1 << (b % 8);
                }
                rotten[a / 8] ^= 1 << (a % 8);
            }
        }
    }

    #[test]
    fn checksum_is_stable_and_sensitive() {
        assert_eq!(checksum(b"abc"), checksum(b"abc"));
        assert_ne!(checksum(b"abc"), checksum(b"abd"));
        assert_ne!(checksum(b""), checksum(b"\0"));
    }

    #[test]
    fn bad_utf8_is_reported() {
        let mut e = Encoder::new();
        e.put_bytes(&[0xff, 0xfe]);
        let bytes = e.finish();
        let mut d = Decoder::new(&bytes);
        assert_eq!(d.get_str_slice(), Err(DecodeError::BadUtf8));
    }
}
