//! The package wire format: a small, explicit binary codec.
//!
//! HHVM's profile serializer is bespoke (acknowledgments credit its
//! initial implementation); this reproduction's codec is likewise
//! hand-rolled on top of [`bytes`]: little-endian primitives,
//! length-prefixed sequences, and a trailing CRC-32 over the payload.
//! Every decode path returns a typed [`WireError`] — a corrupted package
//! must never panic a consumer (§VI-A.3 falls back instead).

use std::fmt;

use bytes::{Buf, BufMut, Bytes, BytesMut};

/// Decoding failures.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WireError {
    /// Fewer bytes than a field required.
    Truncated { needed: usize, left: usize },
    /// The magic prefix did not match.
    BadMagic,
    /// Unsupported format version.
    BadVersion { found: u32, supported: u32 },
    /// Payload checksum mismatch (corruption in transit/storage).
    BadChecksum { expected: u32, found: u32 },
    /// Structurally invalid content (bad tag, oversized length, ...).
    Corrupt(String),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated { needed, left } => {
                write!(f, "truncated package: needed {needed} bytes, {left} left")
            }
            WireError::BadMagic => write!(f, "not a jump-start package (bad magic)"),
            WireError::BadVersion { found, supported } => {
                write!(
                    f,
                    "unsupported package version {found} (supported: {supported})"
                )
            }
            WireError::BadChecksum { expected, found } => {
                write!(
                    f,
                    "checksum mismatch: expected {expected:#010x}, found {found:#010x}"
                )
            }
            WireError::Corrupt(msg) => write!(f, "corrupt package: {msg}"),
        }
    }
}

impl std::error::Error for WireError {}

/// Write cursor.
#[derive(Debug, Default)]
pub struct Writer {
    buf: BytesMut,
}

impl Writer {
    /// Creates an empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a writer with `cap` bytes reserved up front. A caller that
    /// knows its exact encoded size (see `ProfilePackage::encoded_len`)
    /// never triggers a buffer reallocation while writing.
    pub fn with_capacity(cap: usize) -> Self {
        Self {
            buf: BytesMut::with_capacity(cap),
        }
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// The bytes written so far (for checksumming sections in place).
    pub fn as_slice(&self) -> &[u8] {
        &self.buf
    }

    /// Appends raw bytes with no length prefix (envelope fields).
    pub fn raw(&mut self, v: &[u8]) {
        self.buf.put_slice(v);
    }

    /// Appends a `u8`.
    pub fn u8(&mut self, v: u8) {
        self.buf.put_u8(v);
    }

    /// Appends a `u32` (LE).
    pub fn u32(&mut self, v: u32) {
        self.buf.put_u32_le(v);
    }

    /// Appends a `u64` (LE).
    pub fn u64(&mut self, v: u64) {
        self.buf.put_u64_le(v);
    }

    /// Appends an `f64` (LE bits).
    pub fn f64(&mut self, v: f64) {
        self.buf.put_f64_le(v);
    }

    /// Appends a length-prefixed byte string.
    pub fn bytes(&mut self, v: &[u8]) {
        self.u32(v.len() as u32);
        self.buf.put_slice(v);
    }

    /// Appends a length-prefixed UTF-8 string.
    pub fn str(&mut self, v: &str) {
        self.bytes(v.as_bytes());
    }

    /// Appends a sequence length (for the caller to follow with items).
    pub fn seq(&mut self, len: usize) {
        self.u32(len as u32);
    }

    /// Finishes, returning the raw payload (no envelope).
    pub fn finish(self) -> Bytes {
        self.buf.freeze()
    }
}

/// Read cursor.
#[derive(Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
    /// Set when the reader was built over shared [`Bytes`]: byte-string
    /// fields can then be decoded as zero-copy slices of the backing
    /// allocation instead of fresh `Vec`s.
    shared: Option<&'a Bytes>,
}

/// Cap on decoded sequence lengths; anything bigger is corruption, not a
/// real package (prevents attacker-controlled allocations).
const MAX_SEQ: u32 = 64 << 20;

impl<'a> Reader<'a> {
    /// Creates a reader over a payload.
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, shared: None }
    }

    /// Creates a reader over shared bytes; [`Reader::bytes_shared`] then
    /// returns zero-copy sub-slices.
    pub fn new_shared(buf: &'a Bytes) -> Self {
        Self {
            buf,
            shared: Some(buf),
        }
    }

    fn need(&self, n: usize) -> Result<(), WireError> {
        if self.buf.remaining() < n {
            Err(WireError::Truncated {
                needed: n,
                left: self.buf.remaining(),
            })
        } else {
            Ok(())
        }
    }

    /// Reads a `u8`.
    pub fn u8(&mut self) -> Result<u8, WireError> {
        self.need(1)?;
        Ok(self.buf.get_u8())
    }

    /// Reads a `u32`.
    pub fn u32(&mut self) -> Result<u32, WireError> {
        self.need(4)?;
        Ok(self.buf.get_u32_le())
    }

    /// Reads a `u64`.
    pub fn u64(&mut self) -> Result<u64, WireError> {
        self.need(8)?;
        Ok(self.buf.get_u64_le())
    }

    /// Reads an `f64`.
    pub fn f64(&mut self) -> Result<f64, WireError> {
        self.need(8)?;
        Ok(self.buf.get_f64_le())
    }

    /// Reads a length-prefixed byte string.
    pub fn bytes(&mut self) -> Result<Vec<u8>, WireError> {
        Ok(self.bytes_ref()?.to_vec())
    }

    /// Reads a length-prefixed byte string as a borrowed slice of the
    /// input buffer — no allocation. Decode paths that only *validate*
    /// (checksum a section, compare against a manifest entry) should use
    /// this instead of [`Reader::bytes`], which copies into a `Vec`.
    pub fn bytes_ref(&mut self) -> Result<&'a [u8], WireError> {
        let len = self.u32()?;
        if len > MAX_SEQ {
            return Err(WireError::Corrupt(format!("byte string of {len} bytes")));
        }
        self.need(len as usize)?;
        let buf: &'a [u8] = self.buf;
        let (head, tail) = buf.split_at(len as usize);
        self.buf = tail;
        Ok(head)
    }

    /// Reads a length-prefixed byte string as a zero-copy slice of the
    /// shared backing buffer. Falls back to a copy when the reader was
    /// built with [`Reader::new`] over a plain slice.
    pub fn bytes_shared(&mut self) -> Result<Bytes, WireError> {
        let Some(origin) = self.shared else {
            return Ok(Bytes::from(self.bytes()?));
        };
        let len = self.u32()?;
        if len > MAX_SEQ {
            return Err(WireError::Corrupt(format!("byte string of {len} bytes")));
        }
        self.need(len as usize)?;
        let pos = origin.len() - self.buf.remaining();
        let out = origin.slice(pos..pos + len as usize);
        let (_, tail) = self.buf.split_at(len as usize);
        self.buf = tail;
        Ok(out)
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<String, WireError> {
        String::from_utf8(self.bytes()?).map_err(|_| WireError::Corrupt("invalid utf-8".into()))
    }

    /// Reads a sequence length.
    pub fn seq(&mut self) -> Result<usize, WireError> {
        let len = self.u32()?;
        if len > MAX_SEQ {
            return Err(WireError::Corrupt(format!("sequence of {len} items")));
        }
        Ok(len as usize)
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.remaining()
    }
}

/// Magic prefix of every package.
pub const MAGIC: &[u8; 8] = b"HHJSPKG\0";

/// The one format version: a package is readable iff its envelope says
/// exactly this.
///
/// v5 added the per-function stale-matching signatures (`name_hash` and
/// the opcode / neighbor / anchor block-hash arrays). v6 added the chunk
/// manifest codec ([`crate::chunk`]) and made function records id-free:
/// each record's identity moved into a head-resident `(FuncId,
/// name-hash)` directory and call targets are referenced by callee name
/// hash, so an unchanged profile encodes to byte-identical chunks even
/// across releases that renumber every `FuncId`. The v5 read path was
/// retired once nothing in the tree produced v5. v7 dropped the neighbor
/// and anchor arrays from the function record (the match rungs they fed
/// never paired a block), leaving counts, exact hashes and opcode hashes.
/// v8 dropped the tail's two tier-wide property tables (per-(class,
/// property) access counts and per-request co-access pairs): property
/// hotness is derived from the per-site records the function records
/// already carry. A consumer handed an older envelope gets
/// [`WireError::BadVersion`] and falls back (§VI-A.3).
pub const VERSION: u32 = 8;

/// Envelope bytes before the payload: magic, version, payload length.
pub const HEADER_LEN: usize = 16;

/// Total envelope overhead: [`HEADER_LEN`] plus the trailing CRC-32.
pub const ENVELOPE_LEN: usize = HEADER_LEN + 4;

/// Writes the envelope header into `w`; the caller appends exactly
/// `payload_len` payload bytes and then calls [`finish_sealed`]. Writing
/// the envelope inline (instead of sealing a finished payload buffer)
/// avoids copying the whole payload a second time.
pub fn begin_sealed(w: &mut Writer, payload_len: usize) {
    w.raw(MAGIC);
    w.u32(VERSION);
    w.u32(payload_len as u32);
}

/// Appends the CRC-32 of everything after the header and freezes. The
/// writer must hold exactly a header plus payload.
pub fn finish_sealed(mut w: Writer) -> Bytes {
    let crc = crate::crc32::crc32(&w.as_slice()[HEADER_LEN..]);
    w.u32(crc);
    w.finish()
}

/// Wraps a payload in the envelope: magic, version, length, payload, CRC.
/// (Copies the payload once; writers that know their encoded length use
/// [`begin_sealed`]/[`finish_sealed`] instead.)
pub fn seal(payload: Bytes) -> Bytes {
    let mut out = Writer::with_capacity(payload.len() + ENVELOPE_LEN);
    begin_sealed(&mut out, payload.len());
    out.raw(&payload);
    finish_sealed(out)
}

/// Unwraps the envelope, verifying magic, version, length and checksum.
///
/// # Errors
///
/// Returns a [`WireError`] describing the first problem found.
pub fn unseal(data: &[u8]) -> Result<&[u8], WireError> {
    let truncated = |needed| WireError::Truncated {
        needed,
        left: data.len(),
    };
    let Some((header, body)) = data
        .split_first_chunk::<HEADER_LEN>()
        .filter(|(_, body)| body.len() >= 4)
    else {
        return Err(truncated(ENVELOPE_LEN));
    };
    let [magic @ .., v0, v1, v2, v3, l0, l1, l2, l3] = *header;
    if magic != *MAGIC {
        return Err(WireError::BadMagic);
    }
    let version = u32::from_le_bytes([v0, v1, v2, v3]);
    if version != VERSION {
        return Err(WireError::BadVersion {
            found: version,
            supported: VERSION,
        });
    }
    let len = u32::from_le_bytes([l0, l1, l2, l3]) as usize;
    let Some((payload, Some(&stored))) = body
        .split_at_checked(len)
        .map(|(payload, rest)| (payload, rest.first_chunk::<4>()))
    else {
        return Err(truncated(ENVELOPE_LEN + len));
    };
    let stored = u32::from_le_bytes(stored);
    let actual = crate::crc32::crc32(payload);
    if stored != actual {
        return Err(WireError::BadChecksum {
            expected: stored,
            found: actual,
        });
    }
    Ok(payload)
}

/// Like [`unseal`], but over shared bytes: the returned payload is a
/// zero-copy slice of `data`'s backing allocation.
///
/// # Errors
///
/// Returns a [`WireError`] describing the first problem found.
pub fn unseal_shared(data: &Bytes) -> Result<Bytes, WireError> {
    let payload = unseal(data)?;
    let len = payload.len();
    Ok(data.slice(HEADER_LEN..HEADER_LEN + len))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_round_trip() {
        let mut w = Writer::new();
        w.u8(7);
        w.u32(0xdead_beef);
        w.u64(u64::MAX);
        w.f64(0.25);
        w.str("héllo");
        w.seq(3);
        let payload = w.finish();
        let mut r = Reader::new(&payload);
        assert_eq!(r.u8().unwrap(), 7);
        assert_eq!(r.u32().unwrap(), 0xdead_beef);
        assert_eq!(r.u64().unwrap(), u64::MAX);
        assert_eq!(r.f64().unwrap(), 0.25);
        assert_eq!(r.str().unwrap(), "héllo");
        assert_eq!(r.seq().unwrap(), 3);
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn truncation_is_detected() {
        let mut r = Reader::new(&[1, 2]);
        assert!(matches!(r.u32(), Err(WireError::Truncated { .. })));
    }

    #[test]
    fn oversized_sequences_are_corrupt() {
        let mut w = Writer::new();
        w.u32(u32::MAX);
        let payload = w.finish();
        let mut r = Reader::new(&payload);
        assert!(matches!(r.seq(), Err(WireError::Corrupt(_))));
    }

    #[test]
    fn envelope_round_trips() {
        let mut w = Writer::new();
        w.str("payload");
        let sealed = seal(w.finish());
        let payload = unseal(&sealed).unwrap();
        let mut r = Reader::new(payload);
        assert_eq!(r.str().unwrap(), "payload");
    }

    #[test]
    fn inline_envelope_matches_seal_and_never_reallocates() {
        let mut plain = Writer::new();
        plain.str("payload");
        plain.u64(77);
        let payload = plain.finish();
        let sealed = seal(payload.clone());

        let mut inline = Writer::with_capacity(payload.len() + ENVELOPE_LEN);
        begin_sealed(&mut inline, payload.len());
        inline.str("payload");
        inline.u64(77);
        assert_eq!(inline.len(), HEADER_LEN + payload.len());
        let inlined = finish_sealed(inline);
        assert_eq!(sealed, inlined, "inline envelope is byte-identical");
    }

    #[test]
    fn unseal_shared_is_zero_copy() {
        let mut w = Writer::new();
        w.bytes(b"0123456789");
        let sealed = seal(w.finish());
        let payload = unseal_shared(&sealed).unwrap();
        // The payload view aliases the sealed buffer — no copy.
        assert_eq!(
            payload.as_ref().as_ptr(),
            sealed.as_ref()[HEADER_LEN..].as_ptr()
        );
        let mut r = Reader::new_shared(&payload);
        let table = r.bytes_shared().unwrap();
        assert_eq!(&table[..], b"0123456789");
        // ... and the decoded byte table aliases it too.
        assert_eq!(table.as_ref().as_ptr(), payload.as_ref()[4..].as_ptr());
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn bytes_shared_falls_back_to_copy_on_plain_readers() {
        let mut w = Writer::new();
        w.bytes(b"abc");
        w.u8(9);
        let payload = w.finish();
        let mut r = Reader::new(&payload);
        assert_eq!(&r.bytes_shared().unwrap()[..], b"abc");
        assert_eq!(r.u8().unwrap(), 9);
    }

    #[test]
    fn bytes_ref_borrows_without_copying() {
        let mut w = Writer::new();
        w.bytes(b"zero-copy");
        w.u8(5);
        let payload = w.finish();
        let mut r = Reader::new(&payload);
        let slice = r.bytes_ref().unwrap();
        assert_eq!(slice, b"zero-copy");
        // The slice aliases the payload buffer — no allocation happened.
        assert_eq!(slice.as_ptr(), payload[4..].as_ptr());
        assert_eq!(r.u8().unwrap(), 5);
        assert_eq!(r.remaining(), 0);

        let mut truncated = Reader::new(&payload[..7]);
        assert!(matches!(
            truncated.bytes_ref(),
            Err(WireError::Truncated { .. })
        ));
    }

    #[test]
    fn other_version_envelopes_are_rejected() {
        let mut w = Writer::new();
        w.str("payload");
        let sealed = seal(w.finish());
        // The crc covers only the payload, so rewriting the version field
        // yields an otherwise well-formed envelope of another version.
        for found in [VERSION - 2, VERSION - 1, VERSION + 1] {
            let mut other = sealed.to_vec();
            other[8..12].copy_from_slice(&found.to_le_bytes());
            assert_eq!(
                unseal(&other),
                Err(WireError::BadVersion {
                    found,
                    supported: VERSION
                })
            );
        }
    }

    #[test]
    fn envelope_rejects_corruption() {
        let mut w = Writer::new();
        w.u64(12345);
        let sealed = seal(w.finish());

        let mut bad_magic = sealed.to_vec();
        bad_magic[0] ^= 0xff;
        assert_eq!(unseal(&bad_magic), Err(WireError::BadMagic));

        let mut bad_version = sealed.to_vec();
        bad_version[8] = 99;
        assert!(matches!(
            unseal(&bad_version),
            Err(WireError::BadVersion { found: 99, .. })
        ));

        let mut bad_payload = sealed.to_vec();
        bad_payload[18] ^= 0x40;
        assert!(matches!(
            unseal(&bad_payload),
            Err(WireError::BadChecksum { .. })
        ));

        assert!(matches!(
            unseal(&sealed[..10]),
            Err(WireError::Truncated { .. })
        ));
    }
}
