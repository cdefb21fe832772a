//! The package wire format: a small, explicit binary codec.
//!
//! HHVM's profile serializer is bespoke (acknowledgments credit its
//! initial implementation); this reproduction's codec is likewise
//! hand-rolled: little-endian integers, length-prefixed sequences, and an
//! envelope (magic, version, payload length, trailing CRC-32). The
//! package and manifest writers are the only description of the layout:
//! a record's length is wherever its writer stopped ([`Writer::len`]),
//! never a size computed beside it.
//! Every decode path returns a typed [`WireError`] — a corrupted package
//! must never panic a consumer (§VI-A.3 falls back instead).

use std::fmt;

use bytes::Bytes;

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

/// Write cursor: appends little-endian fields to one growing buffer.
#[derive(Debug, Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// Creates an empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a writer with `cap` bytes reserved up front.
    pub fn with_capacity(cap: usize) -> Self {
        Self {
            buf: Vec::with_capacity(cap),
        }
    }

    /// Bytes written so far: the end offset of the last field. Read after
    /// each record, these are the boundaries [`crate::chunk`] cuts at.
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
        self.buf.extend_from_slice(v);
    }

    /// Appends a `u8`.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a `u32` (LE).
    pub fn u32(&mut self, v: u32) {
        self.raw(&v.to_le_bytes());
    }

    /// Appends a `u64` (LE).
    pub fn u64(&mut self, v: u64) {
        self.raw(&v.to_le_bytes());
    }

    /// Appends a sequence length (for the caller to follow with items).
    pub fn seq(&mut self, len: usize) {
        self.u32(len as u32);
    }

    /// Finishes, returning the raw payload (no envelope). Growth can
    /// leave up to half the buffer unused, and a package outlives its
    /// writer in every store, so the slack is handed back first.
    pub fn finish(mut self) -> Bytes {
        self.buf.shrink_to_fit();
        Bytes::from(self.buf)
    }
}

/// Read cursor over a borrowed payload.
#[derive(Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
}

/// Cap on decoded sequence lengths; anything bigger is corruption, not a
/// real package (prevents attacker-controlled allocations).
const MAX_SEQ: u32 = 64 << 20;

impl<'a> Reader<'a> {
    /// Creates a reader over a payload.
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf }
    }

    fn need(&self, n: usize) -> Result<(), WireError> {
        if self.buf.len() < n {
            Err(WireError::Truncated {
                needed: n,
                left: self.buf.len(),
            })
        } else {
            Ok(())
        }
    }

    /// Consumes the next `N` bytes.
    fn take<const N: usize>(&mut self) -> Result<[u8; N], WireError> {
        self.need(N)?;
        let (head, tail) = self
            .buf
            .split_first_chunk()
            .expect("need checked the length");
        self.buf = tail;
        Ok(*head)
    }

    /// Reads a `u8`.
    pub fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take::<1>()?[0])
    }

    /// Reads a `u32`.
    pub fn u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(self.take()?))
    }

    /// Reads a `u64`.
    pub fn u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(self.take()?))
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
        self.buf.len()
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

/// Starts a sealed envelope in `w`: magic, version and a zero length
/// placeholder. The caller writes the payload straight after it and
/// calls [`finish_sealed`], which fills the length in — so a payload is
/// written exactly once and nothing needs its size up front.
pub fn begin_sealed(w: &mut Writer) {
    w.raw(MAGIC);
    w.u32(VERSION);
    w.u32(0);
}

/// Patches the payload length into the header [`begin_sealed`] wrote,
/// appends the CRC-32 of the payload and freezes. The writer must hold
/// exactly a header plus payload.
pub fn finish_sealed(mut w: Writer) -> Bytes {
    let payload_len = (w.len() - HEADER_LEN) as u32;
    w.buf[HEADER_LEN - 4..HEADER_LEN].copy_from_slice(&payload_len.to_le_bytes());
    let crc = crate::crc32::crc32(&w.as_slice()[HEADER_LEN..]);
    w.u32(crc);
    w.finish()
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

#[cfg(test)]
mod tests {
    use super::*;

    /// Seals `payload` the way every writer does: header first, payload
    /// bytes, then the patched length and CRC.
    fn sealed(payload: &[u8]) -> Bytes {
        let mut w = Writer::new();
        begin_sealed(&mut w);
        w.raw(payload);
        finish_sealed(w)
    }

    #[test]
    fn primitives_round_trip() {
        let mut w = Writer::new();
        w.u8(7);
        w.u32(0xdead_beef);
        w.u64(u64::MAX);
        w.seq(3);
        let payload = w.finish();
        let mut r = Reader::new(&payload);
        assert_eq!(r.u8().unwrap(), 7);
        assert_eq!(r.u32().unwrap(), 0xdead_beef);
        assert_eq!(r.u64().unwrap(), u64::MAX);
        assert_eq!(r.seq().unwrap(), 3);
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn truncation_is_detected() {
        let mut r = Reader::new(&[1, 2]);
        assert!(matches!(r.u32(), Err(WireError::Truncated { .. })));
        // A failed read consumes nothing.
        assert_eq!(r.remaining(), 2);
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
        // Empty, one byte, and past 64 KiB (a length that needs the
        // placeholder's upper bytes); none declares its length up front.
        for len in [0, 1, 70_000] {
            let payload: Vec<u8> = (0..len).map(|i| (i * 7 % 251) as u8).collect();
            let sealed = sealed(&payload);
            assert_eq!(sealed.len(), payload.len() + ENVELOPE_LEN);
            assert_eq!(&sealed[..8], MAGIC);
            assert_eq!(sealed[12..16], (len as u32).to_le_bytes());
            assert_eq!(unseal(&sealed).unwrap(), &payload[..]);
        }
    }

    #[test]
    fn other_version_envelopes_are_rejected() {
        let sealed = sealed(b"payload");
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
        let sealed = sealed(&12345u64.to_le_bytes());

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
