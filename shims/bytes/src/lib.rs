//! Offline drop-in subset of the `bytes` crate: only [`Bytes`], a
//! cheap-to-clone shared buffer with zero-copy [`Bytes::slice`] — the
//! surface the package codec, chunk store and package store use.

use std::ops::{Bound, Deref, RangeBounds};
use std::sync::Arc;

/// Immutable, cheaply clonable byte buffer: a shared `Arc` backing store
/// plus an offset/length view, so [`Bytes::slice`] never copies.
#[derive(Clone, Default)]
pub struct Bytes {
    data: Arc<Vec<u8>>,
    off: usize,
    len: usize,
}

impl Bytes {
    /// Number of bytes in this view.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the view is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Returns a sub-view sharing the same backing allocation — no copy.
    ///
    /// # Panics
    ///
    /// Panics when the range is out of bounds or inverted, like upstream.
    pub fn slice(&self, range: impl RangeBounds<usize>) -> Bytes {
        let start = match range.start_bound() {
            Bound::Included(&n) => n,
            Bound::Excluded(&n) => n + 1,
            Bound::Unbounded => 0,
        };
        let end = match range.end_bound() {
            Bound::Included(&n) => n + 1,
            Bound::Excluded(&n) => n,
            Bound::Unbounded => self.len,
        };
        assert!(
            start <= end && end <= self.len,
            "Bytes::slice out of bounds: {start}..{end} of {}",
            self.len
        );
        Bytes {
            data: Arc::clone(&self.data),
            off: self.off + start,
            len: end - start,
        }
    }

    fn as_slice(&self) -> &[u8] {
        &self.data[self.off..self.off + self.len]
    }
}

impl From<Vec<u8>> for Bytes {
    fn from(v: Vec<u8>) -> Bytes {
        let len = v.len();
        Bytes {
            data: Arc::new(v),
            off: 0,
            len,
        }
    }
}

impl From<&[u8]> for Bytes {
    fn from(v: &[u8]) -> Bytes {
        Bytes::from(v.to_vec())
    }
}

impl Deref for Bytes {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl PartialEq for Bytes {
    fn eq(&self, other: &Bytes) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for Bytes {}

impl std::hash::Hash for Bytes {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.as_slice().hash(state);
    }
}

impl std::fmt::Debug for Bytes {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "b\"")?;
        for &b in self.as_slice().iter().take(32) {
            write!(f, "\\x{b:02x}")?;
        }
        if self.len > 32 {
            write!(f, "…+{}", self.len - 32)?;
        }
        write!(f, "\"")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bytes_clone_is_shallow_and_equal() {
        let a = Bytes::from(vec![1, 2, 3]);
        let b = a.clone();
        assert_eq!(a, b);
        assert_eq!(&a[..], &[1, 2, 3]);
        assert_eq!(a.len(), 3);
        assert_eq!(Bytes::from(&b"hi"[..]).to_vec(), vec![b'h', b'i']);
    }

    #[test]
    fn slice_shares_backing_allocation() {
        let a = Bytes::from(vec![0, 1, 2, 3, 4, 5, 6, 7]);
        let mid = a.slice(2..6);
        assert_eq!(&mid[..], &[2, 3, 4, 5]);
        // Zero-copy: the sub-view points into the parent's allocation.
        assert_eq!(mid.as_ref().as_ptr(), a.as_ref()[2..].as_ptr());
        // Nested slices compose offsets.
        let inner = mid.slice(1..=2);
        assert_eq!(&inner[..], &[3, 4]);
        assert_eq!(inner.as_ref().as_ptr(), a.as_ref()[3..].as_ptr());
        // Open-ended and empty ranges.
        assert_eq!(&a.slice(..3)[..], &[0, 1, 2]);
        assert_eq!(&a.slice(6..)[..], &[6, 7]);
        assert!(a.slice(4..4).is_empty());
        // Equality/hashing respect the view, not the backing store.
        assert_eq!(mid, Bytes::from(vec![2, 3, 4, 5]));
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn slice_out_of_bounds_panics() {
        let a = Bytes::from(vec![1, 2, 3]);
        let _ = a.slice(1..5);
    }
}
