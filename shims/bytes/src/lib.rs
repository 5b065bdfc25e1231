//! Offline stand-in for the `bytes` crate.
//!
//! Implements the subset of the published API this workspace uses: `Bytes`
//! (cheaply clonable, zero-copy `slice()` over a shared allocation, built
//! from a `Vec` without copying it),
//! `BytesMut` (append-only builder that freezes into `Bytes`), and the
//! `Buf`/`BufMut` cursor traits. The container image cannot reach a crates.io
//! mirror, so the workspace vendors this instead of the real dependency.

use std::any::Any;
use std::borrow::Borrow;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::{Bound, Deref, DerefMut, Range, RangeBounds};
use std::ptr::NonNull;
use std::sync::Arc;

/// Longest copy [`Bytes::copy_from_slice`] keeps in one fixed-size
/// allocation (owner and bytes together) rather than a `Vec` behind an `Arc`.
const SMALL: usize = 64;

/// The owner of a small copy: the bytes live inline in the `Arc`'s own
/// allocation.
struct Small([u8; SMALL]);

impl AsRef<[u8]> for Small {
    fn as_ref(&self) -> &[u8] {
        &self.0
    }
}

/// A cheaply clonable, immutable view into a shared byte allocation.
///
/// A view is a pointer, a length and a handle on whatever owns the memory
/// (none for static and empty views), 32 bytes in all. `clone()` and
/// [`Bytes::slice`] are O(1): both produce a new window over the same owner
/// without copying payload bytes. Building a `Bytes` from a `Vec` or a
/// `BytesMut` keeps the vector's buffer; the only allocation is the owner
/// handle.
#[derive(Clone)]
pub struct Bytes {
    ptr: NonNull<u8>,
    len: usize,
    /// Keeps the memory behind `ptr` alive; `None` for static memory.
    owner: Option<Arc<dyn Any + Send + Sync>>,
}

// SAFETY: a `Bytes` only reads through `ptr`, into memory that is static or
// owned by a `Send + Sync` owner it keeps alive.
unsafe impl Send for Bytes {}
unsafe impl Sync for Bytes {}

impl Default for Bytes {
    fn default() -> Bytes {
        Bytes::new()
    }
}

impl Bytes {
    /// An empty buffer; allocates nothing.
    pub const fn new() -> Bytes {
        Bytes {
            ptr: NonNull::dangling(),
            len: 0,
            owner: None,
        }
    }

    /// A view of a static slice; allocates nothing.
    pub fn from_static(data: &'static [u8]) -> Bytes {
        Bytes {
            ptr: NonNull::from(data).cast(),
            len: data.len(),
            owner: None,
        }
    }

    /// Copy `data` into new shared storage: one allocation up to 64 bytes,
    /// two (the vector and its owner handle) beyond.
    pub fn copy_from_slice(data: &[u8]) -> Bytes {
        if data.is_empty() {
            return Bytes::new();
        }
        if data.len() > SMALL {
            return Bytes::from(data.to_vec());
        }
        let mut small = Small([0; SMALL]);
        small.0[..data.len()].copy_from_slice(data);
        let owner = Arc::new(small);
        Bytes::from_shared(owner, 0..data.len())
    }

    /// Zero-copy view of `owner`'s bytes in `range`, keeping `owner` alive.
    ///
    /// Nothing can write to the bytes while the view exists: the view holds
    /// a handle on the `Arc`, so no one can take `&mut T` through it.
    /// Panics if `range` exceeds the owner's bytes.
    pub fn from_shared<T>(owner: Arc<T>, range: Range<usize>) -> Bytes
    where
        T: AsRef<[u8]> + Send + Sync + 'static,
    {
        let bytes = (*owner).as_ref();
        assert!(
            range.start <= range.end && range.end <= bytes.len(),
            "range {range:?} exceeds an owner of {} bytes",
            bytes.len()
        );
        let window = &bytes[range];
        Bytes {
            ptr: NonNull::from(window).cast(),
            len: window.len(),
            owner: Some(owner),
        }
    }

    /// Zero-copy view over memory owned by `owner`.
    ///
    /// This is the hook external refcounted allocators use to hand out
    /// `Bytes`-typed windows without copying into a fresh slab: the view holds
    /// a strong reference to `owner`, so the memory outlives every view.
    ///
    /// # Safety
    ///
    /// `ptr` must be non-null and valid for reads of `len` bytes for as long
    /// as `owner` is alive. If the owner permits concurrent writers to the
    /// range, the caller takes responsibility for that data race being benign
    /// (readers may observe torn bytes but never touch unowned memory).
    pub unsafe fn from_raw_owner(
        ptr: *const u8,
        len: usize,
        owner: Arc<dyn Any + Send + Sync>,
    ) -> Bytes {
        Bytes {
            ptr: NonNull::new(ptr as *mut u8).expect("a view of null"),
            len,
            owner: Some(owner),
        }
    }

    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// O(1) sub-view sharing the same storage.
    ///
    /// Panics if the range is out of bounds, matching the published crate.
    pub fn slice(&self, range: impl RangeBounds<usize>) -> Bytes {
        let len = self.len();
        let begin = match range.start_bound() {
            Bound::Included(&n) => n,
            Bound::Excluded(&n) => n + 1,
            Bound::Unbounded => 0,
        };
        let end = match range.end_bound() {
            Bound::Included(&n) => n + 1,
            Bound::Excluded(&n) => n,
            Bound::Unbounded => len,
        };
        assert!(
            begin <= end,
            "slice index starts at {begin} but ends at {end}"
        );
        assert!(end <= len, "range end out of bounds: {end} > {len}");
        Bytes {
            ptr: NonNull::from(&self.as_slice()[begin..end]).cast(),
            len: end - begin,
            owner: self.owner.clone(),
        }
    }

    pub fn as_slice(&self) -> &[u8] {
        // SAFETY: every constructor makes `ptr` valid for `len` bytes for as
        // long as `owner` lives (static memory, a dangling pointer for an
        // empty view), and `owner` lives at least as long as `self`.
        unsafe { std::slice::from_raw_parts(self.ptr.as_ptr(), self.len) }
    }

    pub fn to_vec(&self) -> Vec<u8> {
        self.as_slice().to_vec()
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

impl Borrow<[u8]> for Bytes {
    fn borrow(&self) -> &[u8] {
        self.as_slice()
    }
}

/// Keeps the vector's buffer: the one allocation is the owner handle, none
/// for an empty vector.
impl From<Vec<u8>> for Bytes {
    fn from(v: Vec<u8>) -> Bytes {
        if v.is_empty() {
            return Bytes::new();
        }
        let len = v.len();
        Bytes::from_shared(Arc::new(v), 0..len)
    }
}

impl From<&'static [u8]> for Bytes {
    fn from(v: &'static [u8]) -> Bytes {
        Bytes::from_static(v)
    }
}

impl<const N: usize> From<&'static [u8; N]> for Bytes {
    fn from(v: &'static [u8; N]) -> Bytes {
        Bytes::from_static(v)
    }
}

impl From<String> for Bytes {
    fn from(v: String) -> Bytes {
        Bytes::from(v.into_bytes())
    }
}

impl From<BytesMut> for Bytes {
    fn from(v: BytesMut) -> Bytes {
        v.freeze()
    }
}

impl PartialEq for Bytes {
    fn eq(&self, other: &Bytes) -> bool {
        self.as_slice() == other.as_slice()
    }
}
impl Eq for Bytes {}

impl PartialEq<[u8]> for Bytes {
    fn eq(&self, other: &[u8]) -> bool {
        self.as_slice() == other
    }
}
impl PartialEq<&[u8]> for Bytes {
    fn eq(&self, other: &&[u8]) -> bool {
        self.as_slice() == *other
    }
}
impl PartialEq<Vec<u8>> for Bytes {
    fn eq(&self, other: &Vec<u8>) -> bool {
        self.as_slice() == other.as_slice()
    }
}
impl PartialEq<Bytes> for Vec<u8> {
    fn eq(&self, other: &Bytes) -> bool {
        self.as_slice() == other.as_slice()
    }
}
impl PartialEq<Bytes> for [u8] {
    fn eq(&self, other: &Bytes) -> bool {
        self == other.as_slice()
    }
}

impl Hash for Bytes {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.as_slice().hash(state)
    }
}

impl PartialOrd for Bytes {
    fn partial_cmp(&self, other: &Bytes) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Bytes {
    fn cmp(&self, other: &Bytes) -> std::cmp::Ordering {
        self.as_slice().cmp(other.as_slice())
    }
}

impl fmt::Debug for Bytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "b\"")?;
        for &b in self.as_slice() {
            for esc in std::ascii::escape_default(b) {
                write!(f, "{}", esc as char)?;
            }
        }
        write!(f, "\"")
    }
}

impl IntoIterator for Bytes {
    type Item = u8;
    type IntoIter = std::vec::IntoIter<u8>;
    fn into_iter(self) -> Self::IntoIter {
        self.to_vec().into_iter()
    }
}

impl<'a> IntoIterator for &'a Bytes {
    type Item = &'a u8;
    type IntoIter = std::slice::Iter<'a, u8>;
    fn into_iter(self) -> Self::IntoIter {
        self.as_slice().iter()
    }
}

/// A growable byte buffer; `freeze()` converts it into an immutable [`Bytes`]
/// without copying.
#[derive(Clone, Default, PartialEq, Eq)]
pub struct BytesMut {
    vec: Vec<u8>,
}

impl BytesMut {
    pub fn new() -> BytesMut {
        BytesMut { vec: Vec::new() }
    }

    pub fn with_capacity(cap: usize) -> BytesMut {
        BytesMut {
            vec: Vec::with_capacity(cap),
        }
    }

    pub fn len(&self) -> usize {
        self.vec.len()
    }

    pub fn is_empty(&self) -> bool {
        self.vec.is_empty()
    }

    pub fn extend_from_slice(&mut self, data: &[u8]) {
        self.vec.extend_from_slice(data)
    }

    pub fn reserve(&mut self, additional: usize) {
        self.vec.reserve(additional)
    }

    pub fn clear(&mut self) {
        self.vec.clear()
    }

    pub fn freeze(self) -> Bytes {
        Bytes::from(self.vec)
    }

    pub fn to_vec(&self) -> Vec<u8> {
        self.vec.clone()
    }
}

impl Deref for BytesMut {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.vec
    }
}

impl DerefMut for BytesMut {
    fn deref_mut(&mut self) -> &mut [u8] {
        &mut self.vec
    }
}

impl AsRef<[u8]> for BytesMut {
    fn as_ref(&self) -> &[u8] {
        &self.vec
    }
}

impl fmt::Debug for BytesMut {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&Bytes::copy_from_slice(&self.vec), f)
    }
}

impl From<Vec<u8>> for BytesMut {
    fn from(v: Vec<u8>) -> BytesMut {
        BytesMut { vec: v }
    }
}

/// Read cursor over a byte source (subset of the published trait).
pub trait Buf {
    fn remaining(&self) -> usize;
    fn chunk(&self) -> &[u8];
    fn advance(&mut self, cnt: usize);

    fn has_remaining(&self) -> bool {
        self.remaining() > 0
    }

    fn copy_to_slice(&mut self, dst: &mut [u8]) {
        assert!(self.remaining() >= dst.len(), "buffer underflow");
        let n = dst.len();
        dst.copy_from_slice(&self.chunk()[..n]);
        self.advance(n);
    }

    fn get_u8(&mut self) -> u8 {
        let mut b = [0u8; 1];
        self.copy_to_slice(&mut b);
        b[0]
    }

    fn get_u16_le(&mut self) -> u16 {
        let mut b = [0u8; 2];
        self.copy_to_slice(&mut b);
        u16::from_le_bytes(b)
    }

    fn get_u32_le(&mut self) -> u32 {
        let mut b = [0u8; 4];
        self.copy_to_slice(&mut b);
        u32::from_le_bytes(b)
    }

    fn get_u64_le(&mut self) -> u64 {
        let mut b = [0u8; 8];
        self.copy_to_slice(&mut b);
        u64::from_le_bytes(b)
    }
}

impl Buf for &[u8] {
    fn remaining(&self) -> usize {
        self.len()
    }
    fn chunk(&self) -> &[u8] {
        self
    }
    fn advance(&mut self, cnt: usize) {
        assert!(cnt <= self.len(), "buffer underflow");
        *self = &self[cnt..];
    }
}

impl Buf for Bytes {
    fn remaining(&self) -> usize {
        self.len()
    }
    fn chunk(&self) -> &[u8] {
        self.as_slice()
    }
    fn advance(&mut self, cnt: usize) {
        assert!(cnt <= self.len(), "buffer underflow");
        self.ptr = NonNull::from(&self.as_slice()[cnt..]).cast();
        self.len -= cnt;
    }
}

impl<T: Buf + ?Sized> Buf for &mut T {
    fn remaining(&self) -> usize {
        (**self).remaining()
    }
    fn chunk(&self) -> &[u8] {
        (**self).chunk()
    }
    fn advance(&mut self, cnt: usize) {
        (**self).advance(cnt)
    }
    fn get_u8(&mut self) -> u8 {
        (**self).get_u8()
    }
    fn get_u16_le(&mut self) -> u16 {
        (**self).get_u16_le()
    }
    fn get_u32_le(&mut self) -> u32 {
        (**self).get_u32_le()
    }
    fn get_u64_le(&mut self) -> u64 {
        (**self).get_u64_le()
    }
}

/// Write cursor over a growable byte sink (subset of the published trait).
pub trait BufMut {
    fn put_slice(&mut self, src: &[u8]);

    fn put_u8(&mut self, v: u8) {
        self.put_slice(&[v]);
    }
    fn put_u16_le(&mut self, v: u16) {
        self.put_slice(&v.to_le_bytes());
    }
    fn put_u32_le(&mut self, v: u32) {
        self.put_slice(&v.to_le_bytes());
    }
    fn put_u64_le(&mut self, v: u64) {
        self.put_slice(&v.to_le_bytes());
    }
}

impl BufMut for BytesMut {
    fn put_slice(&mut self, src: &[u8]) {
        self.vec.extend_from_slice(src)
    }
}

impl BufMut for Vec<u8> {
    fn put_slice(&mut self, src: &[u8]) {
        self.extend_from_slice(src)
    }
}

impl<T: BufMut + ?Sized> BufMut for &mut T {
    fn put_slice(&mut self, src: &[u8]) {
        (**self).put_slice(src)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slice_is_zero_copy() {
        let b = Bytes::from(vec![1u8, 2, 3, 4, 5]);
        let s = b.slice(1..4);
        assert_eq!(&s[..], &[2, 3, 4]);
        assert_eq!(
            unsafe { b.as_slice().as_ptr().add(1) },
            s.as_slice().as_ptr()
        );
        let s2 = s.slice(1..);
        assert_eq!(&s2[..], &[3, 4]);
        assert_eq!(
            unsafe { b.as_slice().as_ptr().add(2) },
            s2.as_slice().as_ptr()
        );
    }

    #[test]
    fn raw_owner_view_reads_owner_memory() {
        let owner: Arc<Vec<u8>> = Arc::new(vec![10u8, 20, 30, 40]);
        let ptr = owner.as_ptr();
        let b = unsafe { Bytes::from_raw_owner(ptr, owner.len(), owner.clone()) };
        assert_eq!(&b[..], &[10, 20, 30, 40]);
        let s = b.slice(1..3);
        assert_eq!(&s[..], &[20, 30]);
        assert_eq!(s.as_slice().as_ptr(), unsafe { ptr.add(1) });
        // Dropping the local handle must not invalidate the view.
        drop(owner);
        assert_eq!(&s[..], &[20, 30]);
    }

    #[test]
    fn owning_constructors_keep_their_buffers() {
        let v = vec![1u8, 2, 3];
        let at = v.as_ptr();
        let b = Bytes::from(v);
        assert_eq!(b.as_slice().as_ptr(), at, "a vector's buffer is kept");
        let mut m = BytesMut::with_capacity(8);
        m.put_slice(b"frozen");
        let at = m.as_ptr();
        assert_eq!(m.freeze().as_slice().as_ptr(), at);
        static DATA: [u8; 4] = *b"stat";
        let s = Bytes::from_static(&DATA);
        assert_eq!(s.as_slice().as_ptr(), DATA.as_ptr());
        assert!(s.owner.is_none() && Bytes::new().owner.is_none());
        assert!(Bytes::from(Vec::new()).owner.is_none());
    }

    #[test]
    fn copies_and_shared_views_read_back() {
        for len in [1, SMALL, SMALL + 1, 1000] {
            let data: Vec<u8> = (0..len).map(|i| i as u8).collect();
            let b = Bytes::copy_from_slice(&data);
            assert_eq!(b, data);
            assert_eq!(b.slice(1..), data[1..]);
        }
        let owner = Arc::new(vec![5u8, 6, 7, 8]);
        let view = Bytes::from_shared(Arc::clone(&owner), 1..3);
        assert_eq!(&view[..], &[6, 7]);
        assert_eq!(Arc::strong_count(&owner), 2, "the view holds the owner");
        drop(view);
        assert_eq!(Arc::strong_count(&owner), 1);
    }

    #[test]
    #[should_panic(expected = "exceeds an owner")]
    fn shared_view_out_of_bounds_panics() {
        Bytes::from_shared(Arc::new(vec![0u8; 2]), 1..3);
    }

    #[test]
    fn buf_cursor_roundtrip() {
        let mut m = BytesMut::new();
        m.put_u8(7);
        m.put_u32_le(0xdead_beef);
        m.put_u64_le(42);
        let frozen = m.freeze();
        let mut cur: &[u8] = &frozen;
        assert_eq!(cur.get_u8(), 7);
        assert_eq!(cur.get_u32_le(), 0xdead_beef);
        assert_eq!(cur.get_u64_le(), 42);
        assert_eq!(cur.remaining(), 0);
    }

    #[test]
    fn bytes_buf_advances_window() {
        let mut b = Bytes::from(vec![9u8, 0, 0, 0, 8]);
        assert_eq!(b.get_u32_le(), 9);
        assert_eq!(b.remaining(), 1);
        assert_eq!(b.get_u8(), 8);
    }

    #[test]
    #[should_panic]
    fn slice_out_of_bounds_panics() {
        Bytes::from(vec![1u8, 2]).slice(0..3);
    }
}
