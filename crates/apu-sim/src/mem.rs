//! Device DRAM (L4) with a GDL-style allocator, plus byte-level helpers
//! shared by the scratch memories.
//!
//! The paper's host programs manage device memory through the GSI GDL
//! library (`gdl_mem_alloc_aligned`, `gdl_mem_cpy_to_dev`, ...). This
//! module provides the equivalent: a bump-with-free-list allocator over a
//! flat byte array, handing out opaque [`MemHandle`]s.

use crate::error::Error;
use crate::Result;

/// Alignment of every device allocation, matching the 512-byte DMA chunk
/// granularity of the APU's DMA engines.
pub const ALLOC_ALIGN: usize = 512;

/// An opaque handle to a live allocation in device DRAM.
///
/// Handles are the device-side analogue of `gdl_mem_handle_t`: the host
/// obtains them from [`crate::ApuDevice::alloc`] and passes them to device
/// kernels through task arguments. [`MemHandle::offset_by`] derives a
/// sub-handle at a byte offset, like pointer arithmetic on the C side.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MemHandle {
    /// Byte offset within device DRAM.
    offset: usize,
    /// Remaining length in bytes this handle may address.
    len: usize,
    /// Generation of the allocator entry, detecting use-after-free.
    generation: u32,
    /// Index of the owning allocation record.
    slot: u32,
}

impl MemHandle {
    /// Byte offset of this handle within device DRAM.
    pub fn offset(&self) -> usize {
        self.offset
    }

    /// Bytes addressable through this handle.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the handle addresses zero bytes.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Returns a handle addressing the same allocation `bytes` further in,
    /// with the remaining length shrunk accordingly — the analogue of
    /// `handle + offset` arithmetic in the paper's host code (Fig. 5).
    ///
    /// # Errors
    ///
    /// Returns [`Error::SizeMismatch`] if `bytes` exceeds the handle's
    /// remaining length.
    pub fn offset_by(&self, bytes: usize) -> Result<MemHandle> {
        if bytes > self.len {
            return Err(Error::SizeMismatch {
                got: bytes,
                expected: self.len,
            });
        }
        Ok(MemHandle {
            offset: self.offset + bytes,
            len: self.len - bytes,
            generation: self.generation,
            slot: self.slot,
        })
    }

    /// Returns a handle addressing only the first `bytes` of this handle.
    ///
    /// # Errors
    ///
    /// Returns [`Error::SizeMismatch`] if `bytes` exceeds the handle's
    /// remaining length.
    pub fn truncated(&self, bytes: usize) -> Result<MemHandle> {
        if bytes > self.len {
            return Err(Error::SizeMismatch {
                got: bytes,
                expected: self.len,
            });
        }
        Ok(MemHandle {
            offset: self.offset,
            len: bytes,
            generation: self.generation,
            slot: self.slot,
        })
    }
}

/// One allocation record.
#[derive(Debug, Clone)]
struct AllocRecord {
    offset: usize,
    len: usize,
    generation: u32,
    live: bool,
}

/// Device DRAM: flat byte storage plus the allocator.
#[derive(Debug)]
pub struct Dram {
    bytes: Vec<u8>,
    /// Logical capacity. Equals `bytes.len()` for a backed DRAM; a
    /// *virtual* DRAM (timing-only devices) tracks allocations against
    /// this capacity without any backing store, so 16 GB paper-scale
    /// configurations do not allocate host memory.
    capacity: usize,
    records: Vec<AllocRecord>,
    /// Next never-used offset (bump pointer).
    bump: usize,
    /// Total live bytes, for out-of-memory reporting.
    live_bytes: usize,
}

impl Dram {
    /// Creates a DRAM of `capacity` bytes, zero-initialized.
    pub fn new(capacity: usize) -> Self {
        Dram {
            bytes: vec![0; capacity],
            capacity,
            records: Vec::new(),
            bump: 0,
            live_bytes: 0,
        }
    }

    /// Creates a *virtual* DRAM: full allocator semantics and bounds
    /// checking against `capacity`, but no backing store. Reads return
    /// zeros and writes are discarded — only valid for timing-only
    /// devices, which never consume data.
    pub fn new_virtual(capacity: usize) -> Self {
        Dram {
            bytes: Vec::new(),
            capacity,
            records: Vec::new(),
            bump: 0,
            live_bytes: 0,
        }
    }

    /// Whether this DRAM has a backing store.
    pub fn is_backed(&self) -> bool {
        self.bytes.len() == self.capacity
    }

    /// Total capacity in bytes.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Bytes currently allocated.
    pub fn live_bytes(&self) -> usize {
        self.live_bytes
    }

    /// Allocates `len` bytes aligned to [`ALLOC_ALIGN`].
    ///
    /// First tries to reuse a freed record large enough, then bumps.
    ///
    /// # Errors
    ///
    /// Returns [`Error::OutOfDeviceMemory`] when no space remains.
    pub fn alloc(&mut self, len: usize) -> Result<MemHandle> {
        let aligned = len.div_ceil(ALLOC_ALIGN) * ALLOC_ALIGN;
        // Reuse a dead record whose region is large enough.
        for (slot, rec) in self.records.iter_mut().enumerate() {
            if !rec.live && rec.len >= aligned {
                rec.live = true;
                rec.generation = rec.generation.wrapping_add(1);
                self.live_bytes += rec.len;
                return Ok(MemHandle {
                    offset: rec.offset,
                    len,
                    generation: rec.generation,
                    slot: slot as u32,
                });
            }
        }
        if self.bump + aligned > self.capacity {
            return Err(Error::OutOfDeviceMemory {
                requested: aligned,
                available: self.capacity - self.bump,
            });
        }
        let offset = self.bump;
        self.bump += aligned;
        self.live_bytes += aligned;
        let generation = 1;
        self.records.push(AllocRecord {
            offset,
            len: aligned,
            generation,
            live: true,
        });
        Ok(MemHandle {
            offset,
            len,
            generation,
            slot: (self.records.len() - 1) as u32,
        })
    }

    /// Frees an allocation. Sub-handles derived with
    /// [`MemHandle::offset_by`] free the whole underlying allocation.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidHandle`] for stale or unknown handles.
    pub fn free(&mut self, handle: MemHandle) -> Result<()> {
        let rec = self
            .records
            .get_mut(handle.slot as usize)
            .ok_or(Error::InvalidHandle)?;
        if !rec.live || rec.generation != handle.generation {
            return Err(Error::InvalidHandle);
        }
        rec.live = false;
        self.live_bytes -= rec.len;
        Ok(())
    }

    /// Validates that `handle` is live and `handle.offset + extra_len`
    /// stays within its allocation and the DRAM.
    fn check(&self, handle: &MemHandle, access_len: usize) -> Result<()> {
        let rec = self
            .records
            .get(handle.slot as usize)
            .ok_or(Error::InvalidHandle)?;
        if !rec.live || rec.generation != handle.generation {
            return Err(Error::InvalidHandle);
        }
        if access_len > handle.len {
            return Err(Error::SizeMismatch {
                got: access_len,
                expected: handle.len,
            });
        }
        bounds_check(self.capacity, handle.offset, access_len).map_err(|_| Error::L4OutOfBounds {
            offset: handle.offset,
            len: access_len,
            capacity: self.capacity,
        })
    }

    /// Validates a handle/length pair without touching data (used by
    /// timing-only code paths).
    ///
    /// # Errors
    ///
    /// Fails on stale handles or out-of-range accesses.
    pub fn validate(&self, handle: MemHandle, len: usize) -> Result<()> {
        self.check(&handle, len)
    }

    /// Reads `dst.len()` bytes from the allocation.
    ///
    /// # Errors
    ///
    /// Fails on stale handles or reads beyond the allocation.
    pub fn read(&self, handle: MemHandle, dst: &mut [u8]) -> Result<()> {
        self.check(&handle, dst.len())?;
        if self.is_backed() {
            dst.copy_from_slice(&self.bytes[handle.offset..handle.offset + dst.len()]);
        } else {
            dst.fill(0);
        }
        Ok(())
    }

    /// Writes `src.len()` bytes to the allocation.
    ///
    /// # Errors
    ///
    /// Fails on stale handles or writes beyond the allocation.
    pub fn write(&mut self, handle: MemHandle, src: &[u8]) -> Result<()> {
        self.check(&handle, src.len())?;
        if self.is_backed() {
            self.bytes[handle.offset..handle.offset + src.len()].copy_from_slice(src);
        }
        Ok(())
    }

    /// Borrow of `len` bytes at `handle` (for DMA engines).
    ///
    /// # Errors
    ///
    /// Fails on stale handles or out-of-bounds ranges.
    pub fn slice(&self, handle: MemHandle, len: usize) -> Result<&[u8]> {
        self.check(&handle, len)?;
        if !self.is_backed() {
            return Err(Error::InvalidArg(
                "cannot borrow data from a virtual (timing-only) DRAM".into(),
            ));
        }
        Ok(&self.bytes[handle.offset..handle.offset + len])
    }

    /// Mutable borrow of `len` bytes at `handle` (for DMA engines).
    ///
    /// # Errors
    ///
    /// Fails on stale handles or out-of-bounds ranges.
    pub fn slice_mut(&mut self, handle: MemHandle, len: usize) -> Result<&mut [u8]> {
        self.check(&handle, len)?;
        if !self.is_backed() {
            return Err(Error::InvalidArg(
                "cannot borrow data from a virtual (timing-only) DRAM".into(),
            ));
        }
        Ok(&mut self.bytes[handle.offset..handle.offset + len])
    }

    /// Raw read of a byte range by absolute offset, bypassing the
    /// allocator (used by DMA with programmed chunk addresses).
    ///
    /// # Errors
    ///
    /// Fails when the range exceeds capacity.
    pub fn raw(&self, offset: usize, len: usize) -> Result<&[u8]> {
        bounds_check(self.capacity, offset, len).map_err(|_| Error::L4OutOfBounds {
            offset,
            len,
            capacity: self.capacity,
        })?;
        if !self.is_backed() {
            return Err(Error::InvalidArg(
                "cannot borrow data from a virtual (timing-only) DRAM".into(),
            ));
        }
        Ok(&self.bytes[offset..offset + len])
    }

    /// Raw mutable access by absolute offset (see [`Dram::raw`]).
    ///
    /// # Errors
    ///
    /// Fails when the range exceeds capacity.
    pub fn raw_mut(&mut self, offset: usize, len: usize) -> Result<&mut [u8]> {
        bounds_check(self.capacity, offset, len).map_err(|_| Error::L4OutOfBounds {
            offset,
            len,
            capacity: self.capacity,
        })?;
        if !self.is_backed() {
            return Err(Error::InvalidArg(
                "cannot borrow data from a virtual (timing-only) DRAM".into(),
            ));
        }
        Ok(&mut self.bytes[offset..offset + len])
    }
}

/// Overflow-safe bounds check shared by all memory levels.
pub(crate) fn bounds_check(
    capacity: usize,
    offset: usize,
    len: usize,
) -> std::result::Result<(), ()> {
    match offset.checked_add(len) {
        Some(end) if end <= capacity => Ok(()),
        _ => Err(()),
    }
}

/// A plain-old-data element that can cross the host–device boundary.
///
/// Device DRAM stores raw little-endian bytes; `Pod` defines the
/// conversion for each transferable element type so the host API can be
/// generic ([`crate::ApuDevice::copy_to_device`] /
/// [`crate::ApuDevice::copy_from_device`]) instead of one method pair
/// per type. Implemented for the fixed-width integer and float
/// primitives; all conversions are explicit, no `unsafe` transmutes.
pub trait Pod: Copy {
    /// Serialized size of one element in bytes.
    const SIZE: usize;

    /// Writes the little-endian encoding into `out` (exactly
    /// [`Pod::SIZE`] bytes).
    fn write_le(self, out: &mut [u8]);

    /// Decodes one element from exactly [`Pod::SIZE`] little-endian
    /// bytes.
    fn read_le(bytes: &[u8]) -> Self;
}

macro_rules! impl_pod {
    ($($t:ty),*) => {$(
        impl Pod for $t {
            const SIZE: usize = std::mem::size_of::<$t>();

            fn write_le(self, out: &mut [u8]) {
                out.copy_from_slice(&self.to_le_bytes());
            }

            fn read_le(bytes: &[u8]) -> Self {
                <$t>::from_le_bytes(bytes.try_into().expect("caller passes SIZE bytes"))
            }
        }
    )*};
}

impl_pod!(u8, i8, u16, i16, u32, i32, u64, i64, f32, f64);

/// Serializes a `Pod` slice to its little-endian byte representation.
pub fn pods_to_bytes<T: Pod>(values: &[T]) -> Vec<u8> {
    let mut out = vec![0u8; values.len() * T::SIZE];
    for (chunk, v) in out.chunks_exact_mut(T::SIZE).zip(values) {
        v.write_le(chunk);
    }
    out
}

/// Decodes little-endian bytes into `out`.
///
/// # Panics
///
/// Panics if `bytes.len() != out.len() * T::SIZE`.
pub fn bytes_to_pods<T: Pod>(bytes: &[u8], out: &mut [T]) {
    assert_eq!(bytes.len(), out.len() * T::SIZE, "length mismatch");
    for (chunk, v) in bytes.chunks_exact(T::SIZE).zip(out.iter_mut()) {
        *v = T::read_le(chunk);
    }
}

/// Converts a `u16` slice to its little-endian byte representation.
pub fn u16s_to_bytes(values: &[u16]) -> Vec<u8> {
    let mut out = Vec::with_capacity(values.len() * 2);
    for v in values {
        out.extend_from_slice(&v.to_le_bytes());
    }
    out
}

/// Reinterprets a little-endian byte slice as `u16`s.
///
/// # Panics
///
/// Panics if `bytes.len()` is odd.
pub fn bytes_to_u16s(bytes: &[u8]) -> Vec<u16> {
    assert!(bytes.len().is_multiple_of(2), "byte length must be even");
    bytes
        .chunks_exact(2)
        .map(|c| u16::from_le_bytes([c[0], c[1]]))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_read_write_roundtrip() {
        let mut d = Dram::new(4096);
        let h = d.alloc(100).unwrap();
        d.write(h, &[7u8; 100]).unwrap();
        let mut buf = [0u8; 100];
        d.read(h, &mut buf).unwrap();
        assert_eq!(buf, [7u8; 100]);
    }

    #[test]
    fn allocations_are_aligned_and_disjoint() {
        let mut d = Dram::new(8192);
        let a = d.alloc(10).unwrap();
        let b = d.alloc(10).unwrap();
        assert_eq!(a.offset() % ALLOC_ALIGN, 0);
        assert_eq!(b.offset() % ALLOC_ALIGN, 0);
        assert!(b.offset() >= a.offset() + ALLOC_ALIGN);
    }

    #[test]
    fn out_of_memory_reports_available() {
        let mut d = Dram::new(1024);
        let _a = d.alloc(512).unwrap();
        match d.alloc(1024) {
            Err(Error::OutOfDeviceMemory { available, .. }) => assert_eq!(available, 512),
            other => panic!("expected OOM, got {other:?}"),
        }
    }

    #[test]
    fn free_allows_reuse_and_invalidates_handle() {
        let mut d = Dram::new(1024);
        let a = d.alloc(512).unwrap();
        let _b = d.alloc(512).unwrap();
        d.free(a).unwrap();
        // old handle is dead
        assert_eq!(d.read(a, &mut [0u8; 1]), Err(Error::InvalidHandle));
        assert_eq!(d.free(a), Err(Error::InvalidHandle));
        // reuse succeeds even though the bump pointer is exhausted
        let c = d.alloc(256).unwrap();
        assert_eq!(c.offset(), a.offset());
        d.write(c, &[1u8; 256]).unwrap();
    }

    #[test]
    fn sub_handles_address_within_allocation() {
        let mut d = Dram::new(4096);
        let h = d.alloc(100).unwrap();
        d.write(h, &(0u8..100).collect::<Vec<_>>()).unwrap();
        let sub = h.offset_by(10).unwrap();
        let mut buf = [0u8; 5];
        d.read(sub, &mut buf).unwrap();
        assert_eq!(buf, [10, 11, 12, 13, 14]);
        assert_eq!(sub.len(), 90);
        assert!(h.offset_by(101).is_err());
        let t = h.truncated(4).unwrap();
        assert_eq!(t.len(), 4);
        assert!(d.read(t, &mut [0u8; 5]).is_err());
    }

    #[test]
    fn oversized_access_is_rejected() {
        let mut d = Dram::new(4096);
        let h = d.alloc(8).unwrap();
        assert!(d.write(h, &[0u8; 9]).is_err());
        assert!(d.read(h, &mut [0u8; 9]).is_err());
    }

    #[test]
    fn raw_access_bounds() {
        let mut d = Dram::new(64);
        assert!(d.raw(60, 4).is_ok());
        assert!(d.raw(60, 5).is_err());
        assert!(d.raw_mut(usize::MAX, 2).is_err());
    }

    #[test]
    fn u16_byte_conversions_roundtrip() {
        let v = vec![0u16, 1, 0xBEEF, u16::MAX];
        assert_eq!(bytes_to_u16s(&u16s_to_bytes(&v)), v);
    }

    #[test]
    fn pod_conversions_roundtrip() {
        let v = vec![-3i32, 0, 7, i32::MAX, i32::MIN];
        let bytes = pods_to_bytes(&v);
        assert_eq!(bytes.len(), v.len() * 4);
        let mut out = vec![0i32; v.len()];
        bytes_to_pods(&bytes, &mut out);
        assert_eq!(out, v);

        let f = vec![0.5f64, -1.25, f64::MAX];
        let mut fout = vec![0.0f64; f.len()];
        bytes_to_pods(&pods_to_bytes(&f), &mut fout);
        assert_eq!(fout, f);

        // u16 Pod encoding matches the legacy helper byte-for-byte.
        let u = vec![0u16, 1, 0xBEEF, u16::MAX];
        assert_eq!(pods_to_bytes(&u), u16s_to_bytes(&u));
    }

    #[test]
    fn live_bytes_tracks_alloc_and_free() {
        let mut d = Dram::new(4096);
        assert_eq!(d.live_bytes(), 0);
        let h = d.alloc(100).unwrap();
        assert_eq!(d.live_bytes(), 512);
        d.free(h).unwrap();
        assert_eq!(d.live_bytes(), 0);
    }
}
