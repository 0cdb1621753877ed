//! Read-only memory mapping of container files.
//!
//! This is the **only** module in the crate where unsafe code is allowed
//! (`#![expect(unsafe_code)]` below against the workspace-wide deny): it wraps
//! the raw `mmap(2)`/`munmap(2)` system calls behind [`Mmap`], an owned
//! read-only mapping that derefs to `&[u8]`. Everything above this layer —
//! the v2 container, the Elias–Fano index, the bit codecs — consumes plain
//! byte slices through fully bounds-checked decoders, so the unsafe
//! surface is exactly these few lines.
//!
//! Safety argument for handing out `&[u8]` over a file mapping: the
//! mapping is `PROT_READ` + `MAP_PRIVATE`, so the kernel delivers a
//! copy-on-write snapshot that this process cannot write through and other
//! processes' writes do not alter (private mappings see the pages as of
//! fault time; the container format additionally carries checksums so a
//! torn file fails typed at open). The pointer is page-aligned, non-null,
//! and valid for `len` bytes for the lifetime of the `Mmap`, which unmaps
//! on drop. A file truncated *while mapped* can still SIGBUS on fault —
//! the one hazard `&[u8]` cannot express — which is why containers are
//! written via tmp+rename (no in-place truncation of live files) and the
//! limitation is documented at the public entry point.
//!
//! We declare the libc prototypes ourselves instead of depending on a
//! `libc` crate: std already links the platform C library, and the two
//! symbols used here are in POSIX.

#![expect(
    unsafe_code,
    reason = "the crate's one unsafe module: the mmap/munmap FFI and the slice over the mapping"
)]

use std::fs::File;
use std::io;
use std::os::fd::AsRawFd;

mod ffi {
    //! Minimal POSIX prototypes resolved from the C library std links.
    use std::os::raw::{c_int, c_void};

    pub(crate) const PROT_READ: c_int = 1;
    pub(crate) const MAP_PRIVATE: c_int = 0x02;
    pub(crate) const MAP_FAILED: *mut c_void = usize::MAX as *mut c_void;

    extern "C" {
        pub(crate) fn mmap(
            addr: *mut c_void,
            len: usize,
            prot: c_int,
            flags: c_int,
            fd: c_int,
            offset: i64,
        ) -> *mut c_void;
        pub(crate) fn munmap(addr: *mut c_void, len: usize) -> c_int;
    }
}

/// An owned read-only, private memory mapping of an entire file.
///
/// Derefs to `&[u8]`; unmapped on drop. See the module docs for the
/// safety argument and the file-truncation caveat.
#[derive(Debug)]
pub struct Mmap {
    ptr: *mut std::os::raw::c_void,
    len: usize,
}

// SAFETY: the mapping is read-only for its whole lifetime (PROT_READ,
// never mprotect'd), so shared references to its bytes may cross threads
// exactly like an `Arc<[u8]>`; the raw pointer is only used to unmap in
// Drop, which takes `&mut self`.
unsafe impl Send for Mmap {}
// SAFETY: as above — all access is through `&self` yielding `&[u8]` into
// immutable pages.
unsafe impl Sync for Mmap {}

impl Mmap {
    /// Maps `file` read-only in its entirety.
    ///
    /// Returns an empty mapping (no syscall) for a zero-length file, since
    /// `mmap` rejects `len == 0`.
    pub fn map(file: &File) -> io::Result<Mmap> {
        let len = file.metadata()?.len();
        if len > usize::MAX as u64 {
            return Err(io::Error::new(io::ErrorKind::InvalidInput, "file too large to map"));
        }
        let len = len as usize;
        if len == 0 {
            return Ok(Mmap { ptr: std::ptr::null_mut(), len: 0 });
        }
        // SAFETY: fd is a valid open file descriptor borrowed from `file`
        // for the duration of the call; addr = NULL lets the kernel pick a
        // page-aligned address; len > 0 was checked above. On success the
        // kernel guarantees `ptr` is valid for `len` bytes of read access
        // until munmap.
        let ptr = unsafe {
            ffi::mmap(
                std::ptr::null_mut(),
                len,
                ffi::PROT_READ,
                ffi::MAP_PRIVATE,
                file.as_raw_fd(),
                0,
            )
        };
        if ptr == ffi::MAP_FAILED {
            return Err(io::Error::last_os_error());
        }
        Ok(Mmap { ptr, len })
    }

    /// The mapped bytes.
    #[inline]
    pub fn as_slice(&self) -> &[u8] {
        if self.len == 0 {
            return &[];
        }
        // SAFETY: `ptr` came from a successful PROT_READ mmap of exactly
        // `len` bytes and stays mapped until Drop; the pages are never
        // writable through this process, so `&[u8]` aliasing rules hold
        // for the lifetime of `&self`.
        unsafe { std::slice::from_raw_parts(self.ptr as *const u8, self.len) }
    }

    /// Length of the mapping in bytes.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True for a zero-length mapping.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

impl Drop for Mmap {
    fn drop(&mut self) {
        if self.len == 0 {
            return;
        }
        // SAFETY: `(ptr, len)` is exactly the region returned by the mmap
        // in `map`, not yet unmapped (Drop runs once), and no `&[u8]` into
        // it can outlive `self` (as_slice ties the lifetime to `&self`).
        unsafe {
            ffi::munmap(self.ptr, self.len);
        }
    }
}

impl std::ops::Deref for Mmap {
    type Target = [u8];

    #[inline]
    fn deref(&self) -> &[u8] {
        self.as_slice()
    }
}

#[cfg(all(test, not(miri)))]
mod tests {
    use super::*;
    use std::io::Write;

    fn tmp_path(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("lightne-mmap-test-{}-{}", std::process::id(), name));
        p
    }

    #[test]
    fn maps_file_contents() {
        let path = tmp_path("contents");
        let data: Vec<u8> = (0..10_000u32).map(|i| (i * 7) as u8).collect();
        std::fs::File::create(&path).unwrap().write_all(&data).unwrap();
        let file = File::open(&path).unwrap();
        let map = Mmap::map(&file).unwrap();
        assert_eq!(&*map, &data[..]);
        assert_eq!(map.len(), data.len());
        drop(map);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn empty_file_maps_empty() {
        let path = tmp_path("empty");
        std::fs::File::create(&path).unwrap();
        let file = File::open(&path).unwrap();
        let map = Mmap::map(&file).unwrap();
        assert!(map.is_empty());
        assert_eq!(&*map, &[] as &[u8]);
        drop(map);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn mapping_outlives_file_handle_and_unlink() {
        let path = tmp_path("unlink");
        std::fs::File::create(&path).unwrap().write_all(b"still here").unwrap();
        let file = File::open(&path).unwrap();
        let map = Mmap::map(&file).unwrap();
        drop(file);
        std::fs::remove_file(&path).unwrap();
        // The pages stay valid after close + unlink (POSIX keeps the
        // backing object until the last mapping goes away).
        assert_eq!(&*map, b"still here");
    }

    #[test]
    fn is_send_and_sync() {
        fn check<T: Send + Sync>() {}
        check::<Mmap>();
    }
}
