//! Read-only file mappings without a vendored `libc` crate.
//!
//! Segment-served replay ([`crate::TraceMap`]) wants the event section
//! resident in the OS page cache, shared between every process of a
//! sharded sweep, and paged in/out under kernel memory pressure rather
//! than held in each process's heap. `std` exposes no mapping
//! API, and this workspace vendors no `libc`, so the Unix path binds
//! `mmap`/`munmap` directly against the C library Rust already links —
//! two foreign functions, both POSIX-stable for decades.
//!
//! Everything degrades gracefully: on non-Unix targets, or when `mmap`
//! itself fails (exotic filesystems, sandboxes that deny `PROT_READ`
//! mappings), [`Mapping::open`] falls back to reading the file into an
//! anonymous buffer. Callers see `&[u8]` either way; only residency
//! behavior differs.

use std::fs::File;
use std::io::{self, Read};
use std::ops::Deref;
use std::path::Path;

/// A whole file as bytes: page-cache-backed where the platform allows,
/// an owned buffer otherwise.
#[derive(Debug)]
pub enum Mapping {
    /// A live `mmap(2)` of the file (Unix only). Unmapped on drop.
    #[cfg(unix)]
    Mapped(unix::MappedFile),
    /// The pure-`std` fallback: file contents read into memory.
    Buffered(Vec<u8>),
}

impl Mapping {
    /// Maps `path` read-only, falling back to a buffered read when
    /// mapping is unavailable. Empty files always use the buffer (a
    /// zero-length `mmap` is an error on most systems).
    pub fn open(path: &Path) -> io::Result<Self> {
        let mut file = File::open(path)?;
        let len = file.metadata()?.len();
        #[cfg(unix)]
        if len > 0 {
            if let Some(mapped) = unix::MappedFile::map(&file, len as usize) {
                return Ok(Mapping::Mapped(mapped));
            }
        }
        let mut buf = Vec::with_capacity(len as usize);
        file.read_to_end(&mut buf)?;
        Ok(Mapping::Buffered(buf))
    }

    /// Whether the bytes are served by a real mapping (as opposed to
    /// the buffered fallback).
    pub fn is_mapped(&self) -> bool {
        match self {
            #[cfg(unix)]
            Mapping::Mapped(_) => true,
            Mapping::Buffered(_) => false,
        }
    }
}

impl Deref for Mapping {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        match self {
            #[cfg(unix)]
            Mapping::Mapped(m) => m.as_slice(),
            Mapping::Buffered(b) => b,
        }
    }
}

#[cfg(unix)]
mod unix {
    use std::fs::File;
    use std::os::raw::{c_int, c_void};
    use std::os::unix::io::AsRawFd;

    // POSIX constants for the two calls below. Values are identical on
    // Linux and the BSDs/macOS for this subset.
    const PROT_READ: c_int = 1;
    const MAP_PRIVATE: c_int = 2;
    const MAP_FAILED: *mut c_void = usize::MAX as *mut c_void;

    extern "C" {
        fn mmap(
            addr: *mut c_void,
            len: usize,
            prot: c_int,
            flags: c_int,
            fd: c_int,
            offset: i64,
        ) -> *mut c_void;
        fn munmap(addr: *mut c_void, len: usize) -> c_int;
    }

    /// An owned read-only mapping of one file.
    #[derive(Debug)]
    pub struct MappedFile {
        ptr: *const u8,
        len: usize,
    }

    // The mapping is read-only and owned: the pointer never escapes
    // except through `as_slice`, whose lifetime is tied to `self`.
    unsafe impl Send for MappedFile {}
    unsafe impl Sync for MappedFile {}

    impl MappedFile {
        /// Maps `len` bytes of `file` read-only, or `None` if the
        /// kernel refuses (callers fall back to a buffered read).
        pub fn map(file: &File, len: usize) -> Option<Self> {
            // SAFETY: a fresh PROT_READ/MAP_PRIVATE mapping of an open
            // fd; we validate the result against MAP_FAILED and null
            // before trusting it, and `len > 0` is the caller's
            // contract (checked in `Mapping::open`).
            let ptr = unsafe {
                mmap(
                    std::ptr::null_mut(),
                    len,
                    PROT_READ,
                    MAP_PRIVATE,
                    file.as_raw_fd(),
                    0,
                )
            };
            if ptr == MAP_FAILED || ptr.is_null() {
                return None;
            }
            Some(MappedFile {
                ptr: ptr as *const u8,
                len,
            })
        }

        /// The mapped bytes.
        ///
        /// The file was opened read-only and mapped `MAP_PRIVATE`, so
        /// in-place mutation by other processes cannot alter what this
        /// process reads through already-resident pages; the cache's
        /// atomic rename publication means sealed files are never
        /// rewritten in place anyway.
        pub fn as_slice(&self) -> &[u8] {
            // SAFETY: `ptr` is a live mapping of exactly `len` bytes,
            // unmapped only in Drop (which borrows &mut self, so no
            // outstanding slice can exist).
            unsafe { std::slice::from_raw_parts(self.ptr, self.len) }
        }
    }

    impl Drop for MappedFile {
        fn drop(&mut self) {
            // SAFETY: unmapping exactly what `map` mapped, once.
            unsafe {
                munmap(self.ptr as *mut c_void, self.len);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mapping_matches_read() {
        let path = std::env::temp_dir().join(format!("pb-mmap-test-{}", std::process::id()));
        let payload: Vec<u8> = (0..10_000u32).flat_map(|i| i.to_le_bytes()).collect();
        std::fs::write(&path, &payload).unwrap();
        let mapping = Mapping::open(&path).unwrap();
        assert_eq!(&*mapping, payload.as_slice());
        #[cfg(unix)]
        assert!(mapping.is_mapped(), "unix should serve a real mapping");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn empty_file_is_buffered_not_an_error() {
        let path = std::env::temp_dir().join(format!("pb-mmap-empty-{}", std::process::id()));
        std::fs::write(&path, b"").unwrap();
        let mapping = Mapping::open(&path).unwrap();
        assert!(mapping.is_empty());
        assert!(!mapping.is_mapped());
        let _ = std::fs::remove_file(&path);
    }
}
