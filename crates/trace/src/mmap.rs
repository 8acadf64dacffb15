//! Read-only file mappings without a vendored `libc` crate.
//!
//! Segment-served replay ([`crate::TraceMap`]) reads the event section
//! straight out of the OS page cache, which concurrent processes sharing
//! one cache directory share, rather than out of a copy in each
//! process's heap. A mapped page still counts toward this process's
//! resident set for as long as it stays mapped in, so
//! [`Mapping::release_resident`] hands a mapping's pages back once a
//! replay is done with them: the next replay refaults them from the page
//! cache. `std` exposes no mapping API, and this workspace vendors no
//! `libc`, so the Unix path binds `mmap`, `munmap` and `madvise`
//! directly against the C library Rust already links — three foreign
//! functions, all POSIX-stable for decades.
//!
//! Everything degrades gracefully: on non-Unix targets, or when `mmap`
//! itself fails (exotic filesystems, sandboxes that deny `PROT_READ`
//! mappings), [`Mapping::open`] falls back to reading the file into an
//! anonymous buffer. Callers see `&[u8]` either way; only residency
//! behavior differs.
//!
//! What keeps the bytes a mapping serves equal to the bytes validated
//! at open is publish-by-rename, not the mapping flags: an unmodified
//! `MAP_PRIVATE` page *is* the page-cache page, so a write into the
//! file in place would show through it, and the kernel may drop clean
//! pages and refault them at any time. A sealed cache file is never
//! rewritten in place, though, and a mapping keeps its inode alive
//! through a rename or an unlink, so every fault, the first or a
//! refault after a release, reads the file that was validated.

use std::fs::File;
use std::io::{self, Read};
use std::ops::Deref;
use std::path::Path;

/// A whole file as bytes: page-cache-backed where the platform allows,
/// an owned buffer otherwise.
#[derive(Debug)]
pub(crate) enum Mapping {
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
    pub(crate) fn open(path: &Path) -> io::Result<Self> {
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

    /// Hands this process's resident pages of the mapping back to the
    /// kernel. The mapping stays valid: the next read refaults each page
    /// from the page cache, or from the file. Does nothing for the
    /// buffered fallback, whose bytes live in the heap.
    pub(crate) fn release_resident(&self) {
        match self {
            #[cfg(unix)]
            Mapping::Mapped(m) => m.release_resident(),
            Mapping::Buffered(_) => {}
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

    // POSIX constants for the three calls below. Values are identical on
    // Linux and the BSDs/macOS for this subset.
    const PROT_READ: c_int = 1;
    const MAP_PRIVATE: c_int = 2;
    const MAP_FAILED: *mut c_void = usize::MAX as *mut c_void;
    const MADV_DONTNEED: c_int = 4;

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
        fn madvise(addr: *mut c_void, len: usize, advice: c_int) -> c_int;
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

        /// The mapped bytes. They equal the file's bytes only while no
        /// one writes the file in place (see the module docs); the
        /// cache's rename publication never does.
        pub fn as_slice(&self) -> &[u8] {
            // SAFETY: `ptr` is a live mapping of exactly `len` bytes,
            // unmapped only in Drop (which borrows &mut self, so no
            // outstanding slice can exist).
            unsafe { std::slice::from_raw_parts(self.ptr, self.len) }
        }

        /// Drops the mapping's resident pages (`MADV_DONTNEED`). A
        /// refusal only leaves them resident, so the result is ignored.
        pub(super) fn release_resident(&self) {
            // SAFETY: advice over exactly the live mapping `map` made.
            // The range stays mapped, so slices borrowed from
            // `as_slice`, here or on another thread, remain valid: this
            // process never writes the PROT_READ pages, so a page read
            // after the advice refaults with the file's bytes, which are
            // the bytes read before it (see the module docs).
            unsafe {
                madvise(self.ptr as *mut c_void, self.len, MADV_DONTNEED);
            }
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
        assert!(
            matches!(mapping, Mapping::Mapped(_)),
            "unix should serve a real mapping"
        );
        // released pages refault with the same bytes
        mapping.release_resident();
        assert_eq!(&*mapping, payload.as_slice());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn empty_file_is_buffered_not_an_error() {
        let path = std::env::temp_dir().join(format!("pb-mmap-empty-{}", std::process::id()));
        std::fs::write(&path, b"").unwrap();
        let mapping = Mapping::open(&path).unwrap();
        assert!(mapping.is_empty());
        assert!(matches!(mapping, Mapping::Buffered(_)));
        let _ = std::fs::remove_file(&path);
    }
}
