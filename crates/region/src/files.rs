//! Backing files: where SCM pages swap to and the persistent inode table.
//!
//! Every persistent region is associated with a backing file so that (i)
//! SCM pages can be evicted under memory pressure and (ii) a leak in one
//! program cannot monopolise physical SCM (§3.4). The kernel's inode table
//! (stored in SCM, see [`crate::layout`]) records `file_id → name`; names
//! are resolved relative to the region directory, the analogue of the
//! paper's `MNEMOSYNE_REGION_PATH` environment variable.

use std::fs::{self, File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use crate::error::Result;
use crate::{RegionError, PAGE_SIZE};

/// Resolves file ids to host files under the region directory and performs
/// page-granularity I/O on them.
#[derive(Debug)]
pub struct FileStore {
    dir: PathBuf,
}

impl FileStore {
    /// Creates a store rooted at `dir`; the directory must exist.
    pub fn new(dir: &Path) -> Self {
        FileStore {
            dir: dir.to_path_buf(),
        }
    }

    /// The region directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn path(&self, name: &str) -> PathBuf {
        self.dir.join(name)
    }

    /// Creates (or opens, truncating nothing) the backing file `name`.
    ///
    /// # Errors
    /// Propagates I/O errors.
    pub fn create(&self, name: &str) -> Result<()> {
        OpenOptions::new()
            .create(true)
            .append(true)
            .open(self.path(name))?;
        Ok(())
    }

    /// Whether the backing file exists.
    pub fn exists(&self, name: &str) -> bool {
        self.path(name).exists()
    }

    /// Deletes the backing file `name` (missing files are fine: a crash can
    /// interleave anywhere in the create protocol).
    ///
    /// # Errors
    /// Propagates I/O errors other than `NotFound`.
    pub fn remove(&self, name: &str) -> Result<()> {
        match fs::remove_file(self.path(name)) {
            Ok(()) => Ok(()),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
            Err(e) => Err(RegionError::Io(e)),
        }
    }

    /// Reads page `page_off` (a page index) of `name` into `buf`. Reads
    /// past end-of-file yield zeros, matching demand-zero semantics of a
    /// fresh region.
    ///
    /// # Errors
    /// Propagates I/O errors.
    pub fn read_page(
        &self,
        name: &str,
        page_off: u64,
        buf: &mut [u8; PAGE_SIZE as usize],
    ) -> Result<()> {
        buf.fill(0);
        let mut f = match File::open(self.path(name)) {
            Ok(f) => f,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(()),
            Err(e) => return Err(RegionError::Io(e)),
        };
        let len = f.metadata()?.len();
        let start = page_off * PAGE_SIZE;
        if start >= len {
            return Ok(());
        }
        f.seek(SeekFrom::Start(start))?;
        let n = ((len - start).min(PAGE_SIZE)) as usize;
        f.read_exact(&mut buf[..n])?;
        Ok(())
    }

    /// Writes page `page_off` of `name`, extending the file as needed, and
    /// syncs it (the swap path must be durable before the mapping entry is
    /// released).
    ///
    /// # Errors
    /// Propagates I/O errors.
    pub fn write_page(
        &self,
        name: &str,
        page_off: u64,
        buf: &[u8; PAGE_SIZE as usize],
    ) -> Result<()> {
        self.write_pages(name, [(page_off, *buf)])
    }

    /// Writes `(page_off, page)` pairs into `name` through one open file,
    /// extending it as needed, then syncs it once.
    ///
    /// # Errors
    /// Propagates I/O errors.
    pub fn write_pages(
        &self,
        name: &str,
        pages: impl IntoIterator<Item = (u64, [u8; PAGE_SIZE as usize])>,
    ) -> Result<()> {
        let mut f = OpenOptions::new()
            .create(true)
            .truncate(false)
            .write(true)
            .open(self.path(name))?;
        for (page_off, page) in pages {
            // A write past the end extends the file, zero-filling any gap.
            f.seek(SeekFrom::Start(page_off * PAGE_SIZE))?;
            f.write_all(&page)?;
        }
        f.sync_data()?;
        Ok(())
    }

    /// Validates a region/backing-file name: non-empty, at most
    /// [`crate::layout::NAME_BYTES`] bytes, no path separators.
    pub fn validate_name(name: &str) -> Result<()> {
        if name.is_empty()
            || name.len() > crate::layout::NAME_BYTES
            || name.contains('/')
            || name.contains('\\')
        {
            return Err(RegionError::BadName(name.to_string()));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn store() -> (FileStore, PathBuf) {
        let dir = std::env::temp_dir().join(format!(
            "mnemo-files-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        fs::create_dir_all(&dir).unwrap();
        (FileStore::new(&dir), dir)
    }

    #[test]
    fn page_roundtrip() {
        let (s, dir) = store();
        let mut page = [0u8; PAGE_SIZE as usize];
        page[0] = 1;
        page[4095] = 2;
        s.write_page("a.region", 3, &page).unwrap();
        let mut back = [0xffu8; PAGE_SIZE as usize];
        s.read_page("a.region", 3, &mut back).unwrap();
        assert_eq!(back[0], 1);
        assert_eq!(back[4095], 2);
        fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn write_pages_writes_every_page_of_one_file() {
        let (s, dir) = store();
        let pages = (0..3u8).map(|i| (u64::from(i) * 2, [i + 1; PAGE_SIZE as usize]));
        s.write_pages("d.region", pages).unwrap();
        let mut back = [0xffu8; PAGE_SIZE as usize];
        for (off, want) in [(0, 1), (1, 0), (2, 2), (3, 0), (4, 3)] {
            s.read_page("d.region", off, &mut back).unwrap();
            assert!(back.iter().all(|&b| b == want), "page {off}");
        }
        fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn read_past_eof_is_zeros() {
        let (s, dir) = store();
        s.create("b.region").unwrap();
        let mut buf = [0xffu8; PAGE_SIZE as usize];
        s.read_page("b.region", 10, &mut buf).unwrap();
        assert!(buf.iter().all(|&b| b == 0));
        fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn read_missing_file_is_zeros() {
        let (s, dir) = store();
        let mut buf = [0xffu8; PAGE_SIZE as usize];
        s.read_page("nope.region", 0, &mut buf).unwrap();
        assert!(buf.iter().all(|&b| b == 0));
        fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn sparse_write_extends_file() {
        let (s, dir) = store();
        let page = [7u8; PAGE_SIZE as usize];
        s.write_page("c.region", 5, &page).unwrap();
        // Earlier pages read as zeros.
        let mut buf = [0xffu8; PAGE_SIZE as usize];
        s.read_page("c.region", 0, &mut buf).unwrap();
        assert!(buf.iter().all(|&b| b == 0));
        fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn remove_is_idempotent() {
        let (s, dir) = store();
        s.create("d.region").unwrap();
        s.remove("d.region").unwrap();
        s.remove("d.region").unwrap();
        assert!(!s.exists("d.region"));
        fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn name_validation() {
        assert!(FileStore::validate_name("ok-name_1.region").is_ok());
        assert!(FileStore::validate_name("").is_err());
        assert!(FileStore::validate_name("a/b").is_err());
        assert!(FileStore::validate_name(&"x".repeat(200)).is_err());
    }
}
