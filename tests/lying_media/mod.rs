//! A test-only [`StoreMedia`] decorator that lies about one durability
//! primitive — it reports success without doing the work. The crash
//! sweeps must notice: if they pass over media that drop every
//! directory sync (or every file sync), they are not testing the
//! protocols that ship.

use dyn_ext_hash::core::StoreMedia;
use dyn_ext_hash::extmem::{BlobFile, Result};

/// Which primitive the decorator silently drops.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Lie {
    /// `StoreMedia::sync_dir` returns `Ok` without syncing.
    DirSync,
    /// `BlobFile::sync` returns `Ok` without syncing — of every file,
    /// level files included.
    FileSync,
}

pub struct Lying<M> {
    pub inner: M,
    pub lie: Lie,
}

pub struct LyingFile<F> {
    inner: F,
    lie: Lie,
}

impl<F: BlobFile> BlobFile for LyingFile<F> {
    fn write_at(&mut self, offset: u64, bytes: &[u8]) -> Result<()> {
        self.inner.write_at(offset, bytes)
    }
    fn read_at(&self, offset: u64, buf: &mut [u8]) -> Result<()> {
        self.inner.read_at(offset, buf)
    }
    fn set_len(&mut self, len: u64) -> Result<()> {
        self.inner.set_len(len)
    }
    fn sync(&mut self) -> Result<()> {
        if self.lie == Lie::FileSync {
            return Ok(());
        }
        self.inner.sync()
    }
    fn len(&self) -> u64 {
        self.inner.len()
    }
}

impl<M: StoreMedia> StoreMedia for Lying<M> {
    type File = LyingFile<M::File>;

    fn create_file(&mut self, name: &str) -> Result<Self::File> {
        Ok(LyingFile { inner: self.inner.create_file(name)?, lie: self.lie })
    }
    fn open_file(&mut self, name: &str) -> Result<Option<Self::File>> {
        Ok(self.inner.open_file(name)?.map(|inner| LyingFile { inner, lie: self.lie }))
    }
    fn read_file(&mut self, name: &str) -> Result<Option<Vec<u8>>> {
        self.inner.read_file(name)
    }
    fn rename(&mut self, from: &str, to: &str) -> Result<()> {
        self.inner.rename(from, to)
    }
    fn remove(&mut self, name: &str) -> Result<bool> {
        self.inner.remove(name)
    }
    fn sync_dir(&mut self) -> Result<()> {
        if self.lie == Lie::DirSync {
            return Ok(());
        }
        self.inner.sync_dir()
    }
    fn names(&mut self) -> Vec<String> {
        self.inner.names()
    }
    fn sub(&self, name: &str) -> Result<Self> {
        Ok(Lying { inner: self.inner.sub(name)?, lie: self.lie })
    }
    fn view(&self) -> Self {
        Lying { inner: self.inner.view(), lie: self.lie }
    }
}
