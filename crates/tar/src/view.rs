//! Zero-copy tar archive view.
//!
//! [`TarView`] iterates a tar archive held in one in-memory buffer and
//! yields [`EntryView`]s that *borrow* from it: file payloads are slices
//! of the buffer, paths are `Cow`s that only allocate when the on-disk
//! form needs assembly (ustar prefix split). This is the analyzer's hot
//! path — a layer's decompressed tar lives in a reusable scratch buffer
//! and its files are hashed and classified in place, with no per-entry
//! `Vec` materialization. The owned [`read_archive`](crate::read_archive)
//! converts views to [`TarEntry`]s, so the two cannot diverge.

use crate::header::{checksum, parse_octal, EntryKind, TarEntry, TarError, BLOCK_SIZE};
use std::borrow::Cow;

/// Entry kind with payloads borrowed from the archive buffer.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum EntryViewKind<'a> {
    /// Regular file contents (a slice of the archive buffer).
    File(&'a [u8]),
    Dir,
    /// Symlink target.
    Symlink(&'a str),
    /// Hardlink target.
    Hardlink(&'a str),
}

/// One archive entry, borrowing from the archive buffer.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EntryView<'a> {
    /// Entry path. Borrowed except when assembled from a ustar
    /// name/prefix split.
    pub path: Cow<'a, str>,
    pub kind: EntryViewKind<'a>,
    pub mode: u32,
    pub uid: u32,
    pub gid: u32,
    pub mtime: u64,
}

impl<'a> EntryView<'a> {
    /// True for regular files.
    pub fn is_file(&self) -> bool {
        matches!(self.kind, EntryViewKind::File(_))
    }

    /// File contents (empty slice for non-files).
    pub fn data(&self) -> &'a [u8] {
        match self.kind {
            EntryViewKind::File(d) => d,
            _ => &[],
        }
    }

    /// Materializes an owned [`TarEntry`].
    pub fn to_entry(&self) -> TarEntry {
        let kind = match self.kind {
            EntryViewKind::File(d) => EntryKind::File(d.to_vec()),
            EntryViewKind::Dir => EntryKind::Dir,
            EntryViewKind::Symlink(t) => EntryKind::Symlink(t.to_string()),
            EntryViewKind::Hardlink(t) => EntryKind::Hardlink(t.to_string()),
        };
        TarEntry {
            path: self.path.clone().into_owned(),
            kind,
            mode: self.mode,
            uid: self.uid,
            gid: self.gid,
            mtime: self.mtime,
        }
    }
}

/// Iterator over the entries of an in-memory tar archive, zero-copy.
pub struct TarView<'a> {
    data: &'a [u8],
    pos: usize,
    /// Long name captured from a preceding GNU 'L' record (a slice of the
    /// record's payload).
    pending_longname: Option<&'a str>,
    done: bool,
}

impl<'a> TarView<'a> {
    /// Creates a view over archive bytes.
    pub fn new(data: &'a [u8]) -> Self {
        TarView { data, pos: 0, pending_longname: None, done: false }
    }

    fn take_block(&mut self) -> Result<&'a [u8], TarError> {
        if self.pos + BLOCK_SIZE > self.data.len() {
            return Err(TarError::Truncated);
        }
        let b = &self.data[self.pos..self.pos + BLOCK_SIZE];
        self.pos += BLOCK_SIZE;
        Ok(b)
    }

    fn next_entry(&mut self) -> Result<Option<EntryView<'a>>, TarError> {
        loop {
            if self.done {
                return Ok(None);
            }
            if self.pos >= self.data.len() {
                // Tolerate archives missing the final zero blocks (some
                // real-world docker layers are truncated like this).
                self.done = true;
                return Ok(None);
            }
            let block = self.take_block()?;
            if block.iter().all(|&b| b == 0) {
                // End marker (first of two zero blocks).
                self.done = true;
                return Ok(None);
            }
            let header: &[u8; BLOCK_SIZE] = block.try_into().expect("block is BLOCK_SIZE");
            let want = parse_octal(&header[148..156])?;
            if checksum(header) as u64 != want {
                return Err(TarError::BadChecksum);
            }
            let size = parse_octal(&header[124..136])? as usize;
            let mode = parse_octal(&header[100..108])? as u32;
            let uid = parse_octal(&header[108..116])? as u32;
            let gid = parse_octal(&header[116..124])? as u32;
            let mtime = parse_octal(&header[136..148])?;
            let typeflag = header[156];

            let payload_blocks = size.div_ceil(BLOCK_SIZE);
            if self.pos + payload_blocks * BLOCK_SIZE > self.data.len() {
                return Err(TarError::Truncated);
            }
            let payload = &self.data[self.pos..self.pos + size];
            self.pos += payload_blocks * BLOCK_SIZE;

            if typeflag == b'L' {
                // GNU long name: payload is the real path (NUL-terminated),
                // borrowed straight out of the record payload.
                let end = payload.iter().position(|&b| b == 0).unwrap_or(payload.len());
                let name = std::str::from_utf8(&payload[..end]).map_err(|_| TarError::BadUtf8)?;
                self.pending_longname = Some(name);
                continue;
            }

            let path: Cow<'a, str> = match self.pending_longname.take() {
                Some(p) => Cow::Borrowed(p),
                None => {
                    let name = c_str(&header[0..100])?;
                    let prefix = c_str(&header[345..500])?;
                    if prefix.is_empty() {
                        Cow::Borrowed(name)
                    } else {
                        Cow::Owned(format!("{prefix}/{name}"))
                    }
                }
            };

            let kind = match typeflag {
                b'0' | 0 | b'7' => EntryViewKind::File(payload),
                b'5' => EntryViewKind::Dir,
                b'2' => EntryViewKind::Symlink(c_str(&header[157..257])?),
                b'1' => EntryViewKind::Hardlink(c_str(&header[157..257])?),
                // PAX metadata records ('x'/'g') carry attributes we do not
                // model; skip them (their payload was already consumed).
                b'x' | b'g' => continue,
                t => return Err(TarError::UnsupportedType(t)),
            };
            return Ok(Some(EntryView { path, kind, mode, uid, gid, mtime }));
        }
    }
}

impl<'a> Iterator for TarView<'a> {
    type Item = Result<EntryView<'a>, TarError>;

    fn next(&mut self) -> Option<Self::Item> {
        match self.next_entry() {
            Ok(Some(e)) => Some(Ok(e)),
            Ok(None) => None,
            Err(e) => {
                self.done = true;
                Some(Err(e))
            }
        }
    }
}

/// NUL-terminated field as a borrowed str. The borrow has the archive's
/// lifetime, which is what lets paths and link targets stay zero-copy.
fn c_str(field: &[u8]) -> Result<&str, TarError> {
    let end = field.iter().position(|&b| b == 0).unwrap_or(field.len());
    std::str::from_utf8(&field[..end]).map_err(|_| TarError::BadUtf8)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{read_archive, write_archive, Writer};

    /// Archive covering every construct the writer can emit: dirs, files
    /// (incl. empty), symlinks, hardlinks, a GNU long name, and a path
    /// long enough for the name field but with deep nesting.
    fn exhaustive_entries() -> Vec<TarEntry> {
        let long = format!("{}/file.bin", "deep/".repeat(60).trim_end_matches('/'));
        vec![
            TarEntry::dir("usr/"),
            TarEntry::dir("usr/bin/"),
            TarEntry::file("usr/bin/bash", b"\x7fELF fake".to_vec()),
            TarEntry::file("empty", Vec::new()),
            TarEntry::symlink("usr/bin/sh", "bash"),
            TarEntry::hardlink("usr/bin/rbash", "usr/bin/bash"),
            TarEntry::file(&long, vec![0xAB; 1234]),
        ]
    }

    #[test]
    fn view_matches_owned_reader() {
        let bytes = write_archive(&exhaustive_entries());
        let owned = read_archive(&bytes).unwrap();
        let viewed: Vec<TarEntry> = TarView::new(&bytes)
            .map(|r| r.map(|e| e.to_entry()))
            .collect::<Result<_, _>>()
            .unwrap();
        assert_eq!(viewed, owned);
    }

    #[test]
    fn view_borrows_payloads() {
        let bytes = write_archive(&[TarEntry::file("f", b"borrowed".to_vec())]);
        let entry = TarView::new(&bytes).next().unwrap().unwrap();
        let data = entry.data();
        assert_eq!(data, b"borrowed");
        // The slice must point into the archive buffer itself.
        let range = bytes.as_ptr_range();
        assert!(range.contains(&data.as_ptr()), "payload not borrowed from archive");
        assert!(matches!(entry.path, Cow::Borrowed(_)));
    }

    #[test]
    fn view_matches_reader_on_missing_terminator() {
        let full = write_archive(&exhaustive_entries());
        let trimmed = &full[..full.len() - 2 * BLOCK_SIZE];
        let owned = read_archive(trimmed).unwrap();
        let viewed: Vec<TarEntry> = TarView::new(trimmed)
            .map(|r| r.map(|e| e.to_entry()))
            .collect::<Result<_, _>>()
            .unwrap();
        assert_eq!(viewed, owned);
    }

    #[test]
    fn view_stops_after_error_like_reader() {
        let mut bytes = write_archive(&exhaustive_entries());
        bytes[0] ^= 0xff;
        let view_results: Vec<_> = TarView::new(&bytes).collect();
        assert_eq!(view_results.len(), 1);
        assert_eq!(view_results[0].as_ref().unwrap_err(), &TarError::BadChecksum);
    }

    #[test]
    fn longname_is_borrowed() {
        let long = "x".repeat(200);
        let mut w = Writer::new();
        w.append(&TarEntry::file(&long, b"data".to_vec()));
        let bytes = w.finish();
        let entry = TarView::new(&bytes).next().unwrap().unwrap();
        assert_eq!(entry.path, long);
        assert!(
            matches!(entry.path, Cow::Borrowed(_)),
            "GNU longname should borrow from the record payload"
        );
    }
}
