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

use crate::header::{checksum, parse_number, EntryKind, TarEntry, TarError, BLOCK_SIZE};
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

impl TarEntry {
    /// Borrows this entry as an [`EntryView`], the form the encoder takes.
    pub fn view(&self) -> EntryView<'_> {
        let kind = match &self.kind {
            EntryKind::File(d) => EntryViewKind::File(d),
            EntryKind::Dir => EntryViewKind::Dir,
            EntryKind::Symlink(t) => EntryViewKind::Symlink(t),
            EntryKind::Hardlink(t) => EntryViewKind::Hardlink(t),
        };
        EntryView {
            path: Cow::Borrowed(&self.path),
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
    /// Path captured from a preceding GNU 'L' record (a slice of the
    /// record's payload).
    pending_longname: Option<&'a str>,
    /// Link target captured from a preceding GNU 'K' record, likewise.
    pending_longlink: Option<&'a str>,
    done: bool,
}

impl<'a> TarView<'a> {
    /// Creates a view over archive bytes.
    pub fn new(data: &'a [u8]) -> Self {
        TarView { data, pos: 0, pending_longname: None, pending_longlink: None, done: false }
    }

    /// End of the archive: an error if a GNU record is still waiting for
    /// the entry it belongs to.
    fn end(&mut self) -> Result<Option<EntryView<'a>>, TarError> {
        self.done = true;
        match (self.pending_longname, self.pending_longlink) {
            (None, None) => Ok(None),
            _ => Err(TarError::DanglingLongName),
        }
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
                return self.end();
            }
            let block = self.take_block()?;
            if block.iter().all(|&b| b == 0) {
                // End marker (first of two zero blocks).
                return self.end();
            }
            let header: &[u8; BLOCK_SIZE] = block.try_into().expect("block is BLOCK_SIZE");
            let want = parse_number(&header[148..156])?;
            if checksum(header) as u64 != want {
                return Err(TarError::BadChecksum);
            }
            let size = number::<usize>(&header[124..136])?;
            let mode = number::<u32>(&header[100..108])?;
            let uid = number::<u32>(&header[108..116])?;
            let gid = number::<u32>(&header[116..124])?;
            let mtime = parse_number(&header[136..148])?;
            let typeflag = header[156];

            // A base-256 size can be near `usize::MAX`: checked all the way.
            let next = size
                .checked_next_multiple_of(BLOCK_SIZE)
                .and_then(|padded| self.pos.checked_add(padded))
                .filter(|&next| next <= self.data.len())
                .ok_or(TarError::Truncated)?;
            let payload = &self.data[self.pos..self.pos + size];
            self.pos = next;

            // GNU long name / long link: the payload is the real path or
            // link target (NUL-terminated), borrowed straight out of the
            // record for the entry that follows.
            match typeflag {
                b'L' => {
                    self.pending_longname = Some(c_str(payload)?);
                    continue;
                }
                b'K' => {
                    self.pending_longlink = Some(c_str(payload)?);
                    continue;
                }
                _ => {}
            }

            let longlink = self.pending_longlink.take();
            let link = || longlink.map_or_else(|| c_str(&header[157..257]), Ok);
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
                b'2' => EntryViewKind::Symlink(link()?),
                b'1' => EntryViewKind::Hardlink(link()?),
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

/// A numeric field that must fit `T` (a `u32` uid, a `usize` size).
fn number<T: TryFrom<u64>>(field: &[u8]) -> Result<T, TarError> {
    T::try_from(parse_number(field)?).map_err(|_| TarError::BadNumber)
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

    /// The encoder's bytes, pinned. Every reader and oracle in the tree
    /// goes through the same encoder, so only a recorded digest catches it
    /// drifting.
    #[test]
    fn encoder_bytes_are_pinned() {
        let digest = dhub_digest::sha256(&write_archive(&exhaustive_entries()));
        let hex: String = digest.iter().map(|b| format!("{b:02x}")).collect();
        assert_eq!(hex, "c9206aa315015be585814e5ef534ad8ff0fd6867242c47477f3c83df9b9c58c4");
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

    /// Re-signs the first header after a field was patched.
    fn resign(bytes: &mut [u8]) {
        let sum = checksum(bytes[..BLOCK_SIZE].try_into().unwrap());
        bytes[148..156].copy_from_slice(format!("{sum:06o}\0 ").as_bytes());
    }

    #[test]
    fn numbers_too_wide_for_their_type_are_bad() {
        let mut bytes = write_archive(&[TarEntry::file("f", b"x".to_vec())]);
        // uid 2^40 in base-256 parses as a number but is no u32.
        bytes[108..116].copy_from_slice(&[0x80, 0, 1, 0, 0, 0, 0, 0]);
        resign(&mut bytes);
        assert_eq!(TarView::new(&bytes).next().unwrap(), Err(TarError::BadNumber));
        // A size near u64::MAX is a truncated archive, not an overflow.
        bytes[108..116].copy_from_slice(b"0000000\0");
        bytes[124..136].copy_from_slice(&[0x80, 0, 0, 0, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff]);
        resign(&mut bytes);
        assert_eq!(TarView::new(&bytes).next().unwrap(), Err(TarError::Truncated));
    }

    #[test]
    fn longlink_is_borrowed() {
        let target = "t".repeat(200);
        let bytes = write_archive(&[TarEntry::symlink("l", &target)]);
        let entry = TarView::new(&bytes).next().unwrap().unwrap();
        assert_eq!(entry.kind, EntryViewKind::Symlink(&target));
        let EntryViewKind::Symlink(t) = entry.kind else { unreachable!() };
        assert!(bytes.as_ptr_range().contains(&t.as_ptr()), "GNU long link should borrow from the record");
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
