//! The ustar encoder, and the in-memory archive writer built on it.
//!
//! [`encode_entry`] is the one place an entry becomes archive bytes. It
//! writes into a slice the caller sized with [`encoded_len`] and zeroed, and
//! allocates nothing: the header is filled in place, the payload is one
//! copy, and the padding is the zeros already there. [`Writer`] appends
//! through it, and so does the dedup store's layer rebuild, which places
//! every entry of a layer in one exact-sized buffer.

use crate::header::{checksum, put_number, TarEntry, BLOCK_SIZE};
use crate::view::{EntryView, EntryViewKind};

/// ustar magic + version ("ustar\0" + "00").
const USTAR_MAGIC: &[u8; 8] = b"ustar\x0000";

/// Width of the name and link-target fields. Longer values travel in a GNU
/// record (`L` for a path, `K` for a link target) ahead of the header.
const NAME_FIELD: usize = 100;

/// Bytes `entry` occupies in an archive: any GNU long-link and long-name
/// records, its header, and its payload padded to whole blocks.
pub fn encoded_len(entry: &EntryView<'_>) -> usize {
    let link = link_target(entry);
    let long_link = if link.len() > NAME_FIELD { long_record_len(link) } else { 0 };
    let long_name = if split_path(&entry.path).is_none() { long_record_len(&entry.path) } else { 0 };
    long_link + long_name + BLOCK_SIZE + entry.data().len().next_multiple_of(BLOCK_SIZE)
}

/// Encodes `entry` at the start of `out` and returns the bytes it used,
/// [`encoded_len`] of them. Those bytes must be zero on entry.
pub fn encode_entry(entry: &EntryView<'_>, out: &mut [u8]) -> usize {
    let mut at = 0;
    let link = link_target(entry);
    if link.len() > NAME_FIELD {
        at += encode_long_record(b'K', link, &mut out[at..]);
    }
    let (name, prefix) = match split_path(&entry.path) {
        Some(split) => split,
        None => {
            at += encode_long_record(b'L', &entry.path, &mut out[at..]);
            (truncate(&entry.path, NAME_FIELD), "")
        }
    };
    let typeflag = match entry.kind {
        EntryViewKind::File(_) => b'0',
        EntryViewKind::Dir => b'5',
        EntryViewKind::Symlink(_) => b'2',
        EntryViewKind::Hardlink(_) => b'1',
    };
    let data = entry.data();
    let header = Header {
        name,
        prefix,
        typeflag,
        link: truncate(link, NAME_FIELD),
        mode: entry.mode,
        uid: entry.uid,
        gid: entry.gid,
        size: data.len() as u64,
        mtime: entry.mtime,
    };
    header.encode(&mut out[at..]);
    at += BLOCK_SIZE;
    out[at..at + data.len()].copy_from_slice(data);
    at + data.len().next_multiple_of(BLOCK_SIZE)
}

/// The fields one header block carries.
struct Header<'a> {
    name: &'a str,
    prefix: &'a str,
    typeflag: u8,
    link: &'a str,
    mode: u32,
    uid: u32,
    gid: u32,
    size: u64,
    mtime: u64,
}

impl Header<'_> {
    /// Fills the zeroed block at the start of `out`, checksum last.
    fn encode(&self, out: &mut [u8]) {
        let h = out.first_chunk_mut::<BLOCK_SIZE>().expect("room for a header block");
        h[..self.name.len()].copy_from_slice(self.name.as_bytes());
        put_number(&mut h[100..108], self.mode as u64);
        put_number(&mut h[108..116], self.uid as u64);
        put_number(&mut h[116..124], self.gid as u64);
        put_number(&mut h[124..136], self.size);
        put_number(&mut h[136..148], self.mtime);
        h[156] = self.typeflag;
        h[157..157 + self.link.len()].copy_from_slice(self.link.as_bytes());
        h[257..265].copy_from_slice(USTAR_MAGIC);
        h[265..269].copy_from_slice(b"root");
        h[297..301].copy_from_slice(b"root");
        h[345..345 + self.prefix.len()].copy_from_slice(self.prefix.as_bytes());
        // Six digits, NUL, space: the byte sum of a block is below 8^6.
        let sum = checksum(h);
        put_number(&mut h[148..155], sum as u64);
        h[155] = b' ';
    }
}

/// A GNU `L` (path) or `K` (link target) record: a header named
/// `././@LongLink` whose payload is `value` and a NUL.
fn encode_long_record(typeflag: u8, value: &str, out: &mut [u8]) -> usize {
    let size = value.len() + 1;
    let header = Header {
        name: "././@LongLink",
        prefix: "",
        typeflag,
        link: "",
        mode: 0,
        uid: 0,
        gid: 0,
        size: size as u64,
        mtime: 0,
    };
    header.encode(out);
    out[BLOCK_SIZE..BLOCK_SIZE + value.len()].copy_from_slice(value.as_bytes());
    long_record_len(value)
}

fn long_record_len(value: &str) -> usize {
    BLOCK_SIZE + (value.len() + 1).next_multiple_of(BLOCK_SIZE)
}

fn link_target<'a>(entry: &EntryView<'a>) -> &'a str {
    match entry.kind {
        EntryViewKind::Symlink(t) | EntryViewKind::Hardlink(t) => t,
        _ => "",
    }
}

/// The longest prefix of `s` that is at most `max` bytes and ends on a
/// character boundary.
fn truncate(s: &str, max: usize) -> &str {
    let mut end = s.len().min(max);
    while !s.is_char_boundary(end) {
        end -= 1;
    }
    &s[..end]
}

/// Splits a path into (name ≤ 100, prefix ≤ 155) per ustar rules, or `None`
/// if it cannot be represented. A split never leaves an empty prefix, so
/// the reader's `prefix/name` join gives back the path exactly.
fn split_path(path: &str) -> Option<(&str, &str)> {
    if path.len() <= NAME_FIELD {
        return Some((path, ""));
    }
    if path.len() > 255 {
        return None;
    }
    // Find a '/' such that prefix ≤ 155 and the remainder ≤ 100.
    for (i, b) in path.bytes().enumerate().rev() {
        if b == b'/' && (1..=155).contains(&i) && path.len() - i - 1 <= NAME_FIELD && path.len() - i - 1 > 0 {
            return Some((&path[i + 1..], &path[..i]));
        }
    }
    None
}

/// Builds a tar archive in memory.
#[derive(Default)]
pub struct Writer {
    out: Vec<u8>,
}

impl Writer {
    /// Creates an empty archive.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends one entry (long-link and long-name records if needed,
    /// header, payload).
    pub fn append(&mut self, entry: &TarEntry) {
        let entry = entry.view();
        let at = self.out.len();
        self.out.resize(at + encoded_len(&entry), 0);
        encode_entry(&entry, &mut self.out[at..]);
    }

    /// Bytes written so far (without the terminator).
    pub fn len(&self) -> usize {
        self.out.len()
    }

    /// True when no entry has been appended.
    pub fn is_empty(&self) -> bool {
        self.out.is_empty()
    }

    /// Finishes the archive with two zero blocks and returns the bytes.
    pub fn finish(mut self) -> Vec<u8> {
        self.out.resize(self.out.len() + 2 * BLOCK_SIZE, 0);
        self.out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{read_archive, write_archive, TarError, TarView};

    #[test]
    fn split_short_path() {
        assert_eq!(split_path("etc/passwd"), Some(("etc/passwd", "")));
    }

    #[test]
    fn split_long_path() {
        let p = format!("{}/tail", "a".repeat(120));
        let (name, prefix) = split_path(&p).unwrap();
        assert_eq!(name, "tail");
        assert_eq!(prefix, "a".repeat(120));
    }

    #[test]
    fn split_unsplittable() {
        // A 200-byte single component cannot use the prefix trick.
        assert_eq!(split_path(&"x".repeat(200)), None);
        assert!(split_path(&"y".repeat(300)).is_none());
        // Splitting at a leading '/' would leave an empty prefix, which
        // reads back without the '/'.
        assert_eq!(split_path(&format!("/{}", "z".repeat(100))), None);
    }

    #[test]
    fn truncate_keeps_whole_characters() {
        assert_eq!(truncate("abc", 100), "abc");
        assert_eq!(truncate(&"é".repeat(150), 100).len(), 100);
        assert_eq!(truncate(&format!("a{}", "é".repeat(150)), 100).len(), 99);
        assert_eq!(truncate(&"中".repeat(50), 100).len(), 99);
    }

    #[test]
    fn header_is_one_block_per_small_file() {
        let mut w = Writer::new();
        w.append(&TarEntry::file("f", vec![]));
        assert_eq!(w.len(), BLOCK_SIZE);
    }

    #[test]
    fn encoded_len_is_what_encode_entry_uses() {
        let entries = [
            TarEntry::file("f", vec![1; 513]),
            TarEntry::dir("d/"),
            TarEntry::symlink(&"p".repeat(300), &"t".repeat(150)),
            TarEntry::hardlink(&format!("{}/n", "q".repeat(150)), "f"),
        ];
        for e in &entries {
            let view = e.view();
            let mut out = vec![0u8; encoded_len(&view) + BLOCK_SIZE];
            assert_eq!(encode_entry(&view, &mut out), encoded_len(&view), "{}", e.path);
            assert!(out[encoded_len(&view)..].iter().all(|&b| b == 0), "wrote past its length");
        }
    }

    #[test]
    fn long_link_target_round_trips() {
        let target = "t".repeat(150);
        let entries = vec![TarEntry::symlink("link", &target), TarEntry::hardlink("hard", &"h/".repeat(80))];
        let bytes = write_archive(&entries);
        assert_eq!(bytes[156], b'K', "a long target travels in a K record first");
        assert_eq!(read_archive(&bytes).unwrap(), entries);
    }

    #[test]
    fn long_link_and_long_name_together() {
        let entries = vec![TarEntry::symlink(&"n".repeat(400), &"中".repeat(90))];
        assert_eq!(read_archive(&write_archive(&entries)).unwrap(), entries);
    }

    #[test]
    fn multibyte_long_name_stays_in_its_field() {
        let path = "é".repeat(150);
        let entries = vec![TarEntry::symlink(&path, "x")];
        let bytes = write_archive(&entries);
        let back = read_archive(&bytes).unwrap();
        assert_eq!(back, entries);
        // The main header's name field holds a 100-byte, whole-character cut.
        let header = &bytes[2 * BLOCK_SIZE..3 * BLOCK_SIZE];
        assert_eq!(&header[..100], "é".repeat(50).as_bytes());
        assert_eq!(&header[157..159], b"x\0");
    }

    #[test]
    fn wide_numbers_round_trip() {
        let mut entry = TarEntry::file("f", b"data".to_vec());
        for (uid, gid, mtime) in [(3_000_000, 0o7777777, 0), (u32::MAX, 1 << 24, 1 << 40), (0, u32::MAX, u64::MAX)] {
            (entry.uid, entry.gid, entry.mtime) = (uid, gid, mtime);
            let back = read_archive(&write_archive(std::slice::from_ref(&entry))).unwrap();
            assert_eq!(back, vec![entry.clone()]);
        }
    }

    #[test]
    fn dangling_long_records_rejected() {
        for entry in [TarEntry::symlink("l", &"t".repeat(150)), TarEntry::file(&"p".repeat(300), vec![])] {
            let bytes = write_archive(&[entry]);
            // Keep the GNU record (header + one payload block), drop the entry.
            let mut cut = bytes[..2 * BLOCK_SIZE].to_vec();
            let unterminated = TarView::new(&cut).collect::<Result<Vec<_>, _>>();
            assert_eq!(unterminated.unwrap_err(), TarError::DanglingLongName);
            cut.resize(4 * BLOCK_SIZE, 0);
            let terminated = TarView::new(&cut).collect::<Result<Vec<_>, _>>();
            assert_eq!(terminated.unwrap_err(), TarError::DanglingLongName);
        }
    }
}
