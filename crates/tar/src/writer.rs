//! The ustar encoder, and the in-memory archive writer built on it.
//!
//! [`encode_entry`] is the one place an entry becomes archive bytes. It
//! writes every one of the [`encoded_len`] bytes an entry takes — each
//! header block in full, the payload, and the zero padding to the next
//! block — into memory nobody has to zero first, and allocates nothing.
//! [`Writer`] appends through it, and so does the dedup store's layer
//! rebuild, which places every entry of a layer in one exact-sized,
//! uninitialized buffer.

use crate::header::{checksum, put_number, TarEntry, BLOCK_SIZE};
use crate::view::{EntryView, EntryViewKind};
use std::mem::MaybeUninit;

/// ustar magic + version ("ustar\0" + "00").
const USTAR_MAGIC: &[u8; 8] = b"ustar\x0000";

/// Width of the name and link-target fields. Longer values travel in a GNU
/// record (`L` for a path, `K` for a link target) ahead of the header.
const NAME_FIELD: usize = 100;

/// The bytes a header block starts from, and every padding run's source.
static ZERO_BLOCK: [u8; BLOCK_SIZE] = [0; BLOCK_SIZE];

/// Bytes `entry` occupies in an archive: any GNU long-link and long-name
/// records, its header, and its payload padded to whole blocks.
pub fn encoded_len(entry: &EntryView<'_>) -> usize {
    let link = link_target(entry);
    let long_link = if link.len() > NAME_FIELD { long_record_len(link) } else { 0 };
    let long_name = if split_path(&entry.path).is_none() { long_record_len(&entry.path) } else { 0 };
    long_link + long_name + BLOCK_SIZE + entry.data().len().next_multiple_of(BLOCK_SIZE)
}

/// Encodes `entry` at the start of `out` and returns the bytes it wrote,
/// [`encoded_len`] of them. Every byte of `out[..n]` is written, in order
/// and each once, so `out` may be uninitialized; nothing past `n` is
/// touched. Unsafe callers rely on this: the layer rebuild marks a buffer
/// initialized once its entries are encoded, so an edit that skips a byte
/// here exposes uninitialized memory.
pub fn encode_entry(entry: &EntryView<'_>, out: &mut [MaybeUninit<u8>]) -> usize {
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
    at += header.encode(&mut out[at..]);
    at + put_padded(data, data.len().next_multiple_of(BLOCK_SIZE), &mut out[at..])
}

/// Writes `data` and then zeros up to `padded` bytes at the start of `out`,
/// and returns `padded`.
fn put_padded(data: &[u8], padded: usize, out: &mut [MaybeUninit<u8>]) -> usize {
    let (payload, pad) = out[..padded].split_at_mut(data.len());
    payload.write_copy_of_slice(data);
    pad.write_copy_of_slice(&ZERO_BLOCK[..pad.len()]);
    padded
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
    /// Writes the whole block at the start of `out`, zeros first and the
    /// checksum last, and returns its length.
    fn encode(&self, out: &mut [MaybeUninit<u8>]) -> usize {
        let h: &mut [u8; BLOCK_SIZE] =
            out[..BLOCK_SIZE].write_copy_of_slice(&ZERO_BLOCK).try_into().expect("one block");
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
        BLOCK_SIZE
    }
}

/// A GNU `L` (path) or `K` (link target) record: a header named
/// `././@LongLink` whose payload is `value` and a NUL.
fn encode_long_record(typeflag: u8, value: &str, out: &mut [MaybeUninit<u8>]) -> usize {
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
    let at = header.encode(out);
    // The NUL is the padding's first zero.
    at + put_padded(value.as_bytes(), size.next_multiple_of(BLOCK_SIZE), &mut out[at..])
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
        let len = encoded_len(&entry);
        self.out.reserve(len);
        let wrote = encode_entry(&entry, &mut self.out.spare_capacity_mut()[..len]);
        assert_eq!(wrote, len, "an entry writes its encoded length");
        // SAFETY: `encode_entry` writes every byte of `out[..n]` for the
        // `n` it returns; `n` is `len`, the spare bytes `reserve` made.
        unsafe { self.out.set_len(self.out.len() + len) };
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
        self.out.extend_from_slice(&ZERO_BLOCK);
        self.out.extend_from_slice(&ZERO_BLOCK);
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

    /// A byte the encoder never writes on its own, so a byte it skipped
    /// (or wrote past its length) shows.
    const POISON: u8 = 0xA5;

    /// Encodes `entry` into a buffer poisoned with [`POISON`] and one block
    /// longer than it needs; returns the buffer's bytes.
    fn encode_poisoned(entry: &TarEntry) -> Vec<u8> {
        let view = entry.view();
        let mut out = vec![MaybeUninit::new(POISON); encoded_len(&view) + BLOCK_SIZE];
        assert_eq!(encode_entry(&view, &mut out), encoded_len(&view), "{}", entry.path);
        // SAFETY: every byte was initialized to POISON, and the encoder
        // writes only initialized bytes over it.
        unsafe { out.assume_init_ref() }.to_vec()
    }

    /// Every construct the encoder emits, at every length that changes its
    /// padding: payloads of each residue mod 512, GNU `L` and `K` records
    /// whose value (plus its NUL) ends just before, on and just after a
    /// block boundary, prefix splits, empty files, dirs and links.
    fn every_shape() -> Vec<TarEntry> {
        let mut entries: Vec<TarEntry> =
            (0..=2 * BLOCK_SIZE).map(|len| TarEntry::file(&format!("f/{len}"), vec![len as u8 | 1; len])).collect();
        for len in [256, 510, 511, 512, 513, 1023, 1024] {
            entries.push(TarEntry::file(&"n".repeat(len), vec![]));
            entries.push(TarEntry::symlink(&format!("k/{len}"), &"t".repeat(len)));
            entries.push(TarEntry::hardlink(&"h".repeat(len), &"u".repeat(len)));
        }
        entries.extend([
            TarEntry::dir("d/"),
            TarEntry::file(&format!("{}/leaf", "p".repeat(150)), b"split".to_vec()),
            TarEntry::symlink("s", "target"),
            TarEntry::symlink(&"p".repeat(300), &"t".repeat(150)),
            TarEntry::hardlink(&format!("{}/n", "q".repeat(150)), "f"),
            TarEntry::file("empty", vec![]),
        ]);
        entries
    }

    /// The encoder writes exactly the bytes it accounts for: into a
    /// poisoned buffer it gives `write_archive`'s bytes (whose digest
    /// `view.rs` pins), with nothing left to the buffer and nothing past.
    #[test]
    fn encoded_len_is_what_encode_entry_uses() {
        let entries = every_shape();
        for e in &entries {
            let (poisoned, archive) = (encode_poisoned(e), write_archive(std::slice::from_ref(e)));
            let len = encoded_len(&e.view());
            assert!(poisoned[..len] == archive[..len], "{}: a byte was left to the buffer", e.path);
            assert!(poisoned[len..].iter().all(|&b| b == POISON), "{}: wrote past its length", e.path);
        }
        assert_eq!(read_archive(&write_archive(&entries)).unwrap(), entries);
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
