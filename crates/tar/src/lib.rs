//! From-scratch ustar tar archives (POSIX.1-1988 with the GNU long-name
//! extension).
//!
//! Docker image layers are tar archives; the synthetic hub writes layer
//! tarballs with [`Writer`] and the analyzer walks them back zero-copy with
//! [`TarView`] ([`read_archive`] collects the same walk into owned
//! entries). The format implemented here covers what container layers
//! use: regular files, directories, symlinks, hardlinks, the ustar
//! name/prefix split, GNU `L` long-name records for paths the split cannot
//! hold, GNU `K` long-link records for link targets over 100 bytes, and GNU
//! base-256 for numbers too wide for their octal field.
//!
//! There is one encoder, [`encode_entry`]: it writes every byte of an entry
//! into a slice sized by [`encoded_len`], which may be uninitialized, with
//! no allocation. [`Writer`] appends through it, and the dedup store
//! rebuilds whole layers through it.

mod header;
mod reader;
mod view;
mod writer;

pub use header::{EntryKind, TarEntry, TarError, BLOCK_SIZE};
pub use reader::read_archive;
pub use view::{EntryView, EntryViewKind, TarView};
pub use writer::{encode_entry, encoded_len, Writer};

/// Serializes `entries` into a complete tar archive in memory.
pub fn write_archive(entries: &[TarEntry]) -> Vec<u8> {
    let mut w = Writer::new();
    for e in entries {
        w.append(e);
    }
    w.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn file(path: &str, data: &[u8]) -> TarEntry {
        TarEntry::file(path, data.to_vec())
    }

    #[test]
    fn roundtrip_mixed_entries() {
        let entries = vec![
            TarEntry::dir("usr/"),
            TarEntry::dir("usr/bin/"),
            file("usr/bin/bash", b"\x7fELF fake binary"),
            file("etc/hostname", b"container\n"),
            TarEntry::symlink("usr/bin/sh", "bash"),
            TarEntry::hardlink("usr/bin/rbash", "usr/bin/bash"),
            file("empty", b""),
        ];
        let bytes = write_archive(&entries);
        assert_eq!(bytes.len() % BLOCK_SIZE, 0);
        let back = read_archive(&bytes).unwrap();
        assert_eq!(back, entries);
    }

    #[test]
    fn empty_archive() {
        let bytes = write_archive(&[]);
        assert_eq!(bytes.len(), 2 * BLOCK_SIZE);
        assert!(read_archive(&bytes).unwrap().is_empty());
    }

    #[test]
    fn data_padding_to_block() {
        let bytes = write_archive(&[file("a", &[0x42; 513])]);
        // header + 2 data blocks + 2 terminator blocks
        assert_eq!(bytes.len(), BLOCK_SIZE * 5);
        let back = read_archive(&bytes).unwrap();
        assert_eq!(back[0].data().len(), 513);
    }

    #[test]
    fn long_path_via_prefix_split() {
        let dir = format!("{}/{}/leaf.txt", "segment0".repeat(8), "segment1".repeat(8));
        assert!(dir.len() > 100 && dir.len() < 255);
        let entries = vec![file(&dir, b"deep")];
        let back = read_archive(&write_archive(&entries)).unwrap();
        assert_eq!(back, entries);
    }

    #[test]
    fn very_long_path_via_gnu_longname() {
        let path = format!("{}/file.txt", "d123456789".repeat(40));
        assert!(path.len() > 255);
        let entries = vec![file(&path, b"x")];
        let back = read_archive(&write_archive(&entries)).unwrap();
        assert_eq!(back[0].path, path);
        assert_eq!(back[0].data(), b"x");
    }

    #[test]
    fn interop_with_system_tar() {
        // If tar(1) is available, it must be able to list our archive.
        use std::io::Write as _;
        use std::process::{Command, Stdio};
        if Command::new("tar").arg("--version").output().map(|o| !o.status.success()).unwrap_or(true) {
            eprintln!("tar(1) unavailable; skipping interop test");
            return;
        }
        let entries = vec![
            TarEntry::dir("opt/"),
            file("opt/app.py", b"print('hi')\n"),
            TarEntry::symlink("opt/link", "app.py"),
        ];
        let bytes = write_archive(&entries);
        let mut child = Command::new("tar")
            .args(["-tf", "-"])
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()
            .unwrap();
        child.stdin.take().unwrap().write_all(&bytes).unwrap();
        let out = child.wait_with_output().unwrap();
        assert!(out.status.success(), "tar -t rejected our archive");
        let listing = String::from_utf8_lossy(&out.stdout);
        assert!(listing.contains("opt/app.py"), "{listing}");
        assert!(listing.contains("opt/link"), "{listing}");
    }
}
