//! Owned reading: [`read_archive`] materializes every [`TarView`] entry
//! into a [`TarEntry`], so owned and zero-copy reads share one parser.

use crate::header::{TarEntry, TarError};
use crate::view::TarView;

/// Parses a complete tar archive into owned entries.
pub fn read_archive(data: &[u8]) -> Result<Vec<TarEntry>, TarError> {
    TarView::new(data).map(|r| r.map(|e| e.to_entry())).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::header::{checksum, BLOCK_SIZE};
    use crate::write_archive;

    #[test]
    fn corrupt_checksum_detected() {
        let mut bytes = write_archive(&[TarEntry::file("f", b"x".to_vec())]);
        bytes[0] ^= 0xff;
        let err = TarView::new(&bytes).collect::<Result<Vec<_>, _>>().unwrap_err();
        assert_eq!(err, TarError::BadChecksum);
    }

    #[test]
    fn truncated_payload_detected() {
        let bytes = write_archive(&[TarEntry::file("f", vec![7; 5000])]);
        let err = TarView::new(&bytes[..BLOCK_SIZE + 512]).collect::<Result<Vec<_>, _>>().unwrap_err();
        assert_eq!(err, TarError::Truncated);
    }

    #[test]
    fn missing_terminator_tolerated() {
        let full = write_archive(&[TarEntry::file("f", b"data".to_vec())]);
        // Strip the two zero blocks.
        let trimmed = &full[..full.len() - 2 * BLOCK_SIZE];
        let entries = TarView::new(trimmed).collect::<Result<Vec<_>, _>>().unwrap();
        assert_eq!(entries.len(), 1);
    }

    #[test]
    fn iterator_stops_after_error() {
        let mut bytes = write_archive(&[
            TarEntry::file("a", b"1".to_vec()),
            TarEntry::file("b", b"2".to_vec()),
        ]);
        bytes[0] ^= 0xff;
        let results: Vec<_> = TarView::new(&bytes).collect();
        assert_eq!(results.len(), 1);
        assert!(results[0].is_err());
    }

    #[test]
    fn old_style_type_zero_byte() {
        // Pre-POSIX archives use NUL as the regular-file typeflag.
        let mut bytes = write_archive(&[TarEntry::file("f", b"old".to_vec())]);
        bytes[156] = 0;
        // Fix checksum for the patched byte.
        let mut header = [0u8; BLOCK_SIZE];
        header.copy_from_slice(&bytes[..BLOCK_SIZE]);
        let sum = checksum(&header);
        bytes[148..156].copy_from_slice(format!("{:06o}\0 ", sum).as_bytes());
        let entries = TarView::new(&bytes).collect::<Result<Vec<_>, _>>().unwrap();
        assert!(entries[0].is_file());
        assert_eq!(entries[0].data(), b"old");
    }
}
