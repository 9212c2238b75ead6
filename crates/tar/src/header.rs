//! Tar entry model and the 512-byte ustar header's numeric fields.

/// Tar block size; headers and data are padded to this.
pub const BLOCK_SIZE: usize = 512;

/// Errors raised on malformed archives.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TarError {
    /// Archive ended mid-entry.
    Truncated,
    /// Header checksum mismatch.
    BadChecksum,
    /// A numeric field was neither octal nor GNU base-256, or its value
    /// does not fit the field's type.
    BadNumber,
    /// Unsupported type flag.
    UnsupportedType(u8),
    /// A GNU long-name or long-link record was not followed by a real entry.
    DanglingLongName,
    /// Entry name is not valid UTF-8 (paths in this study always are).
    BadUtf8,
}

impl std::fmt::Display for TarError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TarError::Truncated => f.write_str("truncated tar archive"),
            TarError::BadChecksum => f.write_str("tar header checksum mismatch"),
            TarError::BadNumber => f.write_str("invalid numeric field"),
            TarError::UnsupportedType(t) => write!(f, "unsupported tar entry type {:?}", *t as char),
            TarError::DanglingLongName => f.write_str("GNU long-name record without entry"),
            TarError::BadUtf8 => f.write_str("non-UTF-8 path"),
        }
    }
}

impl std::error::Error for TarError {}

/// What an entry is.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum EntryKind {
    /// Regular file with contents.
    File(Vec<u8>),
    /// Directory.
    Dir,
    /// Symbolic link to `target`.
    Symlink(String),
    /// Hard link to `target` (an earlier path in the same archive).
    Hardlink(String),
}

/// One archive member.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TarEntry {
    /// Slash-separated relative path.
    pub path: String,
    /// Payload / link target.
    pub kind: EntryKind,
    /// Unix permission bits.
    pub mode: u32,
    /// Owner uid/gid (container layers are almost always root).
    pub uid: u32,
    pub gid: u32,
    /// Modification time, seconds since the epoch.
    pub mtime: u64,
}

impl TarEntry {
    /// Regular file with default metadata.
    pub fn file(path: &str, data: Vec<u8>) -> TarEntry {
        TarEntry { path: path.to_string(), kind: EntryKind::File(data), mode: 0o644, uid: 0, gid: 0, mtime: 0 }
    }

    /// Directory with default metadata.
    pub fn dir(path: &str) -> TarEntry {
        TarEntry { path: path.to_string(), kind: EntryKind::Dir, mode: 0o755, uid: 0, gid: 0, mtime: 0 }
    }

    /// Symlink with default metadata.
    pub fn symlink(path: &str, target: &str) -> TarEntry {
        TarEntry {
            path: path.to_string(),
            kind: EntryKind::Symlink(target.to_string()),
            mode: 0o777,
            uid: 0,
            gid: 0,
            mtime: 0,
        }
    }

    /// Hardlink with default metadata.
    pub fn hardlink(path: &str, target: &str) -> TarEntry {
        TarEntry {
            path: path.to_string(),
            kind: EntryKind::Hardlink(target.to_string()),
            mode: 0o644,
            uid: 0,
            gid: 0,
            mtime: 0,
        }
    }

    /// File contents (empty slice for non-files).
    pub fn data(&self) -> &[u8] {
        match &self.kind {
            EntryKind::File(d) => d,
            _ => &[],
        }
    }

    /// True if this entry is a regular file.
    pub fn is_file(&self) -> bool {
        matches!(self.kind, EntryKind::File(_))
    }
}

/// Writes `value` into a numeric field: `width - 1` octal digits and a
/// NUL when it fits them, else all `width` bytes as digits (no NUL), else
/// GNU base-256 — a `0x80` lead byte, then the value big-endian.
pub fn put_number(field: &mut [u8], value: u64) {
    let width = field.len();
    if value >> (3 * (width - 1)) == 0 {
        put_octal(&mut field[..width - 1], value);
        field[width - 1] = 0;
    } else if value >> (3 * width) == 0 {
        put_octal(field, value);
    } else {
        debug_assert!(width > 8 || value >> (8 * (width - 1)) == 0, "{value} overflows a {width}-byte field");
        field[0] = 0x80;
        for (i, b) in field[1..].iter_mut().rev().enumerate() {
            *b = value.checked_shr(8 * i as u32).unwrap_or(0) as u8;
        }
    }
}

/// Fills `digits` with `value` in zero-padded octal.
fn put_octal(digits: &mut [u8], mut value: u64) {
    for d in digits.iter_mut().rev() {
        *d = b'0' + (value & 7) as u8;
        value >>= 3;
    }
}

/// Parses a numeric field: octal (leading spaces, then digits up to a
/// NUL, a space or the field's end) or GNU base-256 (lead byte `0x80`).
/// Negative base-256 values and values past `u64` are `BadNumber`.
pub fn parse_number(field: &[u8]) -> Result<u64, TarError> {
    match field.first() {
        Some(&lead) if lead & 0x80 != 0 => {
            if lead & 0x40 != 0 {
                return Err(TarError::BadNumber);
            }
            field[1..].iter().try_fold((lead & 0x3f) as u64, |v, &b| {
                v.checked_mul(256).map(|v| v | b as u64).ok_or(TarError::BadNumber)
            })
        }
        _ => parse_octal(field),
    }
}

fn parse_octal(field: &[u8]) -> Result<u64, TarError> {
    let mut v: u64 = 0;
    let mut seen = false;
    for &b in field {
        match b {
            b'0'..=b'7' => {
                v = v.checked_mul(8).and_then(|v| v.checked_add((b - b'0') as u64)).ok_or(TarError::BadNumber)?;
                seen = true;
            }
            b' ' if !seen => continue,
            b'\0' | b' ' => break,
            _ => return Err(TarError::BadNumber),
        }
    }
    Ok(v)
}

/// Computes the header checksum: byte sum with the checksum field blanked.
pub fn checksum(header: &[u8; BLOCK_SIZE]) -> u32 {
    let sum = |bytes: &[u8]| bytes.iter().map(|&b| b as u32).sum::<u32>();
    sum(header) - sum(&header[148..156]) + 8 * b' ' as u32
}

#[cfg(test)]
mod tests {
    use super::*;

    fn put(width: usize, value: u64) -> Vec<u8> {
        let mut field = vec![0xAA; width];
        put_number(&mut field, value);
        field
    }

    #[test]
    fn octal_roundtrip() {
        for (width, v) in [(8, 0u64), (8, 1), (8, 0o644), (8, 0o777), (12, 123456), (12, 0o77777777777)] {
            assert_eq!(parse_number(&put(width, v)).unwrap(), v);
        }
    }

    #[test]
    fn number_uses_nul_terminated_octal_when_it_fits() {
        assert_eq!(put(8, 0o644), b"0000644\0");
        assert_eq!(put(12, 1_495_000_000), b"13106761700\0");
    }

    #[test]
    fn number_drops_the_nul_before_going_binary() {
        // uid 3,000,000 is eight octal digits: no room for the NUL.
        assert_eq!(put(8, 3_000_000), b"13343300");
        assert_eq!(parse_number(b"13343300").unwrap(), 3_000_000);
        assert_eq!(parse_number(b"10000000").unwrap(), 1 << 21);
        assert_eq!(put(12, 1 << 35), b"400000000000");
    }

    #[test]
    fn number_falls_back_to_base_256() {
        assert_eq!(put(8, u32::MAX as u64), [0x80, 0, 0, 0, 0xff, 0xff, 0xff, 0xff]);
        assert_eq!(put(8, 1 << 24), [0x80, 0, 0, 0, 1, 0, 0, 0]);
        for (width, v) in [(8, 1u64 << 24), (8, u32::MAX as u64), (12, 1 << 36), (12, 1 << 40), (12, u64::MAX)] {
            assert_eq!(parse_number(&put(width, v)).unwrap(), v, "width {width} value {v}");
        }
    }

    #[test]
    fn base_256_overflow_and_negatives_rejected() {
        let mut wide = [0xffu8; 12];
        wide[0] = 0x80;
        assert_eq!(parse_number(&wide), Err(TarError::BadNumber), "88 value bits overflow u64");
        assert_eq!(parse_number(&[0xff; 8]), Err(TarError::BadNumber), "negative");
    }

    #[test]
    fn parse_octal_tolerates_gnu_format() {
        assert_eq!(parse_number(b"  644 \0").unwrap(), 0o644);
        assert_eq!(parse_number(b"\0\0\0").unwrap(), 0);
    }

    #[test]
    fn parse_octal_rejects_garbage() {
        assert_eq!(parse_number(b"12x4"), Err(TarError::BadNumber));
        assert_eq!(parse_number(b"9"), Err(TarError::BadNumber));
    }

    #[test]
    fn checksum_reads_its_own_field_as_spaces() {
        let mut header = [0u8; BLOCK_SIZE];
        header[0] = b'a';
        assert_eq!(checksum(&header), b'a' as u32 + 8 * 32);
        header[148..156].copy_from_slice(b"99999999");
        assert_eq!(checksum(&header), b'a' as u32 + 8 * 32);
    }

    #[test]
    fn entry_constructors() {
        let f = TarEntry::file("a/b", vec![1, 2]);
        assert!(f.is_file());
        assert_eq!(f.data(), [1, 2]);
        let d = TarEntry::dir("a/");
        assert!(!d.is_file());
        assert_eq!(d.data(), b"");
        assert_eq!(d.mode, 0o755);
    }
}
