//! DEFLATE length/distance code tables (RFC 1951 §3.2.5).

/// Length codes 257..=285: `(base_length, extra_bits)`.
pub const LENGTH_CODES: [(u16, u8); 29] = [
    (3, 0), (4, 0), (5, 0), (6, 0), (7, 0), (8, 0), (9, 0), (10, 0),
    (11, 1), (13, 1), (15, 1), (17, 1),
    (19, 2), (23, 2), (27, 2), (31, 2),
    (35, 3), (43, 3), (51, 3), (59, 3),
    (67, 4), (83, 4), (99, 4), (115, 4),
    (131, 5), (163, 5), (195, 5), (227, 5),
    (258, 0),
];

/// Distance codes 0..=29: `(base_distance, extra_bits)`.
pub const DIST_CODES: [(u16, u8); 30] = [
    (1, 0), (2, 0), (3, 0), (4, 0),
    (5, 1), (7, 1),
    (9, 2), (13, 2),
    (17, 3), (25, 3),
    (33, 4), (49, 4),
    (65, 5), (97, 5),
    (129, 6), (193, 6),
    (257, 7), (385, 7),
    (513, 8), (769, 8),
    (1025, 9), (1537, 9),
    (2049, 10), (3073, 10),
    (4097, 11), (6145, 11),
    (8193, 12), (12289, 12),
    (16385, 13), (24577, 13),
];

/// Order in which code-length-code lengths are transmitted (§3.2.7).
pub const CLCL_ORDER: [usize; 19] = [16, 17, 18, 0, 8, 7, 9, 6, 10, 5, 11, 4, 12, 3, 13, 2, 14, 1, 15];

/// Length code index (relative to symbol 257) for every match length
/// 0..=258; entries below 3 are unused.
const LENGTH_CODE: [u8; 259] = {
    let mut t = [0u8; 259];
    let mut code = 0;
    while code < 28 {
        let (base, extra) = LENGTH_CODES[code];
        let mut len = base as usize;
        while len < base as usize + (1 << extra) {
            t[len] = code as u8;
            len += 1;
        }
        code += 1;
    }
    // 258 has its own code (285), though code 284's range reaches it too.
    t[258] = 28;
    t
};

/// Distance code for `dist - 1`: entries 0..256 index small distances
/// directly, entries 256.. index `(dist - 1) >> 7` (zlib's `d_code`).
const DIST_CODE: [u8; 512] = {
    let mut t = [0u8; 512];
    let mut code = 0;
    while code < 30 {
        let (base, extra) = DIST_CODES[code];
        let mut d = base as usize - 1;
        while d < base as usize - 1 + (1 << extra) {
            if d < 256 {
                t[d] = code as u8;
            } else {
                t[256 + (d >> 7)] = code as u8;
            }
            d += 1;
        }
        code += 1;
    }
    t
};

/// Maps a match length (3..=258) to `(code_index, extra_bits, extra_value)`
/// where `code_index` is relative to symbol 257.
#[inline]
pub fn length_to_code(len: u16) -> (usize, u8, u16) {
    debug_assert!((3..=258).contains(&len));
    let code = LENGTH_CODE[len as usize] as usize;
    let (base, extra) = LENGTH_CODES[code];
    (code, extra, len - base)
}

/// Maps a distance (1..=32768) to `(code, extra_bits, extra_value)`.
#[inline]
pub fn dist_to_code(dist: u16) -> (usize, u8, u16) {
    debug_assert!(dist >= 1);
    let d = dist as usize - 1;
    let code = DIST_CODE[if d < 256 { d } else { 256 + (d >> 7) }] as usize;
    let (base, extra) = DIST_CODES[code];
    (code, extra, dist - base)
}

/// Fixed literal/length code lengths (§3.2.6).
pub fn fixed_lit_lengths() -> [u8; 288] {
    let mut l = [0u8; 288];
    for (i, item) in l.iter_mut().enumerate() {
        *item = match i {
            0..=143 => 8,
            144..=255 => 9,
            256..=279 => 7,
            _ => 8,
        };
    }
    l
}

/// Fixed distance code lengths: 5 bits for all 32 codes. Codes 30 and 31
/// never occur in valid data but participate in the code space (§3.2.6),
/// which keeps the table Kraft-complete.
pub fn fixed_dist_lengths() -> [u8; 32] {
    [5u8; 32]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn length_code_roundtrip() {
        for len in 3..=258u16 {
            let (idx, extra, val) = length_to_code(len);
            let (base, ebits) = LENGTH_CODES[idx];
            assert_eq!(extra, ebits);
            assert_eq!(base + val, len, "len {len}");
            assert!(val < (1 << extra) || extra == 0 && val == 0);
        }
    }

    #[test]
    fn length_258_uses_code_285() {
        assert_eq!(length_to_code(258), (28, 0, 0));
        // 257 must use code 284 (base 227, 5 extra bits), not 285.
        assert_eq!(length_to_code(257), (27, 5, 30));
    }

    #[test]
    fn dist_code_roundtrip() {
        for dist in 1..=32768u32 {
            let (idx, extra, val) = dist_to_code(dist as u16);
            let (base, ebits) = DIST_CODES[idx];
            assert_eq!(extra, ebits);
            assert_eq!(base as u32 + val as u32, dist);
        }
    }

    #[test]
    fn fixed_tables_shape() {
        let l = fixed_lit_lengths();
        assert_eq!(l[0], 8);
        assert_eq!(l[144], 9);
        assert_eq!(l[256], 7);
        assert_eq!(l[280], 8);
        assert_eq!(fixed_dist_lengths(), [5u8; 32]);
    }
}
