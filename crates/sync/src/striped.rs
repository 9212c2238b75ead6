//! Cache-padded lock striping — the substrate under the downloader's
//! claim set (`dhub-par::ShardedMap`) and the mirror's cache shards and
//! single-flight tables.
//!
//! A single mutex serializes every update; striping the key space over
//! `2^k` independently locked slots lets updates proceed in parallel with
//! conflicts only on same-stripe keys. Each stripe is padded to its own
//! cache line so two cores hammering adjacent stripes don't false-share.

use crate::lock::Mutex;

/// Pads and aligns a value to a 64-byte cache line.
#[derive(Debug, Default)]
#[repr(align(64))]
pub struct CachePadded<T> {
    value: T,
}

impl<T> CachePadded<T> {
    /// Wraps a value in padding.
    pub fn new(value: T) -> CachePadded<T> {
        CachePadded { value }
    }
}

impl<T> std::ops::Deref for CachePadded<T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.value
    }
}

impl<T> std::ops::DerefMut for CachePadded<T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.value
    }
}

/// `2^k` cache-padded mutex-protected slots selected by hash.
pub struct Striped<T> {
    stripes: Vec<CachePadded<Mutex<T>>>,
    mask: u64,
}

impl<T> Striped<T> {
    /// Creates `stripes` slots (rounded up to a power of two, at least
    /// one), each initialized with `init()`.
    pub fn new(stripes: usize, init: impl Fn() -> T) -> Striped<T> {
        let n = stripes.max(1).next_power_of_two();
        Striped {
            stripes: (0..n).map(|_| CachePadded::new(Mutex::new(init()))).collect(),
            mask: n as u64 - 1,
        }
    }

    /// The stripe owning `hash`. Selection uses the high bits so a
    /// hash-map built inside a stripe (which buckets by low bits) stays
    /// decorrelated from stripe choice.
    #[inline]
    pub fn stripe(&self, hash: u64) -> &Mutex<T> {
        &self.stripes[((hash >> 48) & self.mask) as usize]
    }

    /// Direct access to stripe `i` (for whole-structure sweeps).
    pub fn get(&self, i: usize) -> &Mutex<T> {
        &self.stripes[i]
    }

    /// Iterates over every stripe's lock in index order.
    pub fn iter(&self) -> impl Iterator<Item = &Mutex<T>> {
        self.stripes.iter().map(|s| &s.value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rounds_to_power_of_two() {
        assert_eq!(Striped::new(5, || 0u8).stripes.len(), 8);
        assert_eq!(Striped::new(0, || 0u8).stripes.len(), 1);
        assert_eq!(Striped::new(16, || 0u8).stripes.len(), 16);
    }

    #[test]
    fn high_bits_select_stripe() {
        let s = Striped::new(4, || 0u32);
        // Hashes differing only in low bits land on the same stripe …
        assert!(std::ptr::eq(s.stripe(0x0001), s.stripe(0x0002)));
        // … while high-bit changes move stripes.
        assert!(!std::ptr::eq(s.stripe(0u64), s.stripe(1u64 << 48)));
    }

    #[test]
    fn concurrent_counting_sums_exactly() {
        let s = Striped::new(8, || 0u64);
        crate::crew::work_crew(8, |_| {
            for h in 0..10_000u64 {
                *s.stripe(h << 40).lock() += 1;
            }
        });
        let total: u64 = s.iter().map(|m| *m.lock()).sum();
        assert_eq!(total, 80_000);
    }

    #[test]
    fn cache_padding_aligns() {
        assert_eq!(std::mem::align_of::<CachePadded<u8>>(), 64);
        let v: Vec<CachePadded<u8>> = (0..2).map(CachePadded::new).collect();
        let a = &*v[0] as *const u8 as usize;
        let b = &*v[1] as *const u8 as usize;
        assert!(b - a >= 64, "adjacent stripes must not share a line");
    }
}
