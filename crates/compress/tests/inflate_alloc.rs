//! Allocation behaviour of `inflate_into` under wrong size hints, counted
//! by a global allocator wrapper: a hint that is too small (or zero) must
//! grow the output geometrically while the fast loop keeps running, and a
//! generous one must never move it.

use dhub_compress::{deflate, inflate_into, CompressOptions};
use dhub_oracle::alloc::{allocs_during, CountingAlloc};
use dhub_oracle::inflate_reference;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// 1 MiB of layer-like text: long matches and literal runs, all Huffman.
fn stream() -> (Vec<u8>, Vec<u8>) {
    let line = b"var/lib/dpkg/info/libssl3:amd64.md5sums\n";
    let data: Vec<u8> = (0..1usize << 20)
        .map(|i| line[i % line.len()] ^ (i / 4099 % 3) as u8)
        .collect();
    let c = deflate(&data, &CompressOptions::default());
    (data, c)
}

#[test]
fn zero_hint_grows_geometrically() {
    let (data, c) = stream();
    assert_eq!(inflate_reference(&c).unwrap(), data);
    let mut out = Vec::new();
    let ((), used) = allocs_during(|| inflate_into(&c, &mut out, Some(0)).unwrap());
    assert!(out == data);
    // Doubling from a few hundred bytes to 1 MiB is about a dozen moves;
    // growing by one fast-loop margin at a time would be thousands.
    let n = used.reallocs;
    assert!(n <= 24, "{n} reallocations to inflate 1 MiB from a zero hint");
}

#[test]
fn huge_hint_never_moves_the_buffer() {
    let (data, c) = stream();
    let mut out = Vec::new();
    let ((), used) = allocs_during(|| inflate_into(&c, &mut out, Some(64 << 20)).unwrap());
    assert!(out == data);
    assert!(out.capacity() >= 64 << 20);
    assert_eq!(used.reallocs, 0, "an over-sized hint reallocated");
}
