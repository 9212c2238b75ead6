//! `dhub_json::parse` on hostile input: arbitrary text, and valid
//! manifests, recipe envelopes and result envelopes with bytes replaced,
//! cut out, repeated or truncated. A manifest comes straight off the wire
//! and an envelope straight off disk, so the parser must never panic, must
//! agree with the recursive-descent oracle on every input — equal values,
//! or errors at the same offset with the same message — and must allocate
//! no more than the oracle does.

use dhub_json::{parse, Json};
use dhub_oracle::alloc::{allocs_during, CountingAlloc};
use dhub_oracle::json_reference;
use proptest::prelude::*;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Pieces arbitrary text is strung from: structure, literals and their
/// prefixes, number parts, every escape class, raw control and multibyte
/// characters, and numbers past 2^53 and past `f64`.
const PIECES: &[&str] = &[
    "{",
    "}",
    "[",
    "]",
    ":",
    ",",
    "\"",
    "\\",
    " ",
    "\n\t",
    "0",
    "7",
    "-",
    "+",
    ".",
    "e",
    "E",
    "true",
    "false",
    "null",
    "tru",
    "nul",
    "\"k\":",
    "\\n",
    "\\u00e9",
    "\\ud83d\\ude00",
    "\\ud83d",
    "\\udc00",
    "\\x",
    "u",
    "\u{1}",
    "\u{7f}",
    "é",
    "😀",
    "9007199254740993",
    "1e400",
    "-0",
    "0.5e-3",
    "12345678901234567890",
];

fn check(text: &str) -> Result<(), TestCaseError> {
    let (got, fast) = allocs_during(|| parse(text));
    let (want, slow) = allocs_during(|| json_reference(text));
    prop_assert_eq!(&got, &want, "input {:?}", text);
    prop_assert!(
        fast.bytes <= slow.bytes,
        "parse allocated {} bytes, the oracle {} on {:?}",
        fast.bytes,
        slow.bytes,
        text
    );
    Ok(())
}

fn hex64() -> impl Strategy<Value = String> {
    "[0-9a-f]{64}".prop_map(|h| format!("sha256:{h}"))
}

/// An image manifest shaped like `dhub_model::Manifest::to_json`'s.
fn manifest() -> impl Strategy<Value = Json> {
    let layer = (hex64(), any::<u32>()).prop_map(|(digest, size)| {
        let mut o = Json::obj();
        o.set("mediaType", "application/vnd.docker.image.rootfs.diff.tar.gzip")
            .set("size", size as u64)
            .set("digest", digest);
        o
    });
    (proptest::collection::vec(layer, 0..6), "[a-z0-9]{1,8}").prop_map(|(layers, os)| {
        let mut m = Json::obj();
        m.set("schemaVersion", 2u64)
            .set("mediaType", "application/vnd.docker.distribution.manifest.v2+json")
            .set("os", os)
            .set("architecture", "amd64")
            .set("layers", Json::Arr(layers));
        m
    })
}

/// A layer recipe envelope shaped like the durable dedup store's.
fn recipe_envelope() -> impl Strategy<Value = Json> {
    let entry = ("\\PC{1,40}", any::<u32>(), any::<u64>(), hex64(), 0u8..4).prop_map(
        |(path, mode, mtime, digest, kind)| {
            let mut o = Json::obj();
            o.set("path", path).set("mode", mode as u64).set("uid", 0u64).set("gid", 0u64);
            o.set("mtime", mtime);
            match kind {
                0 => o.set("type", "file").set("digest", digest),
                1 => o.set("type", "dir"),
                2 => o.set("type", "symlink").set("target", "../lib\"x\\"),
                _ => o.set("type", "hardlink").set("target", "usr/bin/\u{1}tool"),
            };
            o
        },
    );
    (proptest::collection::vec(entry, 0..8), hex64(), hex64(), any::<u32>()).prop_map(
        |(entries, layer, checksum, blob_len)| {
            let mut recipe = Json::obj();
            recipe.set("layerDigest", layer).set("entries", Json::Arr(entries));
            let mut env = Json::obj();
            env.set("schema", "dhub-persist-recipe-v1")
                .set("blobLen", blob_len as u64)
                .set("checksum", checksum)
                .set("recipe", recipe);
            env
        },
    )
}

/// A queue result envelope: its payload is a whole JSON document carried
/// as an escaped string.
fn result_envelope() -> impl Strategy<Value = Json> {
    (manifest(), "[a-z]{1,6}:[0-9a-f]{8}", hex64()).prop_map(|(payload, id, checksum)| {
        let mut env = Json::obj();
        env.set("schema", "dhub-queue-result-v1")
            .set("id", id)
            .set("payload", payload.to_string())
            .set("checksum", checksum);
        env
    })
}

/// Replaces, cuts out, repeats or truncates at char offsets, so the text
/// stays a `str` whatever it holds.
fn mutate(text: &str, op: u8, at: u32, len: u8, piece: usize) -> String {
    let chars: Vec<char> = text.chars().collect();
    let at = at as usize % (chars.len() + 1);
    let end = (at + len as usize % 8).min(chars.len());
    let head: String = chars[..at].iter().collect();
    let mid: String = chars[at..end].iter().collect();
    let tail: String = chars[end..].iter().collect();
    match op % 4 {
        0 => format!("{head}{}{tail}", PIECES[piece % PIECES.len()]),
        1 => format!("{head}{tail}"),
        2 => format!("{head}{mid}{mid}{tail}"),
        _ => head,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn arbitrary_text_matches_the_oracle(s in "\\PC{0,200}") {
        check(&s)?;
    }

    #[test]
    fn strung_pieces_match_the_oracle(picks in proptest::collection::vec(0usize..PIECES.len(), 0..60)) {
        let text: String = picks.iter().map(|&i| PIECES[i]).collect();
        check(&text)?;
    }

    #[test]
    fn mutated_documents_match_the_oracle(
        doc in prop_oneof![manifest(), recipe_envelope(), result_envelope()],
        ops in proptest::collection::vec((any::<u8>(), any::<u32>(), any::<u8>(), any::<usize>()), 0..4),
    ) {
        let mut text = doc.to_string();
        check(&text)?;
        for (op, at, len, piece) in ops {
            text = mutate(&text, op, at, len, piece);
            check(&text)?;
        }
    }
}

#[test]
fn nesting_limits_and_offsets_match_the_oracle() {
    for depth in [127, 128, 129, 1000] {
        for open in ["[", "{\"a\":"] {
            let text = open.repeat(depth);
            assert_eq!(parse(&text), json_reference(&text), "{open} x {depth}");
        }
        let closed = "[".repeat(depth) + &"]".repeat(depth);
        assert_eq!(parse(&closed), json_reference(&closed), "closed x {depth}");
    }
    for text in
        ["", " ", "{", "{\"a\"", "{\"a\":", "[1,", "\"\\u12", "\"\\ud83d\\", "-", "1.", "1e+"]
    {
        assert_eq!(parse(text), json_reference(text), "{text:?}");
        assert!(parse(text).is_err(), "{text:?}");
    }
}

#[test]
fn a_string_costs_one_exact_allocation() {
    // The oracle's slack on every other string would hide a few bytes too
    // many on one, so a lone string is measured exactly.
    for n in [1, 7, 8, 9, 100, 1000] {
        for (text, len) in [
            (format!("\"{}\"", "\\u00e9".repeat(n)), 2 * n),
            (format!("\"{}\"", "a\\n".repeat(n)), 2 * n),
            (format!("\"{}\"", "\u{e9}".repeat(n)), 2 * n),
        ] {
            let (v, used) = allocs_during(|| parse(&text));
            assert_eq!(v.unwrap().as_str().map(str::len), Some(len), "{text}");
            assert_eq!((used.bytes, used.reallocs), (len, 0), "{text}");
        }
    }
}
