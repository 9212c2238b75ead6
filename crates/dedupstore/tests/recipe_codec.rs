//! The layer recipe codec against its `Json`-tree oracle. `to_json` must
//! write the bytes printing the recipe as a `Json` object gives, and
//! `from_json` must return what lookups in the parsed tree give, on the
//! writer's text and on text no writer of ours produces: keys reordered,
//! repeated (the first wins) or unknown, numbers spelled `1e3`, `1.0` or
//! past 2^53, values of the wrong type, and bytes cut, repeated or
//! replaced.

use dhub_dedupstore::{EntryMeta, LayerRecipe, RecipeEntryKind};
use dhub_json::Json;
use dhub_model::Digest;
use dhub_oracle::{json_reference, recipe_from_json_reference, recipe_json_reference};
use proptest::prelude::*;

/// Paths and link targets: quotes, backslashes, control characters,
/// multibyte text, and lengths past the 100-byte ustar name field.
fn arb_text() -> impl Strategy<Value = String> {
    prop_oneof![
        "\\PC{0,40}",
        "[a-z/\"\\\\\u{1}\u{8}\u{c}\u{1f}\n\t\r\u{e9}\u{65e5}\u{1f600}]{0,30}",
        "[a-z0-9/._-]{101,180}",
    ]
}

fn arb_u32() -> impl Strategy<Value = u32> {
    prop_oneof![Just(0u32), Just(u32::MAX), any::<u32>()]
}

fn arb_u64() -> impl Strategy<Value = u64> {
    prop_oneof![
        Just(0u64),
        Just((1u64 << 53) - 1),
        Just(1u64 << 53),
        Just((1u64 << 53) + 1),
        Just(u64::MAX),
        any::<u64>(),
    ]
}

fn arb_entry() -> impl Strategy<Value = EntryMeta> {
    let kind = (0u8..4, any::<[u8; 32]>(), arb_text()).prop_map(|(k, d, t)| match k {
        0 => RecipeEntryKind::File(Digest(d)),
        1 => RecipeEntryKind::Dir,
        2 => RecipeEntryKind::Symlink(t),
        _ => RecipeEntryKind::Hardlink(t),
    });
    (arb_text(), kind, arb_u32(), arb_u32(), arb_u32(), arb_u64()).prop_map(
        |(path, kind, mode, uid, gid, mtime)| EntryMeta { path, kind, mode, uid, gid, mtime },
    )
}

fn arb_recipe() -> impl Strategy<Value = LayerRecipe> {
    (any::<[u8; 32]>(), proptest::collection::vec(arb_entry(), 0..8))
        .prop_map(|(d, entries)| LayerRecipe { layer_digest: Digest(d), entries })
}

/// Value texts an edit swaps in: numbers `Json::as_u64` reads the same
/// way or rejects, and values of every other kind.
const VALUES: &[&str] = &[
    "0",
    "1e3",
    "1.0",
    "1000.0",
    "1E2",
    "-0",
    "-1",
    "0.5",
    "9007199254740992",
    "9007199254740993",
    "18446744073709551615",
    "4294967296",
    "1e400",
    "\"7\"",
    "null",
    "true",
    "[]",
    "{}",
    "\"file\"",
    "\"dir\"",
    "\"symlink\"",
    "\"socket\"",
    "\"usr/b\\u0069n\"",
    "\"sha256:e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855\"",
    "{\"a\":[1,{\"b\":null}],\"c\":\"\\u00e9\"}",
];

/// Keys an edit adds: every one the codec reads, one it does not, and
/// one spelled with an escape.
const KEYS: &[&str] = &[
    "path",
    "mode",
    "uid",
    "gid",
    "mtime",
    "type",
    "digest",
    "target",
    "layerDigest",
    "entries",
    "x",
    "m\\u006fde",
];

/// A recipe's JSON as editable key / value-text lists: the top level, then
/// one list per entry. The top level's `entries` value is [`ENTRIES`] until
/// it is rendered.
struct Doc {
    top: Vec<(String, String)>,
    entries: Vec<Vec<(String, String)>>,
}

const ENTRIES: &str = "@entries";

fn pairs(v: &Json) -> Vec<(String, String)> {
    match v {
        Json::Obj(pairs) => pairs.iter().map(|(k, v)| (k.clone(), v.to_string())).collect(),
        _ => unreachable!("the writer emits objects"),
    }
}

impl Doc {
    fn of(text: &str) -> Doc {
        let j = json_reference(text).expect("the writer emits JSON");
        let entries = j.get("entries").and_then(Json::as_arr).expect("an entries array");
        let mut top = pairs(&j);
        top.iter_mut().filter(|(k, _)| k == "entries").for_each(|(_, v)| *v = ENTRIES.into());
        Doc { top, entries: entries.iter().map(pairs).collect() }
    }

    /// The pair list edit `at` lands in: an entry, or the top level.
    fn list(&mut self, at: usize) -> &mut Vec<(String, String)> {
        match at % (self.entries.len() + 1) {
            i if i < self.entries.len() => &mut self.entries[i],
            _ => &mut self.top,
        }
    }

    fn edit(&mut self, op: u8, at: usize, pick: usize) {
        let list = self.list(at);
        let n = list.len();
        let value = VALUES[pick % VALUES.len()].to_string();
        match op % 5 {
            // Swap a value.
            0 if n > 0 => list[pick % n].1 = value,
            // Reorder.
            1 if n > 0 => list.rotate_left(pick % n),
            // Repeat a key, before or after the original.
            2 if n > 0 => {
                let key = list[pick % n].0.clone();
                list.insert(if pick.is_multiple_of(2) { 0 } else { n }, (key, value));
            }
            // Add a key, known or not.
            3 => list.insert(pick % (n + 1), (KEYS[pick % KEYS.len()].to_string(), value)),
            // Drop a key.
            4 if n > 0 => {
                list.remove(pick % n);
            }
            _ => {}
        }
    }

    fn render(&self) -> String {
        let obj = |pairs: &[(String, String)], entries: &str| {
            let body: Vec<String> = pairs
                .iter()
                .map(|(k, v)| format!("\"{k}\":{}", if v == ENTRIES { entries } else { v }))
                .collect();
            format!("{{{}}}", body.join(","))
        };
        let entries: Vec<String> = self.entries.iter().map(|e| obj(e, "")).collect();
        obj(&self.top, &format!("[{}]", entries.join(",")))
    }
}

/// Replaces, cuts out, repeats or truncates at char offsets.
fn mutate(text: &str, op: u8, at: u32, len: u8, pick: usize) -> String {
    let chars: Vec<char> = text.chars().collect();
    let at = at as usize % (chars.len() + 1);
    let end = (at + len as usize % 8).min(chars.len());
    let head: String = chars[..at].iter().collect();
    let mid: String = chars[at..end].iter().collect();
    let tail: String = chars[end..].iter().collect();
    match op % 4 {
        0 => format!("{head}{}{tail}", ["\"", ",", "}", "]", "1", "\\", " "][pick % 7]),
        1 => format!("{head}{tail}"),
        2 => format!("{head}{mid}{mid}{tail}"),
        _ => head,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn to_json_writes_the_json_printers_bytes(recipe in arb_recipe()) {
        prop_assert_eq!(recipe.to_json(), recipe_json_reference(&recipe));
    }

    #[test]
    fn from_json_reads_what_the_json_tree_reads(
        recipe in arb_recipe(),
        edits in proptest::collection::vec((any::<u8>(), any::<usize>(), any::<usize>()), 0..5),
    ) {
        let text = recipe.to_json();
        prop_assert_eq!(LayerRecipe::from_json(&text), recipe_from_json_reference(&text));
        let mut doc = Doc::of(&text);
        for (op, at, pick) in edits {
            doc.edit(op, at, pick);
            let edited = doc.render();
            prop_assert_eq!(
                LayerRecipe::from_json(&edited),
                recipe_from_json_reference(&edited),
                "text {:?}",
                edited
            );
        }
    }

    #[test]
    fn from_json_on_damaged_text_reads_what_the_json_tree_reads(
        recipe in arb_recipe(),
        ops in proptest::collection::vec((any::<u8>(), any::<u32>(), any::<u8>(), any::<usize>()), 1..4),
    ) {
        let mut text = recipe.to_json();
        for (op, at, len, pick) in ops {
            text = mutate(&text, op, at, len, pick);
            prop_assert_eq!(LayerRecipe::from_json(&text), recipe_from_json_reference(&text), "text {:?}", text);
        }
    }
}

#[test]
fn lenient_spellings_decode_as_the_tree_reads_them() {
    let digest = Digest::of(b"x").to_docker_string();
    let entry = |fields: &str| format!(r#"{{"layerDigest":"{digest}","entries":[{{{fields}}}]}}"#);
    let read = |fields: &str| {
        let text = entry(fields);
        let got = LayerRecipe::from_json(&text);
        assert_eq!(got, recipe_from_json_reference(&text), "{text}");
        got.map(|r| r.entries[0].clone())
    };
    let base = r#""path":"p","uid":0,"gid":0,"type":"dir""#;
    // `1e3` and `1.0` are integers; past 2^53 the value rounds to it, as
    // the f64 it is read through does; `mode` keeps the low 32 bits.
    let e = read(&format!(r#"{base},"mode":1e3,"mtime":1.0"#)).unwrap();
    assert_eq!((e.mode, e.mtime), (1000, 1));
    let e = read(&format!(r#"{base},"mode":4294967297,"mtime":9007199254740993"#)).unwrap();
    assert_eq!((e.mode, e.mtime), (1, 1 << 53));
    assert_eq!(read(&format!(r#"{base},"mode":0,"mtime":18014398509481984"#)), None);
    assert_eq!(read(&format!(r#"{base},"mode":0.5,"mtime":0"#)), None);
    // The first of a repeated key wins, whatever follows it.
    let e = read(&format!(r#""mode":7,{base},"mode":"x","mtime":0,"type":"file""#)).unwrap();
    assert_eq!((e.mode, e.kind), (7, RecipeEntryKind::Dir));
    assert_eq!(read(&format!(r#""mode":"x",{base},"mode":7,"mtime":0"#)), None);
    // A field the type does not use may hold anything.
    assert!(read(&format!(r#"{base},"mode":0,"mtime":0,"digest":5,"target":[]"#)).is_some());
    assert_eq!(
        read(r#""path":"p","uid":0,"gid":0,"mode":0,"mtime":0,"type":"file","digest":5"#),
        None
    );
}
