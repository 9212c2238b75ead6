//! Property tests: print→parse is the identity on the value model.

use dhub_json::{parse, Json};
use proptest::prelude::*;

fn arb_json() -> impl Strategy<Value = Json> {
    let leaf = prop_oneof![
        Just(Json::Null),
        any::<bool>().prop_map(Json::Bool),
        // Finite doubles that survive text round-trip exactly.
        (-1.0e15f64..1.0e15).prop_map(|n| Json::Num((n * 100.0).round() / 100.0)),
        "[a-zA-Z0-9 /_.:\\\\\"\n\t\u{e9}\u{4e2d}-]{0,32}".prop_map(Json::Str),
    ];
    leaf.prop_recursive(4, 64, 8, |inner| {
        prop_oneof![
            proptest::collection::vec(inner.clone(), 0..6).prop_map(Json::Arr),
            proptest::collection::vec(("[a-z]{1,8}", inner), 0..6).prop_map(|pairs| {
                // Deduplicate keys: objects with repeated keys do not round-trip
                // through the insertion-order model.
                let mut seen = std::collections::HashSet::new();
                Json::Obj(pairs.into_iter().filter(|(k, _)| seen.insert(k.clone())).collect())
            }),
        ]
    })
}

proptest! {
    #[test]
    fn print_parse_roundtrip(v in arb_json()) {
        let text = v.to_string();
        let back = parse(&text).unwrap();
        prop_assert_eq!(back, v);
    }

    #[test]
    fn parser_never_panics(s in "\\PC{0,200}") {
        let _ = parse(&s);
    }
}
