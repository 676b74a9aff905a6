//! The instance JSON codec end to end: JSON text ⇄ `serde_json` ⇄
//! `dexd::json`, the one path both `dexd` request bodies and `dexcli`
//! instance files take.
//!
//! * Escaped surrogate pairs decode to one scalar; lone or reversed
//!   surrogates are typed errors.
//! * Round trip and escape equivalence on generated instances whose
//!   strings mix ASCII, multibyte UTF-8, quotes, backslashes, control
//!   characters and labeled nulls.
//! * Garbage (truncated or mutated bodies) never panics. Through the
//!   `dexd` router it answers 400 `bad_json`, never 500, and never
//!   quarantines the mapping.
//! * A complexity guard: a 4 MiB body must decode within a deadline
//!   that only a linear-time decoder meets.

use dex::logic::parse_mapping;
use dex::relational::{Instance, Schema, Tuple, Value};
use dexd::handlers::route;
use dexd::json::{instance_from_json, instance_to_json};
use dexd::{Catalog, Request, ServerConfig, ServerHandle};
use proptest::prelude::*;
use proptest::test_runner::TestRng;
use serde_json::Value as Json;
use std::fmt::Write as _;
use std::sync::mpsc;
use std::time::{Duration, Instant};

const MAPPING: &str = "source R(a, b);\n\
                       source S(a);\n\
                       target T(a, b);\n\
                       R(x, y) -> T(x, y);\n\
                       S(x) -> T(x, z);\n";

fn source_schema() -> Schema {
    parse_mapping(MAPPING)
        .expect("test mapping parses")
        .source()
        .clone()
}

fn decode(text: &str, schema: &Schema) -> Result<Instance, String> {
    let json: Json = serde_json::from_str(text).map_err(|e| e.to_string())?;
    instance_from_json(&json, schema)
}

// ---------------------------------------------------------------------
// Escaped surrogate pairs
// ---------------------------------------------------------------------

#[test]
fn escaped_surrogate_pairs_decode_to_one_scalar() {
    let schema = source_schema();
    let inst = decode(
        r#"{"S": [["\ud83d\ude00"], ["\uD834\uDD1E clef"], ["caf\u00e9 \u540d"]]}"#,
        &schema,
    )
    .expect("RFC 8259 §7 surrogate pairs decode");
    let mut expected = Instance::empty(schema.clone());
    for s in ["😀", "𝄞 clef", "café 名"] {
        expected
            .insert("S", Tuple::from(vec![Value::str(s)]))
            .unwrap();
    }
    assert_eq!(inst, expected);

    for bad in [
        r#"{"S": [["\ud83d"]]}"#,
        r#"{"S": [["\ud83dx"]]}"#,
        r#"{"S": [["\ud83dA"]]}"#,
        r#"{"S": [["\ud83d\ud83d"]]}"#,
        r#"{"S": [["\ude00"]]}"#,
        r#"{"S": [["\ude00\ud83d"]]}"#,
        r#"{"S": [["\ud83d\ude0"]]}"#,
    ] {
        let err = decode(bad, &schema).expect_err(bad);
        assert!(
            err.contains("at byte"),
            "typed decode error for {bad}: {err}"
        );
    }
}

// ---------------------------------------------------------------------
// Generated instances
// ---------------------------------------------------------------------

/// Characters the generated strings draw from: ASCII, two- to
/// four-byte UTF-8, every character JSON must escape, and the
/// separators a naive scanner could stop at.
const CHARS: &[char] = &[
    'a', 'Z', '7', ' ', '-', '/', 'é', 'ß', '名', '前', '€', '😀', '𝄞', '"', '\\', '\n', '\r',
    '\t', '\u{0}', '\u{1}', '\u{1f}', '\u{7f}', '\u{2028}', '{', '}', '[', ']', ',', ':',
];

fn cell() -> impl Strategy<Value = Value> {
    prop_oneof![
        proptest::collection::vec(proptest::sample::select(CHARS), 0..12)
            .prop_map(|cs| Value::str(cs.into_iter().collect::<String>())),
        (-1_000_000i64..1_000_000).prop_map(Value::int),
        any::<bool>().prop_map(Value::bool),
        (0u64..6).prop_map(Value::null),
    ]
}

/// Rows for `R(a, b)` and `S(a)`.
type Rows = (Vec<(Value, Value)>, Vec<Value>);

fn rows() -> impl Strategy<Value = Rows> {
    (
        proptest::collection::vec((cell(), cell()), 0..8),
        proptest::collection::vec(cell(), 0..5),
    )
}

fn build(schema: &Schema, (r, s): Rows) -> Instance {
    let mut inst = Instance::empty(schema.clone());
    for (a, b) in r {
        inst.insert("R", Tuple::from(vec![a, b])).unwrap();
    }
    for a in s {
        inst.insert("S", Tuple::from(vec![a])).unwrap();
    }
    inst
}

/// Render `j` as JSON with every character of every string written as
/// `\uXXXX` UTF-16 escapes (surrogate pairs outside the BMP), in mixed
/// hex case.
fn all_escaped(j: &Json, out: &mut String) {
    match j {
        Json::String(s) => {
            out.push('"');
            let mut units = [0u16; 2];
            for (i, c) in s.chars().enumerate() {
                for u in c.encode_utf16(&mut units) {
                    if i % 2 == 0 {
                        let _ = write!(out, "\\u{u:04x}");
                    } else {
                        let _ = write!(out, "\\u{u:04X}");
                    }
                }
            }
            out.push('"');
        }
        Json::Array(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                all_escaped(item, out);
            }
            out.push(']');
        }
        Json::Object(m) => {
            out.push('{');
            for (i, (k, v)) in m.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                all_escaped(&Json::String(k.clone()), out);
                out.push(':');
                all_escaped(v, out);
            }
            out.push('}');
        }
        scalar => out.push_str(&scalar.to_string()),
    }
}

/// Bytes a mutation writes: structural characters, escape starts,
/// control bytes, and the lead bytes of multibyte and invalid UTF-8.
const MUTANT_BYTES: &[u8] = &[
    b'"', b'\\', b'{', b'}', b'[', b']', b',', b':', b'u', b'0', b'x', b' ', 0x00, 0x1f, 0x7f,
    0x80, 0xc3, 0xe5, 0xf0, 0xff,
];

fn mutate(text: &str, pos: usize, byte: u8) -> Vec<u8> {
    let mut bytes = text.as_bytes().to_vec();
    let pos = pos % bytes.len();
    bytes[pos] = byte;
    bytes
}

/// Truncate `text` to at most `cut` bytes (mod its length), backing
/// off to a character boundary.
fn truncate(text: &str, cut: usize) -> &str {
    let mut cut = cut % text.len();
    while !text.is_char_boundary(cut) {
        cut -= 1;
    }
    &text[..cut]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn instances_round_trip_through_json(rows in rows()) {
        let schema = source_schema();
        let inst = build(&schema, rows);
        let text = serde_json::to_string(&instance_to_json(&inst)).unwrap();
        prop_assert_eq!(decode(&text, &schema), Ok(inst.clone()));
        let pretty = serde_json::to_string_pretty(&instance_to_json(&inst)).unwrap();
        prop_assert_eq!(decode(&pretty, &schema), Ok(inst));
    }

    #[test]
    fn unicode_escapes_decode_equal(rows in rows()) {
        let schema = source_schema();
        let inst = build(&schema, rows);
        let mut text = String::new();
        all_escaped(&instance_to_json(&inst), &mut text);
        prop_assert!(text.is_ascii());
        prop_assert_eq!(decode(&text, &schema), Ok(inst));
    }

    #[test]
    fn garbage_is_an_error_never_a_panic(
        rows in rows(),
        cut in 0usize..100_000,
        pos in 0usize..100_000,
        byte in proptest::sample::select(MUTANT_BYTES),
    ) {
        let schema = source_schema();
        let text = serde_json::to_string(&instance_to_json(&build(&schema, rows))).unwrap();
        // Every strict prefix of an object lacks its closing brace.
        let prefix = truncate(&text, cut);
        prop_assert!(decode(prefix, &schema).is_err(), "{prefix:?} decoded");
        // A mutation may still be valid JSON; it must never panic.
        if let Ok(mutant) = String::from_utf8(mutate(&text, pos, byte)) {
            let _ = decode(&mutant, &schema);
        }
    }
}

// ---------------------------------------------------------------------
// Garbage through the dexd router
// ---------------------------------------------------------------------

fn chase(ctx: &dexd::ServerCtx, body: Vec<u8>) -> dexd::Response {
    let req = Request {
        method: "POST".to_string(),
        path: "/v1/mappings/m/chase".to_string(),
        body,
    };
    route(&req, ctx)
}

#[test]
fn garbage_bodies_answer_400_and_never_quarantine() {
    let catalog = Catalog::from_texts(&[("m", MAPPING)]).unwrap();
    let handle = ServerHandle::spawn(ServerConfig::default(), catalog).unwrap();
    let ctx = handle.ctx();
    let entry = ctx.catalog.get("m").unwrap();
    let schema = source_schema();
    let strategy = (
        rows(),
        0usize..100_000,
        0usize..100_000,
        proptest::sample::select(MUTANT_BYTES),
    );
    let mut rng = TestRng::deterministic("garbage_bodies_answer_400_and_never_quarantine");
    for _ in 0..128 {
        let (rows, cut, pos, byte) = strategy.generate(&mut rng);
        let source = serde_json::to_string(&instance_to_json(&build(&schema, rows))).unwrap();
        let body = format!("{{\"source\": {source}}}");
        assert_eq!(chase(ctx, body.clone().into_bytes()).status, 200, "{body}");

        let prefix = truncate(&body, cut).as_bytes().to_vec();
        let resp = chase(ctx, prefix.clone());
        if !prefix.is_empty() {
            assert_eq!(resp.status, 400, "{:?}", String::from_utf8_lossy(&prefix));
            assert_eq!(resp.body["error"]["kind"].as_str(), Some("bad_json"));
        }

        let mutant = mutate(&body, pos, byte);
        let is_json =
            std::str::from_utf8(&mutant).is_ok_and(|t| serde_json::from_str::<Json>(t).is_ok());
        let resp = chase(ctx, mutant.clone());
        assert_ne!(resp.status, 500, "{}", String::from_utf8_lossy(&mutant));
        if !is_json {
            assert_eq!(resp.status, 400);
            assert_eq!(resp.body["error"]["kind"].as_str(), Some("bad_json"));
        }
        assert!(!entry.is_poisoned(), "garbage quarantined the mapping");
    }
    handle.shutdown();
}

// ---------------------------------------------------------------------
// Complexity guard
// ---------------------------------------------------------------------

/// Decode time of the 4 MiB body below in an unoptimized test build:
/// 0.51–0.62 s measured alone on a 2-vCPU x86-64 host, rounded up for
/// a suite running beside it.
const LINEAR_DEBUG_DECODE: Duration = Duration::from_secs(1);

/// A quadratic decoder (one that re-validates the rest of the input at
/// every character, as an earlier stand-in did) needs hours on this
/// body. The deadline is 30× the linear decoder's time, so it neither
/// hangs the suite on a regression nor flakes on a slow host.
#[test]
fn four_mib_body_decodes_in_linear_time() {
    let mut body = String::from(r#"{"R": ["#);
    let mut rows = 0usize;
    while body.len() < 4 << 20 {
        if rows > 0 {
            body.push(',');
        }
        let _ = write!(body, r#"["名前-é-😀-{rows}","部署\"{rows}\\€"]"#);
        rows += 1;
    }
    body.push_str("]}");
    let len = body.len();

    let (tx, rx) = mpsc::channel();
    let worker = std::thread::spawn(move || {
        let start = Instant::now();
        let inst = decode(&body, &source_schema());
        let _ = tx.send((inst.map(|i| i.fact_count()), start.elapsed()));
    });
    let deadline = LINEAR_DEBUG_DECODE * 30;
    match rx.recv_timeout(deadline) {
        Ok((facts, took)) => {
            worker.join().unwrap();
            assert_eq!(facts, Ok(rows), "all {rows} rows of {len} bytes decode");
            eprintln!("decoded {len} bytes ({rows} rows) in {took:?}");
        }
        // The worker is left running: joining a quadratic decode would
        // hang the suite, and the process exits when the tests end.
        Err(_) => panic!("a {len}-byte body did not decode within {deadline:?}: not linear time"),
    }
}
