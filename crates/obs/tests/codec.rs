//! The JSON codec contract: the `TraceRecord` line format, the enum name
//! tables, and what the strict reader rejects. Trace files come from
//! outside the program, so every rejection is a typed
//! [`json::Error`] — never a panic — and the fuzz at the bottom drives
//! arbitrary and mutated input through [`validate_jsonl`].

use tchain_obs::json::{self, Error};
use tchain_obs::{
    to_jsonl, validate_jsonl, EndCause, Event, MetricName, OracleKind, Phase, RetryMsg,
    TraceRecord, WireMsg,
};
use tchain_sim::{ensure, ensure_eq, forall, sized};

/// snake_case of an UpperCamelCase name, written independently of the
/// compile-time version in `tchain_obs::json`.
fn snake(camel: &str) -> String {
    let mut out = String::new();
    for (i, c) in camel.chars().enumerate() {
        if c.is_ascii_uppercase() && i > 0 {
            out.push('_');
        }
        out.push(c.to_ascii_lowercase());
    }
    out
}

/// One test per unit enum: every variant's name is snake_case of its
/// `Debug` name, parses back, and is what the JSON form spells.
macro_rules! name_table_tests {
    ($($test:ident: $enum:ident),*) => {$(
        #[test]
        fn $test() {
            assert!(!$enum::ALL.is_empty());
            for &v in $enum::ALL {
                assert_eq!(v.name(), snake(&format!("{v:?}")));
                assert_eq!($enum::from_name(v.name()), Some(v));
                assert_eq!(json::to_string(&v), format!("\"{}\"", v.name()));
                assert_eq!(json::from_str::<$enum>(&json::to_string(&v)), Ok(v));
            }
            assert_eq!($enum::from_name("bogus"), None);
            assert_eq!(
                json::from_str::<$enum>("\"bogus\""),
                Err(Error::UnknownName { of: stringify!($enum), got: "bogus".into() })
            );
        }
    )*};
}

name_table_tests!(
    end_cause_names: EndCause,
    retry_msg_names: RetryMsg,
    wire_msg_names: WireMsg,
    metric_name_names: MetricName,
    oracle_kind_names: OracleKind,
    phase_names: Phase
);

/// One row per [`Event`] variant, in declaration order.
fn one_of_each() -> Vec<Event> {
    vec![
        Event::TxnStart { txn: 1, chain: 2, donor: 3, requestor: 4, payee: None, piece: 6 },
        Event::UploadDone { txn: 1, donor: 3, requestor: 4 },
        Event::ReportSent { txn: 1, from: 5, to: 3, falsified: false },
        Event::KeySent { txn: 1, from: 3, to: 4, escrowed: true },
        Event::KeyDelivered { txn: 1, requestor: 4, piece: 6 },
        Event::TxnEnd { txn: 1, chain: 2, completed: true, cause: EndCause::NoPayee },
        Event::ChainOpen { chain: 2, seeder: true },
        Event::ChainClose { chain: 2, length: 9, cause: EndCause::Stalled },
        Event::Retry { txn: 1, msg: RetryMsg::Report, attempt: 2 },
        Event::KeyEscrowed { txn: (1 << 53) + 1 },
        Event::WatchdogClose { txn: 1 },
        Event::PayeeReassigned { txn: 1 },
        Event::Unchoke { peer: 1, target: 2, optimistic: true },
        Event::Choke { peer: 1, target: 2 },
        Event::PeerJoin { peer: 1, compliant: false },
        Event::PeerDepart { peer: 1 },
        Event::PeerCrash { peer: 1 },
        Event::CtrlDropped { from: 1, to: 2 },
        Event::CtrlDelayed { from: 1, to: 2, until: 0.1 + 0.2 },
        Event::FrameSent { span: 7, to: 2, msg: WireMsg::PieceData },
        Event::FrameReceived { span: 7, from: 1, msg: WireMsg::Key },
        Event::MetricSample { peer: 1, metric: MetricName::KeysReceived, value: u64::MAX },
    ]
}

#[test]
fn every_event_variant_round_trips_plain_and_stamped() {
    let events = one_of_each();
    let debug_names: Vec<String> = events
        .iter()
        .map(|e| snake(format!("{e:?}").split([' ', '{']).next().unwrap()))
        .collect();
    assert_eq!(debug_names, Event::NAMES, "one row per variant, in declaration order");
    for (i, event) in events.into_iter().enumerate() {
        assert_eq!(event.name(), debug_names[i]);
        let plain = TraceRecord::plain(i as f64 * 0.5, i as u64, event);
        let stamped = TraceRecord { origin: Some(3), lamport: Some(17 + i as u64), ..plain };
        for (record, head) in [
            (plain, format!("{{\"t\":{:?},\"seq\":{i},\"type\":", plain.t)),
            (stamped, format!("{{\"t\":{:?},\"seq\":{i},\"origin\":3,\"lamport\":{},\"type\":", plain.t, 17 + i)),
        ] {
            let line = json::to_string(&record);
            assert!(line.starts_with(&format!("{head}\"{}\"", event.name())), "{line}");
            assert_eq!(json::from_str::<TraceRecord>(&line), Ok(record), "{line}");
        }
        // An event on its own (the Chrome `args` payload) is the same
        // object without the record's members.
        let args = json::to_string(&event);
        assert!(args.starts_with(&format!("{{\"type\":\"{}\"", event.name())), "{args}");
        assert!(json::to_string(&plain).ends_with(&args[1..]), "{args}");
    }
}

#[test]
fn the_line_format_is_fixed_and_members_may_arrive_in_any_order() {
    let record = TraceRecord::plain(
        12.5,
        7,
        Event::TxnStart { txn: 1, chain: 2, donor: 3, requestor: 4, payee: Some(5), piece: 6 },
    );
    let line = r#"{"t":12.5,"seq":7,"type":"txn_start","txn":1,"chain":2,"donor":3,"requestor":4,"payee":5,"piece":6}"#;
    assert_eq!(json::to_string(&record), line);
    let shuffled = r#" { "piece":6, "type":"txn_start", "payee":5, "seq":7, "donor":3,
        "chain":2, "requestor":4, "txn":1, "t":12.5 } "#;
    assert_eq!(json::from_str::<TraceRecord>(shuffled), Ok(record));
    // An absent `Option` member is `None`, and so is an explicit null.
    let absent = r#"{"t":12.5,"seq":7,"type":"txn_start","txn":1,"chain":2,"donor":3,"requestor":4,"piece":6}"#;
    let none = TraceRecord { event: Event::TxnStart { txn: 1, chain: 2, donor: 3, requestor: 4, payee: None, piece: 6 }, ..record };
    assert_eq!(json::from_str::<TraceRecord>(absent), Ok(none));
    assert!(json::to_string(&none).contains("\"payee\":null"));
    assert_eq!(json::from_str::<TraceRecord>(&json::to_string(&none)), Ok(none));
}

#[test]
fn malformed_lines_are_typed_errors() {
    let parse = json::from_str::<TraceRecord>;
    let syntax = |text: &str, want: &str| match parse(text) {
        Err(Error::Syntax { what, .. }) => assert_eq!(what, want, "{text}"),
        other => panic!("{text}: expected a syntax error, got {other:?}"),
    };
    assert_eq!(
        parse(r#"{"t":0.0,"seq":0,"type":"peer_join","peer":1,"compliant":true,"x":1}"#),
        Err(Error::UnknownField("x".into()))
    );
    assert_eq!(
        parse(r#"{"t":0.0,"seq":0,"type":"peer_join","peer":1}"#),
        Err(Error::MissingField("compliant"))
    );
    assert_eq!(parse(r#"{"seq":0,"type":"peer_depart","peer":1}"#), Err(Error::MissingField("t")));
    assert_eq!(parse(r#"{"t":0.0,"seq":0,"peer":1}"#), Err(Error::MissingField("type")));
    assert_eq!(
        parse(r#"{"t":0.0,"seq":0,"seq":1,"type":"peer_depart","peer":1}"#),
        Err(Error::DuplicateKey("seq".into()))
    );
    assert_eq!(
        parse(r#"{"t":0.0,"seq":0,"type":"peer_vanish","peer":1}"#),
        Err(Error::UnknownName { of: "Event", got: "peer_vanish".into() })
    );
    assert_eq!(
        parse(r#"{"t":0.0,"seq":0,"type":"metric_sample","peer":1,"metric":"bogus","value":3}"#),
        Err(Error::UnknownName { of: "MetricName", got: "bogus".into() })
    );
    syntax(r#"{"t":0.0,"seq":0,"type":"peer_depart","peer":1} x"#, "trailing bytes after the value");
    syntax(r#"{"t":0.0,"seq":0,"type":"peer_depart","peer":1}{}"#, "trailing bytes after the value");
    syntax(r#"{"t":0.0,"seq":0,"type":"peer_dep"#, "unterminated string");
    syntax(r#"{"t":0.0,"seq":0,"type":"\ud800","peer":1}"#, "lone surrogate escape");
    syntax(r#"{"t":0.0,"seq":0,"type":"\udc00\ud800","peer":1}"#, "lone surrogate escape");
    syntax(r#"{"t":0.0,"seq":0,"type":"\ud800A","peer":1}"#, "lone surrogate escape");
    syntax(r#"{"t":0.0,"seq":0,"type":"\x","peer":1}"#, "unknown escape");
    syntax("{\"t\":0.0,\"seq\":0,\"type\":\"a\nb\",\"peer\":1}", "raw control character in string");
    syntax(r#"{"t":01,"seq":0}"#, "expected `,` or the closing bracket");
    syntax(r#"{"t":1.,"seq":0}"#, "expected a digit");
    syntax(r#"{"t":+1,"seq":0}"#, "expected a value");
    syntax(r#"{"t":0.0,}"#, "expected a string");
    syntax("", "expected a value");
    assert!(matches!(parse(r#"{"t":1e999,"seq":0}"#), Err(Error::NumberOutOfRange(5))));
    assert!(matches!(parse(r#"{"t":-1e999,"seq":0}"#), Err(Error::NumberOutOfRange(5))));
    // A float, a negative or an over-wide integer where a u64/u32 belongs.
    for bad in ["1.0", "1e0", "-1", "18446744073709551616", "\"1\"", "null"] {
        let line = format!(r#"{{"t":0.0,"seq":{bad},"type":"peer_depart","peer":1}}"#);
        assert_eq!(parse(&line), Err(Error::Expected("an unsigned integer")), "{line}");
    }
    assert_eq!(
        parse(r#"{"t":0.0,"seq":0,"type":"peer_depart","peer":4294967296}"#),
        Err(Error::Expected("an integer below 2^32"))
    );
    assert_eq!(
        parse(r#"{"t":"0","seq":0,"type":"peer_depart","peer":1}"#),
        Err(Error::Expected("a number"))
    );
    assert_eq!(
        parse(r#"{"t":0.0,"seq":0,"type":"peer_join","peer":1,"compliant":1}"#),
        Err(Error::Expected("a boolean"))
    );
    assert_eq!(parse("[]"), Err(Error::Expected("an object")));
    assert_eq!(parse(r#"{"t":0.0,"seq":0,"type":7}"#), Err(Error::Expected("a string")));
}

#[test]
fn nesting_is_bounded() {
    let nested = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
    // The element type is irrelevant: the bound trips while parsing.
    assert_eq!(json::from_str::<Vec<f64>>(&nested(1)), Ok(vec![]));
    assert_eq!(
        json::from_str::<Vec<f64>>(&nested(json::MAX_DEPTH)),
        Err(Error::Expected("a number"))
    );
    assert_eq!(
        json::from_str::<Vec<f64>>(&nested(json::MAX_DEPTH + 1)),
        Err(Error::TooDeep(json::MAX_DEPTH))
    );
    // Far past the bound: an error, not a stack overflow.
    assert_eq!(
        json::from_str::<TraceRecord>(&"{\"a\":".repeat(100_000)),
        Err(Error::TooDeep(json::MAX_DEPTH * 5))
    );
}

#[test]
fn integers_are_exact_and_floats_keep_their_bits() {
    for n in [0, 1, (1 << 53) + 1, u64::MAX - 1, u64::MAX] {
        let record = TraceRecord::plain(0.0, n, Event::KeyEscrowed { txn: n });
        let line = json::to_string(&record);
        assert!(line.contains(&format!("\"seq\":{n},")) && line.contains(&format!("\"txn\":{n}}}")));
        assert_eq!(json::from_str::<TraceRecord>(&line), Ok(record));
    }
    let floats = [0.0, -0.0, 1.0, 1e-7, 1e21, 0.1 + 0.2, f64::MIN_POSITIVE, f64::MAX, -1.5e300, 5e-324];
    for x in floats {
        let text = json::to_string(&x);
        assert!(text.contains(['.', 'e']), "{text} must not read as an integer");
        let back: f64 = json::from_str(&text).unwrap();
        assert_eq!(back.to_bits(), x.to_bits(), "{text}");
        let record = TraceRecord::plain(x, 0, Event::CtrlDelayed { from: 1, to: 2, until: x });
        let back: TraceRecord = json::from_str(&json::to_string(&record)).unwrap();
        assert_eq!((back.t.to_bits(), back.event), (x.to_bits(), record.event));
    }
    assert_eq!(json::to_string(&1.0), "1.0");
    assert_eq!(json::to_string(&-0.0), "-0.0");
    assert_eq!(json::to_string(&1e21), "1e21");
    assert_eq!(json::to_string(&(0.1 + 0.2)), "0.30000000000000004");
    // An integer literal is a fine f64 (`"t":1`), and non-finite values,
    // which JSON cannot spell, are written as null.
    assert_eq!(json::from_str::<f64>("1"), Ok(1.0));
    assert_eq!(json::from_str::<f64>("-3"), Ok(-3.0));
    assert_eq!(json::to_string(&vec![f64::NAN, f64::INFINITY]), "[null,null]");
}

tchain_obs::json_struct! {
    /// A document with one of everything the figure writers nest.
    struct Doc {
        name: String,
        rows: Vec<(u32, f64)>,
        none: Option<u64>,
        empty: Vec<u64>,
        map: std::collections::BTreeMap<String, u64>,
    }
}

#[test]
fn writer_layouts_and_string_escapes() {
    let doc = Doc {
        name: "a\"b\\c\n\t\u{1}é😀".into(),
        rows: vec![(1, 0.5)],
        none: None,
        empty: vec![],
        map: [("k".to_string(), 2)].into(),
    };
    let name = r#""a\"b\\c\n\t\u0001é😀""#;
    assert_eq!(
        json::to_string(&doc),
        format!(r#"{{"name":{name},"rows":[[1,0.5]],"none":null,"empty":[],"map":{{"k":2}}}}"#)
    );
    let pretty = format!(
        "{{\n  \"name\": {name},\n  \"rows\": [\n    [\n      1,\n      0.5\n    ]\n  ],\n  \
         \"none\": null,\n  \"empty\": [],\n  \"map\": {{\n    \"k\": 2\n  }}\n}}"
    );
    assert_eq!(json::to_string_pretty(&doc), pretty);
    // Escapes read back, including the forms the writer never emits.
    assert_eq!(json::from_str::<String>(name).as_deref(), Ok(doc.name.as_str()));
    assert_eq!(
        json::from_str::<String>(r#""é😀\/\b\f\r""#).as_deref(),
        Ok("é😀/\u{8}\u{c}\r")
    );
}

/// Valid lines of every shape, for the fuzz to mutate.
fn corpus() -> Vec<String> {
    let records: Vec<TraceRecord> = one_of_each()
        .into_iter()
        .enumerate()
        .map(|(i, e)| TraceRecord { origin: Some(i as u32 % 4), lamport: Some(i as u64 + 1), ..TraceRecord::plain(i as f64, i as u64, e) })
        .collect();
    assert_eq!(validate_jsonl(&to_jsonl(&records)), Ok(records.len()));
    to_jsonl(&records).lines().map(str::to_string).collect()
}

/// Random bytes, and single-byte mutations of valid lines, go through
/// `validate_jsonl` without a panic (`forall` reports one as a failure);
/// a mutant the validator accepts must survive a write/read round trip.
#[test]
fn validate_jsonl_survives_garbage_and_mutations() {
    const TOKENS: &[u8] = b"{}[]\",:\\u0-9eE. ";
    let lines = corpus();
    forall(0x1A50F, 2048, |rng, size| {
        let mut bytes = if rng.chance(0.25) {
            let mut soup = vec![0u8; sized(rng, size, 0, 200)];
            rng.fill(&mut soup);
            soup
        } else {
            let mut line = lines[rng.below(lines.len())].clone().into_bytes();
            let at = rng.below(line.len());
            match rng.below(3) {
                0 => line[at] ^= 1 << rng.below(8),
                1 => line[at] = TOKENS[rng.below(TOKENS.len())],
                _ => {
                    line.remove(at);
                }
            }
            line
        };
        bytes.retain(|&b| b != b'\n');
        let text = String::from_utf8_lossy(&bytes);
        if let Ok(n) = validate_jsonl(&text) {
            ensure!(n <= 1, "one line holds at most one record");
        }
        if let Ok(record) = json::from_str::<TraceRecord>(&text) {
            ensure_eq!(json::from_str::<TraceRecord>(&json::to_string(&record)), Ok(record), "{text}");
            if record.origin.is_some() == record.lamport.is_some() {
                ensure_eq!(validate_jsonl(&text), Ok(1), "{text}");
            }
        }
        Ok(())
    });
}
