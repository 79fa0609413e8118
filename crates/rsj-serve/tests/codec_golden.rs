//! The codec's golden corpus: the exact bytes every protocol shape
//! encodes to, and the outcome of decoding a seeded set of valid and
//! mutated request lines, pinned in `tests/data/codec_golden.txt`.
//!
//! The corpus was generated by the tree-based codec the streaming one
//! replaced, so it pins the wire, the journal and the results files byte
//! for byte, and every accept/reject decision of [`decode_request`]:
//! `ok <the decoded request, re-encoded>` or `err <ErrorKind>`.
//! [`render`] produces the file's exact text, taking the solver-computed
//! plans from the file's own `plan N` records.

use reservation_strategies::{plan_digest, Plan, PlanRequest, SimulateOptions};
use rsj_core::{CostModel, SolverSpec};
use rsj_dist::{DiscretizationScheme, DistSpec};
use rsj_obs::{StageRecord, TimelineRecord};
use rsj_serve::journal::JournalRecord;
use rsj_serve::{
    decode_request, encode, BatchItem, ErrorKind, HealthInfo, Provenance, RecoveryStats, Request,
    Response, Timings, PROTOCOL_VERSION, PROTOCOL_VERSION_MAX,
};
use serde_json::{json, Value};

const CORPUS: &str = include_str!("data/codec_golden.txt");

/// SplitMix64: the seeded choices of the mutated lines.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// Control characters, every short escape, a surrogate pair and
/// non-ASCII text.
const AWKWARD: &str = "q\" b\\ n\n r\r t\t b\u{8} f\u{c} \u{1}\u{1f}\u{7f} é 中 😀 /";

/// Floats on every formatting path: non-finite (`null`), integral below
/// 1e16 (`{:.1}`), and shortest round-trip `Display` otherwise, including
/// subnormals and values Display writes without an exponent.
fn edge_floats() -> Vec<f64> {
    vec![
        f64::NAN,
        f64::INFINITY,
        f64::NEG_INFINITY,
        -0.0,
        0.0,
        1.0,
        -1.0,
        0.1,
        1.0 / 3.0,
        9_999_999_999_999_998.0,
        1e16,
        -1e16,
        1e15 + 0.5,
        9_007_199_254_740_993.0,
        123_456_789.125,
        6.144_212_356_915_61e-13,
        1e-7,
        5e-324,
        2.225e-308,
        f64::MIN_POSITIVE,
        1e300,
        f64::MAX,
        f64::MIN,
    ]
}

fn edge_plan() -> Plan {
    let sequence = edge_floats();
    Plan {
        distribution: AWKWARD.to_string(),
        solver: String::new(),
        digest: plan_digest(sequence.iter().copied()),
        sequence,
        complete: false,
        expected_cost: f64::NAN,
        omniscient_cost: f64::INFINITY,
        normalized_cost: -0.0,
        coverage_gap: 6.144_212_356_915_61e-28,
        simulation: None,
    }
}

fn dp(scheme: DiscretizationScheme, n: usize) -> SolverSpec {
    SolverSpec::Dp {
        scheme,
        n,
        epsilon: 1e-7,
        monotone: true,
    }
}

/// Real plans: every Table 1 law under Mean-by-Mean and DP
/// (equal-probability, n = 200), and a LogNormal plan with
/// simulate-on-plan statistics. The solver computed them when the corpus
/// was generated; they are read back from their `plan N` records, so the
/// corpus pins the codec and not the solver's numbers.
fn real_plans() -> Vec<Plan> {
    let records = records(CORPUS);
    (0..19)
        .map(|i| {
            let header = format!("encode plan {i}");
            let (_, text) = records
                .iter()
                .find(|(h, _)| *h == header)
                .expect("a corpus record per real plan");
            serde_json::from_str(text).expect("a plan")
        })
        .collect()
}

fn provenance(cached: bool) -> Provenance {
    Provenance {
        server: "rsj-serve/0.1.0".to_string(),
        protocol: PROTOCOL_VERSION,
        solver: "dp_equal_probability".to_string(),
        threads: 4,
        cached,
        coalesced: !cached,
    }
}

fn timeline() -> TimelineRecord {
    TimelineRecord {
        trace_id: "00ff00ff00ff00ff".to_string(),
        op: "plan".to_string(),
        total_us: u64::MAX,
        stages: vec![
            StageRecord {
                name: "queue_wait".to_string(),
                start_us: 0,
                end_us: 17,
                args: Vec::new(),
            },
            StageRecord {
                name: "solve".to_string(),
                start_us: 17,
                end_us: 1234,
                args: vec![
                    ("dp_path".to_string(), "monotone".to_string()),
                    ("note".to_string(), AWKWARD.to_string()),
                ],
            },
        ],
    }
}

fn requests() -> Vec<Request> {
    let full = Request::Plan {
        v: PROTOCOL_VERSION_MAX,
        distribution: DistSpec::TruncatedNormal {
            mu: 8.0,
            sigma: std::f64::consts::SQRT_2,
            a: 0.0,
        },
        cost: Some(CostModel {
            alpha: 1.0,
            beta: 0.5,
            gamma: 0.125,
        }),
        solver: SolverSpec::BruteForce {
            grid: 100,
            samples: 50,
            analytic: true,
            seed: 3,
        },
        seed: Some(u64::MAX),
        simulate: Some(SimulateOptions { jobs: 10, seed: 0 }),
        deadline_ms: Some(250),
        trace_id: Some("trace-\"1\"".to_string()),
        trace: true,
    };
    let hit = Request::Plan {
        v: PROTOCOL_VERSION,
        distribution: DistSpec::LogNormal {
            mu: 3.0,
            sigma: 0.5,
        },
        cost: Some(CostModel {
            alpha: 0.95,
            beta: 1.0,
            gamma: 1.05,
        }),
        solver: dp(DiscretizationScheme::EqualTime, 1000),
        seed: None,
        simulate: None,
        deadline_ms: None,
        trace_id: Some("h0-17".to_string()),
        trace: false,
    };
    let items = vec![
        PlanRequest::new(DistSpec::Exponential { lambda: 1.0 }),
        PlanRequest::new(DistSpec::Weibull {
            lambda: 1.0,
            kappa: 0.5,
        })
        .with_solver(SolverSpec::MeanDoubling)
        .with_cost(CostModel {
            alpha: 1.0,
            beta: 1.0,
            gamma: 0.0,
        }),
        PlanRequest::new(DistSpec::BoundedPareto {
            l: 1.0,
            h: 20.0,
            alpha: 2.1,
        })
        .with_solver(dp(DiscretizationScheme::EqualProbability, 64))
        .with_simulate(SimulateOptions { jobs: 5, seed: 9 }),
    ];
    vec![
        Request::plan(DistSpec::Exponential { lambda: 1.0 }),
        hit,
        full,
        Request::plan_batch(items)
            .with_deadline_ms(1000)
            .with_trace_id("batch-é")
            .with_trace(),
        Request::trace_query(None, None, None),
        Request::trace_query(Some(5), Some(2.5), Some("abc".to_string())),
        Request::metrics(),
        Request::ping(),
        Request::health(),
        Request::ready(),
        Request::shutdown(),
        Request::Ping { v: 0 },
    ]
}

fn responses(plans: &[Plan]) -> Vec<Response> {
    let plan = plans[6].clone();
    let timings = Timings {
        build_seconds: 1.5e-5,
        solve_seconds: 0.0,
        total_seconds: 0.000_123_456_789,
    };
    vec![
        Response::Plan {
            v: PROTOCOL_VERSION,
            plan: plan.clone(),
            provenance: provenance(true),
            timings,
            trace_id: Some("h1-2".to_string()),
            timeline: None,
        },
        Response::Plan {
            v: PROTOCOL_VERSION_MAX,
            plan: edge_plan(),
            provenance: provenance(false),
            timings,
            trace_id: None,
            timeline: Some(timeline()),
        },
        Response::PlanBatch {
            v: PROTOCOL_VERSION_MAX,
            results: vec![
                BatchItem::Plan {
                    plan: plans[1].clone(),
                    provenance: provenance(false),
                },
                BatchItem::error(ErrorKind::InvalidDistribution, AWKWARD),
                BatchItem::error(ErrorKind::DeadlineExceeded, "batch deadline expired"),
            ],
            trace_id: Some("b-1".to_string()),
            timeline: Some(timeline()),
        },
        Response::PlanBatch {
            v: PROTOCOL_VERSION_MAX,
            results: Vec::new(),
            trace_id: None,
            timeline: None,
        },
        Response::Trace {
            v: PROTOCOL_VERSION,
            timelines: vec![timeline(), timeline()],
        },
        Response::Metrics {
            v: PROTOCOL_VERSION,
            prometheus: "# HELP rsj_requests_total Requests.\n# TYPE rsj_requests_total counter\nrsj_requests_total{op=\"plan\"} 42\n".to_string(),
        },
        Response::Pong { v: 2 },
        Response::Health {
            v: PROTOCOL_VERSION,
            health: HealthInfo::default(),
        },
        Response::Health {
            v: PROTOCOL_VERSION,
            health: HealthInfo {
                ready: true,
                recovered: true,
                draining: false,
                queue_depth: 3,
                cache_entries: usize::MAX,
                recovery: Some(RecoveryStats {
                    snapshot_generation: Some(2),
                    snapshot_records: 10,
                    journal_records: 7,
                    recovered_records: 17,
                    corrupt_records: 1,
                    wall_seconds: 0.25,
                }),
            },
        },
        Response::Ready { v: PROTOCOL_VERSION },
        Response::ShuttingDown { v: PROTOCOL_VERSION },
        Response::error(ErrorKind::MalformedRequest, "bad request: x"),
        Response::error_traced(ErrorKind::Overloaded, AWKWARD, Some("t-1".to_string()))
            .with_version(2),
    ]
}

/// `(name, encoded text)` for every shape the corpus pins.
fn encode_cases() -> Vec<(String, String)> {
    let plans = real_plans();
    let mut cases = Vec::new();
    let mut add = |name: String, text: String| cases.push((name, text));
    for (i, request) in requests().iter().enumerate() {
        add(format!("request {i}"), encode(request).unwrap());
    }
    for (i, response) in responses(&plans).iter().enumerate() {
        add(format!("response {i}"), encode(response).unwrap());
    }
    for (i, plan) in plans.iter().enumerate() {
        add(format!("plan {i}"), serde_json::to_string(plan).unwrap());
    }
    add(
        "plan edge".into(),
        serde_json::to_string(&edge_plan()).unwrap(),
    );
    add(
        "batch item plan".into(),
        encode(&BatchItem::Plan {
            plan: plans[3].clone(),
            provenance: provenance(true),
        })
        .unwrap(),
    );
    add(
        "batch item error".into(),
        encode(&BatchItem::error(ErrorKind::Internal, "")).unwrap(),
    );
    add(
        "journal record".into(),
        serde_json::to_string(&JournalRecord {
            key: "lognormal|a=3ff0000000000000,b=0,g=0|dp".to_string(),
            plan: plans[16].clone(),
        })
        .unwrap(),
    );
    add(
        "timeline".into(),
        serde_json::to_string(&timeline()).unwrap(),
    );
    for (i, x) in edge_floats().into_iter().enumerate() {
        add(format!("f64 {i}"), serde_json::to_string(&x).unwrap());
    }
    add(
        "integers".into(),
        serde_json::to_string(&(u64::MAX, i64::MIN, -1i32, 0usize)).unwrap(),
    );
    add("string".into(), serde_json::to_string(AWKWARD).unwrap());
    let value = json!({
        "count": 3usize,
        "neg": -2i64,
        "ratio": 0.5,
        "nan": f64::NAN,
        "name": AWKWARD,
        "list": vec![1.5, 2.0, -0.0],
        "some": Some(7u32),
        "none": None::<u32>,
        "flag": true,
        "inner": json!({"k": json!([1u8, 2u8])}),
        "plan": edge_plan()
    });
    add("json! value".into(), serde_json::to_string(&value).unwrap());
    let parsed: Value = serde_json::from_str(
        r#" { "a" : [ 1 , -2 , 3.5 , -0 , -0.0 , 1e2 , 18446744073709551615 , 18446744073709551616 , -9223372036854775808 , -9223372036854775809 , "s\u00e9\ud83d\ude00" , true , false , null , { } , [ ] ] , "a" : 0 , "\u0062" : { "c" : [ [ ] ] } } "#,
    )
    .unwrap();
    add(
        "parsed value".into(),
        serde_json::to_string(&parsed).unwrap(),
    );
    add(
        "pretty value".into(),
        serde_json::to_string_pretty(&json!({
            "empty_list": Vec::<u32>::new(),
            "empty_object": json!({}),
            "nested": json!({"k": json!([1u32, 2u32]), "s": AWKWARD}),
            "parsed": parsed
        }))
        .unwrap(),
    );
    add(
        "pretty response".into(),
        serde_json::to_string_pretty(&responses(&plans)[8]).unwrap(),
    );
    add(
        "pretty plan".into(),
        serde_json::to_string_pretty(&plans[16]).unwrap(),
    );
    cases
}

/// Hand-written request lines: escapes, number forms, whitespace, wrong
/// shapes and broken syntax.
fn handwritten_lines() -> Vec<String> {
    let exp = r#""distribution":{"family":"exponential","lambda":1.0}"#;
    let mut lines: Vec<String> = [
        r#"{"op":"ping"}"#,
        r#"{"\u006fp":"ping"}"#,
        r#"{"op":"p\u0069ng"}"#,
        r#"  {  "op" : "ping" , "v" : 2 }  "#,
        "{\t\"op\"\t:\r\"ping\"\r}",
        r#"{"op":"ping","v":1,"v":99}"#,
        r#"{"op":"ping","v":99,"v":1}"#,
        r#"{"v":2,"op":"ping"}"#,
        r#"{"op":"ping","op":"shutdown"}"#,
        r#"{"op":"ping","v":-0}"#,
        r#"{"op":"ping","v":1.0}"#,
        r#"{"op":"ping","v":1e0}"#,
        r#"{"op":"ping","v":01}"#,
        r#"{"op":"ping","v":4294967296}"#,
        r#"{"op":"ping","v":-1}"#,
        r#"{"op":"ping","v":null}"#,
        r#"{"op":"ping","v":"1"}"#,
        r#"{"op":"ping","ключ":"значение"}"#,
        r#"{"op":"ping","x":{"y":[1,2,{"z":null}],"w":"\ud83d\ude00"}}"#,
        r#"{"op":"ping","x":"\ud800"}"#,
        r#"{"op":"ping","x":"\udc00"}"#,
        r#"{"op":"ping","x":"\ud800\u0041"}"#,
        r#"{"op":"ping","x":"\x"}"#,
        r#"{"op":"ping","x":"\u00g0"}"#,
        "{\"op\":\"ping\",\"x\":\"a\u{1}b\"}",
        "{\"op\":\"ping\",\"x\":\"a\tb\"}",
        r#"{"op":"ping","x":1.}"#,
        r#"{"op":"ping","x":-}"#,
        r#"{"op":"ping","x":.5}"#,
        r#"{"op":"ping","x":+1}"#,
        r#"{"op":"ping","x":1e}"#,
        r#"{"op":"ping","x":0x10}"#,
        r#"{"op":"ping","x":NaN}"#,
        r#"{"op":"ping","x":nul}"#,
        r#"{"op":"ping","x":tru}"#,
        r#"{"op":"ping",}"#,
        r#"{"op":"ping""v":1}"#,
        r#"{"op" "ping"}"#,
        r#"{op:"ping"}"#,
        r#"{"op":"ping"}{"op":"ping"}"#,
        r#"{"op":"ping"} x"#,
        r#"{"op":"ping"}]"#,
        "{\"op\":\"ping\"}\u{a0}",
        "\u{feff}{\"op\":\"ping\"}",
        r#"{"op":1}"#,
        r#"{"op":null}"#,
        r#"{"op":["ping"]}"#,
        r#"{"op":"Ping"}"#,
        r#"{"op":"warp"}"#,
        r#"{"v":1}"#,
        "{}",
        "[]",
        r#""ping""#,
        "1",
        "null",
        "",
        "   ",
        "{",
        "}",
        r#"{"op":}"#,
        r#"{"op":"plan_batch","v":2,"items":[]}"#,
        r#"{"op":"plan_batch","items":[]}"#,
        r#"{"op":"trace","last":5,"min_duration_ms":2,"trace_id":null}"#,
        r#"{"op":"trace","last":-0,"min_duration_ms":-0}"#,
        r#"{"op":"trace","last":5.0}"#,
        r#"{"op":"trace","min_duration_ms":"2"}"#,
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    let plan_with = |extra: &str| format!(r#"{{"op":"plan",{exp}{extra}}}"#);
    for extra in [
        "",
        r#","seed":18446744073709551615"#,
        r#","seed":18446744073709551616"#,
        r#","seed":-1"#,
        r#","seed":1e2"#,
        r#","seed":null,"seed":5"#,
        r#","seed":5,"seed":null"#,
        r#","deadline_ms":-0"#,
        r#","deadline_ms":250.0"#,
        r#","trace":1"#,
        r#","trace":"true""#,
        r#","trace":null"#,
        r#","trace_id":"a\"b\\c\/d\u00e9\ud83d\ude00\b\f\n\r\t""#,
        r#","trace_id":5"#,
        r#","cost":null"#,
        r#","cost":{"alpha":1}"#,
        r#","cost":{"alpha":1,"beta":0,"gamma":0}"#,
        r#","cost":{"alpha":-0,"beta":-0.0,"gamma":1E+2}"#,
        r#","cost":[1,0,0]"#,
        r#","solver":null"#,
        r#","solver":{"kind":"dp","scheme":"equal_time"}"#,
        r#","solver":{"scheme":"equal_time","kind":"dp","n":10}"#,
        r#","solver":{"kind":"dp","scheme":{"equal_time":null}}"#,
        r#","solver":{"kind":"dp","scheme":{"equal_time":[1,{"x":2}]}}"#,
        r#","solver":{"kind":"dp","scheme":{"equal_time":null,"equal_probability":null}}"#,
        r#","solver":{"kind":"dp","scheme":{}}"#,
        r#","solver":{"kind":"dp","scheme":"EqualTime"}"#,
        r#","solver":{"kind":"dp","scheme":1}"#,
        r#","solver":{"kind":"dp","scheme":"equal_time","n":1000.0}"#,
        r#","solver":{"kind":"dp","scheme":"equal_time","n":null}"#,
        r#","solver":{"kind":"dp","scheme":"equal_time","monotone":false,"epsilon":1e-9}"#,
        r#","solver":{"kind":"brute_force","grid":-0,"samples":01,"analytic":false}"#,
        r#","solver":{"kind":"mean_by_mean","junk":[[{}]]}"#,
        r#","solver":{"kind":"median_by_median","kind":"mean_stdev"}"#,
        r#","solver":{"kind":"nope"}"#,
        r#","solver":"mean_by_mean""#,
        r#","simulate":{"jobs":10}"#,
        r#","simulate":{"jobs":10,"seed":null}"#,
        r#","simulate":{"seed":1}"#,
        r#","simulate":null"#,
    ] {
        lines.push(plan_with(extra));
    }
    for dist in [
        r#"{"family":"exponential","lambda":1e0}"#,
        r#"{"family":"exponential","lambda":-.5}"#,
        r#"{"family":"exponential","lambda":01.5}"#,
        r#"{"family":"exponential","lambda":1e400}"#,
        r#"{"family":"exponential","lambda":-0}"#,
        r#"{"family":"exponential","lambda":18446744073709551617}"#,
        r#"{"family":"exponential","lambda":-9223372036854775809}"#,
        r#"{"family":"exponential","lambda":9007199254740993}"#,
        r#"{"family":"exponential","lambda":null}"#,
        r#"{"family":"exponential"}"#,
        r#"{"lambda":2.0,"family":"exponential","family":"weibull"}"#,
        r#"{"family":"weibull","lambda":1.0,"kappa":0.5,"lambda":"x"}"#,
        r#"{"family":"uniform","a":10,"b":20}"#,
        r#"{"family":"log_normal","sigma":0.5,"mu":3}"#,
        r#"{"family":"LogNormal","mu":3,"sigma":0.5}"#,
        r#"{"family":null}"#,
        "null",
        "[]",
        r#""exponential""#,
    ] {
        lines.push(format!(r#"{{"op":"plan","distribution":{dist}}}"#));
    }
    // Deep but within the nesting bound, in a skipped value and in a
    // decoded one.
    lines.push(format!(
        r#"{{"op":"ping","x":{}{}}}"#,
        "[".repeat(100),
        "]".repeat(100)
    ));
    lines.push(format!(
        r#"{{"op":"plan","distribution":{}{}}}"#,
        "[".repeat(100),
        "]".repeat(100)
    ));
    lines
}

fn entries(value: &Value) -> Vec<(String, Value)> {
    value.as_map_entries().unwrap().to_vec()
}

fn line_of(entries: Vec<(String, Value)>) -> String {
    serde_json::to_string(&Value::Map(entries)).unwrap()
}

/// Structural mutations of one encoded request: reordered keys (tag not
/// first), duplicated keys with either copy first, unknown keys, `null`
/// in every field, and integer fields given `1.0` or `-0`.
fn structural_mutations(line: &str, out: &mut Vec<String>) {
    let value: Value = serde_json::from_str(line).unwrap();
    let map = entries(&value);
    let n = map.len();
    let mut reversed = map.clone();
    reversed.reverse();
    out.push(line_of(reversed));
    let mut rotated = map.clone();
    rotated.rotate_left(1);
    out.push(line_of(rotated));
    let unknown = Value::Map(vec![
        ("a".to_string(), json!([1u8, json!({"b": None::<u8>})])),
        ("c".to_string(), Value::Str("é".to_string())),
    ]);
    for at in [0, n / 2, n] {
        let mut with = map.clone();
        with.insert(at, ("zz_unknown".to_string(), unknown.clone()));
        out.push(line_of(with));
    }
    for i in 0..n {
        let (key, _) = &map[i];
        let mut later = map.clone();
        later.push((key.clone(), Value::Null));
        out.push(line_of(later));
        let mut earlier = map.clone();
        earlier.insert(0, (key.clone(), Value::Null));
        out.push(line_of(earlier));
        let mut nulled = map.clone();
        nulled[i].1 = Value::Null;
        out.push(line_of(nulled));
        if let Value::U64(u) = map[i].1 {
            let mut float = map.clone();
            float[i].1 = Value::F64(u as f64);
            out.push(line_of(float));
            let zero = format!("\"{key}\":-0");
            out.push(line.replacen(&format!("\"{key}\":{u}"), &zero, 1));
        }
    }
}

/// Every line the decode half of the corpus covers: the hand-written
/// lines, each request's encoding with its structural mutations, and
/// seeded truncations, trailing bytes and character edits.
fn decode_lines() -> Vec<String> {
    let mut lines = handwritten_lines();
    let bases: Vec<String> = requests().iter().map(|r| encode(r).unwrap()).collect();
    for base in &bases {
        lines.push(base.clone());
        structural_mutations(base, &mut lines);
        for tail in ["x", " ", "}", ",{}", "\t\t", "0", "\"", "{\"op\":\"ping\"}"] {
            lines.push(format!("{base}{tail}"));
        }
    }
    let mut rng = Rng(0x5eed_c0de);
    let alphabet: Vec<char> = "{}[]\":,.-+0123456789eEaflnrstuv \\é".chars().collect();
    for _ in 0..600 {
        let base: Vec<char> = bases[rng.below(bases.len())].chars().collect();
        let mut chars = base.clone();
        match rng.below(4) {
            0 => chars.truncate(rng.below(base.len())),
            1 => {
                chars.remove(rng.below(base.len()));
            }
            2 => chars.insert(
                rng.below(base.len() + 1),
                alphabet[rng.below(alphabet.len())],
            ),
            _ => chars[rng.below(base.len())] = alphabet[rng.below(alphabet.len())],
        }
        lines.push(chars.into_iter().collect());
    }
    lines
}

fn outcome(line: &str) -> String {
    match decode_request(line) {
        Ok(request) => format!("ok {}", encode(&request).unwrap()),
        Err((kind, _)) => format!("err {kind}"),
    }
}

/// The corpus file's exact text.
pub fn render() -> String {
    let mut out = String::new();
    for (name, text) in encode_cases() {
        out.push_str(&format!("=== encode {name}\n{text}\n"));
    }
    for (i, line) in decode_lines().iter().enumerate() {
        out.push_str(&format!("=== decode {i}\n{line}\n{}\n", outcome(line)));
    }
    out
}

/// Splits corpus text into `(header, body)` records.
fn records(text: &str) -> Vec<(&str, &str)> {
    let mut out = Vec::new();
    let mut rest = text;
    while let Some(after) = rest.strip_prefix("=== ") {
        let (header, body) = after.split_once('\n').expect("a header line");
        let end = body.find("\n=== ").map_or(body.len(), |i| i + 1);
        out.push((header, &body[..end]));
        rest = &body[end..];
    }
    assert!(rest.is_empty(), "corpus text outside a record: {rest:?}");
    out
}

#[test]
fn codec_matches_the_golden_corpus() {
    let rendered = render();
    let expected = records(CORPUS);
    let actual = records(&rendered);
    assert_eq!(actual.len(), expected.len(), "corpus size");
    let mut mismatches = Vec::new();
    for ((header, want), (got_header, got)) in expected.iter().zip(&actual) {
        assert_eq!(header, got_header, "corpus order");
        if want != got {
            mismatches.push(format!("{header}\n  want: {want:?}\n  got:  {got:?}"));
        }
    }
    assert!(
        mismatches.is_empty(),
        "{} of {} corpus records differ:\n{}",
        mismatches.len(),
        expected.len(),
        mismatches.join("\n")
    );
}

#[test]
fn corpus_holds_accepted_and_both_kinds_of_rejected_lines() {
    let outcomes: Vec<&str> = records(CORPUS)
        .into_iter()
        .filter(|(header, _)| header.starts_with("decode"))
        .map(|(_, body)| body.lines().nth(1).expect("an outcome line"))
        .collect();
    for prefix in ["ok ", "err malformed_request", "err unsupported_version"] {
        let n = outcomes.iter().filter(|o| o.starts_with(prefix)).count();
        assert!(n >= 10, "only {n} `{prefix}` outcomes");
    }
}
