//! Property tests of the streaming codec: the request decoder never
//! panics, whatever the bytes, and every plan with finite floats
//! survives encode → decode bit for bit.

use proptest::prelude::*;
use reservation_strategies::Plan;
use rsj_serve::{decode_request, encode, Request};
use rsj_sim::BatchStats;

/// JSON's structural characters and the starts of every token, so random
/// lines get deep into the grammar instead of failing at the first byte.
const JSONISH: &[&str] = &[
    "{",
    "}",
    "[",
    "]",
    ":",
    ",",
    "\"",
    "\\",
    "\\u",
    "\\ud83d",
    "0",
    "1",
    "-",
    ".",
    "e",
    "+",
    "null",
    "true",
    "false",
    " ",
    "\t",
    "\"op\"",
    "\"plan\"",
    "\"ping\"",
    "\"distribution\"",
    "\"family\"",
    "\"exponential\"",
    "\"lambda\"",
    "\"v\"",
    "\"trace_id\"",
    "\"items\"",
    "\"plan_batch\"",
    "é",
    "\u{1}",
    "\u{7f}",
];

/// Characters a string field may hold: plain text, every escape the
/// writer emits, and multi-byte UTF-8.
const CHARS: &[char] = &[
    'a', 'Z', '0', ' ', '"', '\\', '/', '\n', '\r', '\t', '\u{8}', '\u{c}', '\u{0}', '\u{1f}',
    '\u{7f}', 'é', '中', '😀',
];

fn text(picks: &[usize]) -> String {
    picks.iter().map(|&i| CHARS[i]).collect()
}

/// A finite float from raw bits: non-finite patterns become their
/// mantissa, read as a subnormal.
fn finite(bits: u64) -> f64 {
    let x = f64::from_bits(bits);
    if x.is_finite() {
        x
    } else {
        f64::from_bits(bits & 0x800f_ffff_ffff_ffff)
    }
}

fn bits(xs: &[f64]) -> Vec<u64> {
    xs.iter().map(|x| x.to_bits()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn decoding_arbitrary_bytes_never_panics(raw in proptest::collection::vec(0u8..=255, 0..200)) {
        let line = String::from_utf8_lossy(&raw);
        let _ = decode_request(&line);
    }

    #[test]
    fn decoding_json_shaped_noise_never_panics(
        picks in proptest::collection::vec(0usize..JSONISH.len(), 0..120),
    ) {
        let line: String = picks.iter().map(|&i| JSONISH[i]).collect();
        if let Ok(request) = decode_request(&line) {
            // Whatever decodes re-encodes to a line that decodes the same.
            let again = encode(&request).expect("encode");
            prop_assert_eq!(decode_request(&again).expect("re-decode"), request);
        }
    }

    #[test]
    fn mutated_plan_requests_never_panic(
        cut in 0usize..400,
        at in 0usize..400,
        pick in 0usize..JSONISH.len(),
    ) {
        let line = encode(&Request::plan(rsj_dist::DistSpec::Weibull { lambda: 1.0, kappa: 0.5 })
            .with_trace_id("t-1"))
            .expect("encode");
        let cut = cut.min(line.len());
        let at = at.min(cut);
        let mut mutated = line[..cut].to_string();
        mutated.insert_str(at, JSONISH[pick]);
        let _ = decode_request(&mutated);
    }

    #[test]
    fn plans_with_finite_floats_round_trip(
        sequence in proptest::collection::vec(0u64..=u64::MAX, 0..24),
        costs in (0u64..=u64::MAX, 0u64..=u64::MAX, 0u64..=u64::MAX, 0u64..=u64::MAX),
        names in (
            proptest::collection::vec(0usize..CHARS.len(), 0..16),
            proptest::collection::vec(0usize..CHARS.len(), 0..16),
            proptest::collection::vec(0usize..CHARS.len(), 0..16),
        ),
        flags in (0u8..2, 0u8..2),
        stats in (0usize..=usize::MAX, 0u64..=u64::MAX, 0u64..=u64::MAX),
    ) {
        let sequence: Vec<f64> = sequence.into_iter().map(finite).collect();
        let simulation = (flags.1 == 1).then(|| BatchStats {
            jobs: stats.0,
            mean_cost: finite(stats.1),
            p95_cost: finite(stats.2),
            max_cost: -finite(stats.1),
            mean_reservations: 1.0,
            max_reservations: stats.0 / 3,
            mean_waste: 0.0,
            waste_fraction: finite(stats.2).abs(),
            failures: 0,
            restarts: stats.0,
            mean_rework: -0.0,
            gave_up: 7,
        });
        let plan = Plan {
            distribution: text(&names.0),
            solver: text(&names.1),
            sequence,
            complete: flags.0 == 1,
            expected_cost: finite(costs.0),
            omniscient_cost: finite(costs.1),
            normalized_cost: finite(costs.2),
            coverage_gap: finite(costs.3),
            digest: text(&names.2),
            simulation,
        };
        let line = serde_json::to_string(&plan).expect("encode");
        let back: Plan = serde_json::from_str(&line).expect("decode");
        prop_assert_eq!(bits(&back.sequence), bits(&plan.sequence));
        prop_assert_eq!(
            bits(&[back.expected_cost, back.omniscient_cost, back.normalized_cost, back.coverage_gap]),
            bits(&[plan.expected_cost, plan.omniscient_cost, plan.normalized_cost, plan.coverage_gap])
        );
        prop_assert_eq!(back, plan);
    }
}
