//! No-panic property suites for the parsers `POST /jobs` feeds network
//! bytes into: the HTTP request reader and the JSON job-spec reader.
//! Arbitrary bytes and mutated valid images come back as a value or an
//! error, never a panic, and never as a request past `MAX_HEAD`/`MAX_BODY`.
//! JSON values survive both writers; nesting past `MAX_DEPTH` is an error.

use bbgnn_scenario::job::EvalKind::{AttackTime, DefenseTime};
use bbgnn_scenario::job::{EvalKind, EvalSpec, JobSpec};
use bbgnn_scenario::json::{Json, MAX_DEPTH};
use bbgnn_serve::http::{read_request, ReadError, MAX_BODY, MAX_HEAD};
use proptest::prelude::*;
use proptest::TestRng;

/// Characters that stress the string escaper and the tokenizer.
const CHARS: &[char] = &[
    'a', '0', ' ', '"', '\\', '/', '\n', '\r', '\t', '\u{0}', '\u{8}', '\u{1f}', '\u{7f}', 'é',
    '\u{2028}', '\u{fffd}', '🦀', '{', '[', ':', ',',
];

fn pick<T: Copy>(rng: &mut TestRng, from: &[T]) -> T {
    from[rng.below(from.len() as u64) as usize]
}

/// One of `from`, where `""` stands for an absent field.
fn field(rng: &mut TestRng, from: &[&str]) -> Option<String> {
    Some(pick(rng, from))
        .filter(|s| !s.is_empty())
        .map(str::to_string)
}

fn any_string(rng: &mut TestRng) -> String {
    (0..rng.below(6)).map(|_| pick(rng, CHARS)).collect()
}

/// Any JSON value at most `.0` levels deep.
struct AnyJson(usize);

impl Strategy for AnyJson {
    type Value = Json;
    fn pick(&self, rng: &mut TestRng) -> Json {
        let inner = AnyJson(self.0.saturating_sub(1));
        let f = f64::from_bits(rng.next_u64());
        match rng.below(if self.0 == 0 { 5 } else { 7 }) {
            0 => Json::Null,
            1 => Json::Bool(rng.below(2) == 1),
            2 => Json::number_u64(rng.next_u64() >> rng.below(64)),
            3 => Json::number_f64(if f.is_finite() { f } else { -0.25 }),
            4 => Json::String(any_string(rng)),
            5 => Json::Array((0..rng.below(4)).map(|_| inner.pick(rng)).collect()),
            _ => Json::object((0..rng.below(4)).map(|_| (any_string(rng), inner.pick(rng)))),
        }
    }
}

/// A valid job spec, as a client would submit one.
struct AnySpec;

impl Strategy for AnySpec {
    type Value = JobSpec;
    fn pick(&self, rng: &mut TestRng) -> JobSpec {
        let kind = pick(rng, &[EvalKind::Accuracy, AttackTime, DefenseTime]);
        let attack = match kind {
            AttackTime => field(rng, &["PEEGA"]),
            DefenseTime => None,
            _ => field(rng, &["", "Metattack", "DICE"]),
        };
        JobSpec {
            dataset: pick(rng, &["cora", "polblogs", "data/my graph"]).to_string(),
            model: field(rng, &["", "GAT"]),
            attack,
            defense: field(rng, &["", "Pro-GNN", "GNAT"]),
            eval: EvalSpec {
                kind,
                runs: 1 + rng.below(9) as usize,
                scale: 1.0 - rng.unit_f64(),
                rate: rng.unit_f64(),
            },
            seed: rng.next_u64(),
            budget: field(rng, &["", "epochs=500,queries=2M", "mem=64Mi"]),
            threads: rng.below(5) as usize,
        }
    }
}

/// Overwrites, inserts or deletes one byte per edit, at a relative offset.
fn mutate(image: &[u8], edits: &[(u8, f64, u8)]) -> Vec<u8> {
    let mut bytes = image.to_vec();
    for &(op, at, byte) in edits {
        let i = ((bytes.len() as f64) * at) as usize;
        match op {
            0 if i < bytes.len() => bytes[i] = byte,
            1 => bytes.insert(i, byte),
            _ if i < bytes.len() => {
                bytes.remove(i);
            }
            _ => {}
        }
    }
    bytes
}

/// `read_request` on `bytes`; an error if it yields a request past the caps.
fn read_capped(bytes: &[u8]) -> Result<Result<(), ReadError>, String> {
    match read_request(&mut &bytes[..]) {
        Ok(r) if r.method.len() + r.path.len() > MAX_HEAD || r.body.len() > MAX_BODY => Err(
            format!("request past the caps: {} body bytes", r.body.len()),
        ),
        r => Ok(r.map(drop)),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2000))]

    #[test]
    fn arbitrary_text_never_panics_either_parser(
        tokens in prop::collection::vec(prop::sample::select(b"{}[]\":,-+.0eE9 tfnul\\u\"x\xff".to_vec()), 0..48),
        raw in prop::collection::vec(0u8..=255, 0..48),
    ) {
        for text in [String::from_utf8_lossy(&tokens), String::from_utf8_lossy(&raw)] {
            let _ = Json::parse(&text);
            let _ = JobSpec::parse(&text);
        }
    }

    #[test]
    fn json_values_survive_both_writers(value in AnyJson(4)) {
        prop_assert_eq!(Json::parse(&value.to_compact()), Ok(value.clone()));
        prop_assert_eq!(Json::parse(&value.to_pretty()), Ok(value.clone()));
    }

    #[test]
    fn job_specs_round_trip_and_their_mutations_never_panic(
        spec in AnySpec,
        edits in prop::collection::vec((0u8..3, 0.0f64..1.0, prop::sample::select(b"{}[]\",:0-.eatn \\".to_vec())), 1..4),
    ) {
        for image in [spec.to_json().to_compact(), spec.to_json().to_pretty()] {
            prop_assert_eq!(JobSpec::parse(&image).ok(), Some(spec.clone()));
            let _ = JobSpec::parse(&String::from_utf8_lossy(&mutate(image.as_bytes(), &edits)));
        }
    }

    #[test]
    fn nesting_past_max_depth_is_an_error(depth in 1usize..2 * MAX_DEPTH, object in prop::bool::ANY) {
        let (open, close) = if object { ("{\"k\":", "}") } else { ("[", "]") };
        let text = format!("{}0{}", open.repeat(depth), close.repeat(depth));
        prop_assert_eq!(Json::parse(&text).is_ok(), depth <= MAX_DEPTH);
    }

    // A `POST /jobs` request whose head is short or within 4 bytes of its
    // cap, and whose `Content-Length` is the spec's length plus 0 or 1, or
    // `MAX_BODY` or one past it (the body is padded with spaces to match).
    #[test]
    fn requests_never_panic_or_pass_the_caps(
        raw in prop::collection::vec(0u8..=255, 0..256),
        spec in AnySpec,
        near_cap in prop::bool::ANY,
        excess in 0usize..8,
        declared in prop::sample::select(vec![0usize, 1, MAX_BODY, MAX_BODY + 1]),
        edits in prop::collection::vec((0u8..3, 0.0f64..1.0, prop::sample::select(b"\r\n :/0aP".to_vec())), 0..4),
    ) {
        let _ = read_capped(&raw)?;
        let body = spec.to_json().to_compact();
        let declared = if declared > 1 { declared } else { body.len() + declared };
        let (start, tail) = ("POST /jobs HTTP/1.1\r\nX-Pad: ", format!("\r\nContent-Length: {declared}\r\n\r\n"));
        let fill = if near_cap { MAX_HEAD - 4 + excess - start.len() - tail.len() } else { excess };
        let head = format!("{start}{}{tail}", "p".repeat(fill));
        let image = [head.as_bytes(), body.as_bytes()].concat();
        let outcome = read_capped(&[&image[..], &vec![b' '; declared - body.len()]].concat())?;
        prop_assert_eq!(outcome.is_ok(), head.len() <= MAX_HEAD && declared <= MAX_BODY);
        if head.len() <= MAX_HEAD && declared > MAX_BODY {
            prop_assert_eq!(outcome, Err(ReadError::TooLarge));
        }
        let _ = read_capped(&mutate(&image, &edits))?;
    }
}
