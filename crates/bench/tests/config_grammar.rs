//! No-panic property suite for the configuration grammars every entry
//! point parses: the experiment knobs, the infra flags, and their
//! `BBGNN_*` variables — including the duration (`--deadline`), budget
//! (`--budget`) and fault-plan (`--faults`) grammars.
//!
//! Values are arbitrary strings and mutations of valid examples, driven
//! through `ExpConfig::try_parse` with an injected environment, so no
//! case touches the process environment. Every case must return `Ok` or
//! an `InvalidConfig` naming the flag or variable it came from; `--help`,
//! which exits, is never generated.

use bbgnn_bench::config::ExpConfig;
use bbgnn_errors::{BbgnnError, BbgnnResult};
use proptest::prelude::*;

/// Every value-taking flag and the variable that stands for it.
const PAIRS: [(&str, &str); 11] = [
    ("--scale", "BBGNN_SCALE"),
    ("--runs", "BBGNN_RUNS"),
    ("--rate", "BBGNN_RATE"),
    ("--seed", "BBGNN_SEED"),
    ("--out", "BBGNN_OUT"),
    ("--threads", "BBGNN_THREADS"),
    ("--trace", "BBGNN_TRACE"),
    ("--store", "BBGNN_STORE"),
    ("--deadline", "BBGNN_DEADLINE"),
    ("--budget", "BBGNN_BUDGET"),
    ("--faults", "BBGNN_FAULTS"),
];

/// Valid examples of every grammar, the seeds of the mutation corpus.
const SEEDS: [&str; 9] = [
    "90s",
    "500ms",
    "epochs=500,queries=2M,mem=1Gi",
    "7:fault/kernel_nan@2",
    "4",
    "0.1",
    "true",
    "out.jsonl",
    "",
];

/// One past `u64::MAX`: every count and duration must reject it, never
/// wrap it.
const HUGE: &str = "18446744073709551616";

/// Fragments a mutation splices in: grammar punctuation, unit suffixes,
/// extreme numbers, whitespace, and multi-byte and control characters.
const FRAGMENTS: [&str; 24] = [
    ",", "=", ":", "@", "/", "-", ".", "0", "9", "k", "Ki", "M", "ms", "h", "epochs", "fault/",
    " ", "\t", "é", "∞", "\u{0}", "NaN", "1e309", HUGE,
];

/// One edit of a mutation: an operation, a position as a fraction of the
/// string, and the fragment it splices in.
type Edit = (u8, f64, &'static str);

fn apply(seed: &str, edits: Vec<Edit>) -> String {
    let mut chars: Vec<char> = seed.chars().collect();
    for (op, at, fragment) in edits {
        let i = ((chars.len() as f64) * at) as usize;
        let tail = chars.split_off(i.min(chars.len()));
        match op {
            // Insert the fragment.
            0 => chars.extend(fragment.chars().chain(tail)),
            // Replace one character with the fragment.
            1 => chars.extend(fragment.chars().chain(tail.into_iter().skip(1))),
            // Delete one character.
            2 => chars.extend(tail.into_iter().skip(1)),
            // Truncate here.
            _ => {}
        }
    }
    chars.into_iter().collect()
}

/// A valid example as is, under one to three edits, or fragment soup.
fn value() -> impl Strategy<Value = String> {
    let fragments = || prop::sample::select(FRAGMENTS.to_vec());
    (
        0u8..3,
        prop::sample::select(SEEDS.to_vec()),
        prop::collection::vec((0u8..4, 0.0f64..1.0, fragments()), 1..4),
        prop::collection::vec(fragments(), 0..6),
    )
        .prop_map(|(mode, seed, edits, soup)| {
            let v = match mode {
                0 => seed.to_string(),
                1 => apply(seed, edits),
                _ => soup.concat(),
            };
            // A bare `--help` exits the process; never generate it.
            if v == "--help" || v == "-h" {
                String::new()
            } else {
                v
            }
        })
}

/// Every variable: the pairs' and `BBGNN_INCR`, whose flag takes no value.
fn variables() -> Vec<&'static str> {
    PAIRS.iter().map(|p| p.1).chain(["BBGNN_INCR"]).collect()
}

fn argv(args: &[&str]) -> Vec<String> {
    args.iter().map(|s| s.to_string()).collect()
}

/// `Ok`, or an `InvalidConfig` whose `what` names one of `sources`
/// (a range check names both halves, e.g. `--scale / BBGNN_SCALE`).
fn names_its_source(result: &BbgnnResult<ExpConfig>, sources: &[&str]) -> Result<(), String> {
    match result {
        Ok(_) => Ok(()),
        Err(BbgnnError::InvalidConfig { what, .. })
            if what.split(" / ").any(|w| sources.contains(&w)) =>
        {
            Ok(())
        }
        Err(e) => Err(format!("error does not name {sources:?}: {e:?}")),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    /// A flag and its variable each parse or name themselves, and the
    /// variable accepts exactly what the flag accepts, with the same
    /// result — except the empty value, which is unset for a variable
    /// and an error for a flag.
    #[test]
    fn a_flag_and_its_variable_parse_alike(
        pair in prop::sample::select(PAIRS.to_vec()),
        v in value(),
    ) {
        let (flag, var) = pair;
        let by_flag = ExpConfig::try_parse(&argv(&[flag, &v]), |_| None);
        let by_env = ExpConfig::try_parse(&[], |name: &str| (name == var).then(|| v.clone()));
        names_its_source(&by_flag, &[flag])?;
        names_its_source(&by_env, &[var])?;
        if v.is_empty() {
            prop_assert!(by_env.is_ok(), "empty {var} must be unset");
        } else {
            let agree = by_flag.is_ok() == by_env.is_ok();
            prop_assert!(agree, "{flag} {v:?} and {var}={v:?} disagree");
            if let (Ok(f), Ok(e)) = (&by_flag, &by_env) {
                prop_assert_eq!(format!("{f:?}"), format!("{e:?}"));
            }
        }
    }

    /// Several variables and flags at once: the budget and fault merges
    /// never panic, and an error still names one of the inputs.
    #[test]
    fn mixed_environment_and_flags_parse_or_name_a_source(
        env_set in prop::collection::vec((prop::sample::select(variables()), value()), 0..5),
        flag_set in prop::collection::vec((prop::sample::select(PAIRS.to_vec()), value()), 0..5),
    ) {
        let env = |name: &str| env_set.iter().rev().find(|e| e.0 == name).map(|e| e.1.clone());
        let args: Vec<String> = flag_set
            .iter()
            .flat_map(|(p, v)| [p.0.to_string(), v.clone()])
            .collect();
        let sources: Vec<&str> = env_set
            .iter()
            .map(|e| e.0)
            .chain(flag_set.iter().map(|(p, _)| p.0))
            .collect();
        names_its_source(&ExpConfig::try_parse(&args, env), &sources)?;
    }
}
