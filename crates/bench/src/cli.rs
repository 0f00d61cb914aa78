//! The one flag parser, environment reader and init sequence every
//! binary shares.
//!
//! * [`invalid`] / [`parse_value`] — the error-shaping helpers, so every
//!   malformed flag or environment variable reports an
//!   [`InvalidConfig`](BbgnnError::InvalidConfig) naming its source;
//! * [`process_env`] — the process environment as the lookup callers
//!   inject into [`InfraFlags::from_env`] and
//!   [`ExpConfig::try_parse`](crate::config::ExpConfig::try_parse); tests
//!   inject their own;
//! * [`InfraFlags`] — the cross-cutting flags (`--threads --trace --store
//!   --deadline --budget --faults --incremental`) and their `BBGNN_*`
//!   variables, validated strictly at parse time and stored typed;
//! * [`InfraFlags::init`] — the one correct side-effect order (threads →
//!   tracing → store → supervision → signals), which applies the parsed
//!   values without parsing again;
//! * [`extract_flag`] — the peel-off helper for binary-specific flags
//!   (`kernel_bench --compare`, `bbgnn-serve --addr`) so custom flags and
//!   shared flags can interleave on one command line.
//!
//! One rule for every `BBGNN_*` variable: set-but-empty means unset. Flag
//! values stay strict: an empty value is an error naming the flag.

use bbgnn_errors::{BbgnnError, BbgnnResult};
use bbgnn_supervise::{fault, parse_duration, RunBudget};

/// `InvalidConfig` naming the flag or environment variable at fault.
pub fn invalid(what: &str, message: impl Into<String>) -> BbgnnError {
    BbgnnError::InvalidConfig {
        what: what.to_string(),
        message: message.into(),
    }
}

/// Parses one value, naming its source (`--scale`, `BBGNN_SCALE`, ...) and
/// the expected shape on failure.
pub fn parse_value<T: std::str::FromStr>(
    value: Option<&str>,
    what: &str,
    expected: &str,
) -> BbgnnResult<T> {
    let value = value.ok_or_else(|| invalid(what, format!("requires a value ({expected})")))?;
    value
        .parse()
        .map_err(|_| invalid(what, format!("expected {expected}, got {value:?}")))
}

/// The process environment, as the lookup entry points inject into
/// [`InfraFlags::from_env`] and `ExpConfig::try_parse`.
pub fn process_env(name: &str) -> Option<String> {
    std::env::var(name).ok()
}

/// Removes every `flag <value>` pair from `args`, returning the last
/// value and the remaining arguments. A trailing bare `flag` is an
/// [`InvalidConfig`](BbgnnError::InvalidConfig).
pub fn extract_flag(args: &[String], flag: &str) -> BbgnnResult<(Option<String>, Vec<String>)> {
    let mut value = None;
    let mut rest = Vec::with_capacity(args.len());
    let mut i = 0;
    while i < args.len() {
        if args[i] == flag {
            match args.get(i + 1) {
                Some(v) => value = Some(v.clone()),
                None => return Err(invalid(flag, "requires a value")),
            }
            i += 2;
        } else {
            rest.push(args[i].clone());
            i += 1;
        }
    }
    Ok((value, rest))
}

/// The value-taking infra flags and the `BBGNN_*` variable that sets each
/// one when the flag is absent. `--incremental` / `BBGNN_INCR` is the one
/// valueless pair.
const ENV_FLAGS: [(&str, &str); 6] = [
    ("BBGNN_THREADS", "--threads"),
    ("BBGNN_TRACE", "--trace"),
    ("BBGNN_STORE", "--store"),
    ("BBGNN_DEADLINE", "--deadline"),
    ("BBGNN_BUDGET", "--budget"),
    ("BBGNN_FAULTS", "--faults"),
];

/// The infrastructure flags every entry point accepts. All of them share
/// one property: they change *how* a run executes (parallelism, tracing,
/// caching, bounds, injected faults) but never the bytes a completed cell
/// produces (DESIGN.md §7) — which is why they are parsed in one place
/// and uniformly excluded from checkpoint fingerprints.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct InfraFlags {
    /// Kernel worker threads (`--threads N` / `BBGNN_THREADS`; `0` = the
    /// machine's available parallelism).
    pub threads: usize,
    /// Trace output path (`--trace out.jsonl` / `BBGNN_TRACE`).
    pub trace: Option<String>,
    /// Artifact-store root (`--store dir` / `BBGNN_STORE`).
    pub store: Option<String>,
    /// Process-wide supervision budget: `--deadline 90s` /
    /// `BBGNN_DEADLINE` and `--budget epochs=500,queries=2M,mem=1Gi` /
    /// `BBGNN_BUDGET`. The environment fills it first; each flag then
    /// overwrites only the knobs it names.
    pub budget: RunBudget,
    /// Fault-injection plan (`--faults <seed>:<site>[@n][,...]` /
    /// `BBGNN_FAULTS`), validated against the §11 site catalog at parse
    /// time. The flag replaces the environment's plan.
    pub faults: Option<String>,
    /// Incremental rescoring (`--incremental` / `BBGNN_INCR=1`), the one
    /// switch an attacker reads to take the incremental path (DESIGN.md
    /// §13): Metattack maintains its surrogate propagation across flips
    /// instead of recomputing it per retrain, and GF-Attack's exact
    /// backend patches each candidate's normalized adjacency instead of
    /// rebuilding it. PEEGA ignores it. Like every infra flag, the
    /// committed flip sequences — and therefore every table/figure byte —
    /// are identical either way (enforced by the CI incremental-parity
    /// step); only Table VII wall-clock changes.
    pub incremental: bool,
}

impl InfraFlags {
    /// The usage fragment for `--help` lines.
    pub const USAGE: &'static str =
        "--threads N --trace PATH --store DIR --deadline DUR --budget SPEC --faults SPEC --incremental";

    /// Reads every infra variable (`BBGNN_THREADS`, `BBGNN_TRACE`,
    /// `BBGNN_STORE`, `BBGNN_DEADLINE`, `BBGNN_BUDGET`, `BBGNN_FAULTS`,
    /// `BBGNN_INCR`) through `env`, validating each exactly as
    /// [`consume`](Self::consume) validates its flag: a typo'd variable is
    /// an error naming it, not a silent all-cores or unbounded run. A
    /// set-but-empty variable is unset.
    pub fn from_env(env: impl Fn(&str) -> Option<String>) -> BbgnnResult<Self> {
        let env = |name: &str| env(name).filter(|v| !v.is_empty());
        let mut flags = Self::default();
        for (var, flag) in ENV_FLAGS {
            if let Some(v) = env(var) {
                flags.apply(flag, var, Some(&v))?;
            }
        }
        match env("BBGNN_INCR").as_deref() {
            None | Some("0" | "false") => {}
            Some("1" | "true") => flags.incremental = true,
            Some(other) => {
                return Err(invalid(
                    "BBGNN_INCR",
                    format!("expected 0/1/true/false, got {other:?}"),
                ))
            }
        }
        Ok(flags)
    }

    /// Consumes one infrastructure flag (with its value, if it takes one),
    /// validating strictly. Returns how many argv tokens were consumed —
    /// `0` (not an infra flag; fall through to the caller's own flags),
    /// `1` (valueless flag like `--incremental`), or `2` (`flag value`
    /// pair) — so callers advance their cursor by exactly that much.
    pub fn consume(&mut self, flag: &str, value: Option<&str>) -> BbgnnResult<usize> {
        self.apply(flag, flag, value)
    }

    /// [`consume`](Self::consume) with errors naming `what`: the flag
    /// itself, or the variable that stands for it.
    fn apply(&mut self, flag: &str, what: &str, value: Option<&str>) -> BbgnnResult<usize> {
        let expected = match flag {
            "--incremental" => {
                self.incremental = true;
                return Ok(1);
            }
            "--threads" => "an integer (0 = auto)",
            "--trace" => "path",
            "--store" => "dir",
            "--deadline" => "e.g. 90s, 2m",
            "--budget" => "e.g. epochs=500,queries=2M,mem=1Gi",
            "--faults" => "<seed>:<site>[@n][,...]",
            _ => return Ok(0),
        };
        let value = value
            .filter(|v| !v.is_empty())
            .ok_or_else(|| invalid(what, format!("requires a value ({expected})")))?;
        let bad = |e: String| invalid(what, e);
        match flag {
            "--threads" => self.threads = parse_value(Some(value), what, expected)?,
            "--trace" => self.trace = Some(value.to_string()),
            "--store" => self.store = Some(value.to_string()),
            "--deadline" => self.budget.deadline = Some(parse_duration(value).map_err(bad)?),
            "--budget" => {
                let named = RunBudget::parse_spec(value).map_err(bad)?;
                let budget = &mut self.budget;
                budget.epochs = named.epochs.or(budget.epochs);
                budget.queries = named.queries.or(budget.queries);
                budget.mem_bytes = named.mem_bytes.or(budget.mem_bytes);
            }
            // `--faults`, the last flag of the match above.
            _ => {
                fault::validate(value).map_err(bad)?;
                self.faults = Some(value.to_string());
            }
        }
        Ok(2)
    }

    /// Applies the flags, in the one order that works (each step feeds
    /// the next): threads before any kernel runs, tracing before any
    /// span-bearing code, the store before any cache-aware code, then the
    /// supervision budget and fault plan before any long-running loop, so
    /// the very first check site already sees them, and signal handlers
    /// last. Exits with status 2 on failures that strict parsing cannot
    /// catch (unwritable trace path, unusable store root, a fault plan
    /// that does not install).
    pub fn init(&self) {
        // The kernels read BBGNN_THREADS lazily (once, at first kernel
        // call — always after this, since flag parsing is the first thing
        // an entry point does).
        if self.threads != 0 {
            std::env::set_var("BBGNN_THREADS", self.threads.to_string());
        }
        // The process-global incremental switch, before any attack loop
        // consults it. Purely a wall-clock knob: flip sequences are
        // byte-identical either way (DESIGN.md §13).
        bbgnn::linalg::incr::set_enabled(self.incremental);
        if let Some(path) = &self.trace {
            bbgnn_obs::init_to_path(path).unwrap_or_else(|e| unusable("--trace", path, e));
        }
        if let Some(path) = &self.store {
            bbgnn::store::init_to_path(path).unwrap_or_else(|e| unusable("--store", path, e));
        }
        bbgnn_supervise::install_budget(&self.budget);
        if let Some(spec) = &self.faults {
            fault::install(spec).unwrap_or_else(|e| unusable("--faults", spec, e));
        }
        // SIGINT/SIGTERM become cooperative cancellation from here on.
        bbgnn_supervise::signal::install();
    }
}

/// Reports an infra value that parsed but cannot be applied, and exits
/// with status 2 like a malformed flag.
fn unusable(flag: &str, value: &str, e: impl std::fmt::Display) -> ! {
    eprintln!("error: {flag} {value}: {e}");
    std::process::exit(2)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn no_env(_: &str) -> Option<String> {
        None
    }

    #[test]
    fn consume_takes_only_infra_flags() {
        let mut f = InfraFlags::default();
        assert_eq!(f.consume("--threads", Some("4")).unwrap(), 2);
        assert_eq!(f.consume("--trace", Some("t.jsonl")).unwrap(), 2);
        assert_eq!(f.consume("--store", Some("cache")).unwrap(), 2);
        assert_eq!(f.consume("--deadline", Some("90s")).unwrap(), 2);
        assert_eq!(f.consume("--budget", Some("epochs=5")).unwrap(), 2);
        assert_eq!(
            f.consume("--faults", Some("7:fault/kernel_nan@2")).unwrap(),
            2
        );
        assert_eq!(f.consume("--scale", Some("0.1")).unwrap(), 0);
        assert_eq!(f.threads, 4);
        assert_eq!(f.trace.as_deref(), Some("t.jsonl"));
        assert_eq!(f.store.as_deref(), Some("cache"));
        assert_eq!(f.budget.deadline, Some(Duration::from_secs(90)));
        assert_eq!(f.budget.epochs, Some(5));
        assert_eq!(f.faults.as_deref(), Some("7:fault/kernel_nan@2"));
    }

    /// `--incremental` is valueless: it must consume exactly one token,
    /// leaving whatever follows for the caller's own flag handling.
    #[test]
    fn incremental_is_a_one_token_flag() {
        let mut f = InfraFlags::default();
        assert!(!f.incremental);
        // The "value" here is the NEXT flag on a real command line; a
        // two-token consume would swallow it.
        assert_eq!(f.consume("--incremental", Some("--scale")).unwrap(), 1);
        assert!(f.incremental);
        assert_eq!(f.consume("--incremental", None).unwrap(), 1);
    }

    /// Drives `consume` the way entry points do: a cursor loop over argv,
    /// advancing by the returned token count and keeping unconsumed
    /// tokens for the caller.
    fn drive(args: &[&str]) -> BbgnnResult<(InfraFlags, Vec<String>)> {
        let mut f = InfraFlags::default();
        let mut rest = Vec::new();
        let mut i = 0;
        while i < args.len() {
            let used = f.consume(args[i], args.get(i + 1).copied())?;
            if used == 0 {
                rest.push(args[i].to_string());
                i += 1;
            } else {
                i += used;
            }
        }
        Ok((f, rest))
    }

    #[test]
    fn consume_token_counts_hold_over_a_full_argv() {
        // Valueless flag directly before a positional argument: consume
        // sees the positional as its would-be value and must not swallow
        // it — a two-token return here would eat the dataset name.
        let (f, rest) = drive(&["--incremental", "cora", "--threads", "2"]).unwrap();
        assert!(f.incremental);
        assert_eq!(f.threads, 2);
        assert_eq!(rest, ["cora"]);

        // Repeated flags: the last occurrence wins, silently — matching
        // extract_flag and letting wrapper scripts append overrides.
        let (f, rest) = drive(&[
            "--threads",
            "2",
            "--trace",
            "a.jsonl",
            "--threads",
            "8",
            "--trace",
            "b.jsonl",
        ])
        .unwrap();
        assert_eq!(f.threads, 8);
        assert_eq!(f.trace.as_deref(), Some("b.jsonl"));
        assert!(rest.is_empty());

        // `--incremental` as the final argv token: consume is called with
        // value=None (nothing follows) and must still take exactly one
        // token rather than erroring like the value-taking flags do.
        let (f, rest) = drive(&["--scale", "0.1", "--incremental"]).unwrap();
        assert!(f.incremental);
        assert_eq!(rest, ["--scale", "0.1"]);

        // Repeating a valueless flag is idempotent, not an error.
        let (f, rest) = drive(&["--incremental", "--incremental"]).unwrap();
        assert!(f.incremental);
        assert!(rest.is_empty());

        // The budget merges knob by knob: the environment fills it, and
        // each `--budget` / `--deadline` overwrites only what it names —
        // `--deadline` overrides BBGNN_DEADLINE, a repeated `--budget`
        // keeps the earlier one's knobs, and BBGNN_BUDGET's epochs survive.
        let env = |name: &str| match name {
            "BBGNN_DEADLINE" => Some("90s".to_string()),
            "BBGNN_BUDGET" => Some("epochs=5,queries=9".to_string()),
            _ => None,
        };
        let mut f = InfraFlags::from_env(env).unwrap();
        for (flag, value) in [
            ("--budget", "queries=2M"),
            ("--deadline", "1s"),
            ("--budget", "mem=1Gi"),
        ] {
            f.consume(flag, Some(value)).unwrap();
        }
        let mut want = RunBudget::parse_spec("epochs=5,queries=2M,mem=1Gi").unwrap();
        want.deadline = Some(Duration::from_secs(1));
        assert_eq!(f.budget, want);
        // The flag's fault plan replaces the environment's.
        let env = |name: &str| (name == "BBGNN_FAULTS").then(|| "1:fault/kernel_nan".to_string());
        let mut f = InfraFlags::from_env(env).unwrap();
        f.consume("--faults", Some("7:fault/pool_panic@2")).unwrap();
        assert_eq!(f.faults.as_deref(), Some("7:fault/pool_panic@2"));
    }

    #[test]
    fn incr_env_is_strict() {
        for (v, want) in [("1", true), ("true", true), ("0", false), ("false", false)] {
            let env = |name: &str| (name == "BBGNN_INCR").then(|| v.to_string());
            assert_eq!(
                InfraFlags::from_env(env).unwrap().incremental,
                want,
                "BBGNN_INCR={v}"
            );
        }
        let env = |name: &str| (name == "BBGNN_INCR").then(|| "yes".to_string());
        assert!(matches!(
            InfraFlags::from_env(env),
            Err(BbgnnError::InvalidConfig { ref what, .. }) if what == "BBGNN_INCR"
        ));
    }

    #[test]
    fn strict_parse_rejects_malformed_values_naming_the_flag() {
        let mut f = InfraFlags::default();
        for (flag, value) in [
            ("--threads", "many"),
            ("--deadline", "soonish"),
            ("--budget", "steps=3"),
            ("--faults", "7:fault/unknown_site"),
            ("--faults", "noseed"),
        ] {
            match f.consume(flag, Some(value)) {
                Err(BbgnnError::InvalidConfig { what, .. }) => assert_eq!(what, flag),
                other => panic!("expected InvalidConfig for {flag} {value}, got {other:?}"),
            }
        }
        // Missing and empty values are reported too, naming the flag: an
        // empty `--store` must not root the store in the working directory.
        for flag in [
            "--threads",
            "--trace",
            "--store",
            "--deadline",
            "--budget",
            "--faults",
        ] {
            for value in [None, Some("")] {
                assert!(matches!(
                    f.consume(flag, value),
                    Err(BbgnnError::InvalidConfig { ref what, .. }) if what == flag
                ));
            }
        }
    }

    #[test]
    fn env_half_parses_and_validates() {
        let env = |name: &str| match name {
            "BBGNN_THREADS" => Some("2".to_string()),
            "BBGNN_TRACE" => Some("env.jsonl".to_string()),
            "BBGNN_STORE" => Some("envcache".to_string()),
            _ => None,
        };
        let f = InfraFlags::from_env(env).unwrap();
        assert_eq!(f.threads, 2);
        assert_eq!(f.trace.as_deref(), Some("env.jsonl"));
        assert_eq!(f.store.as_deref(), Some("envcache"));
        assert_eq!(InfraFlags::from_env(no_env).unwrap(), InfraFlags::default());
        // Set-but-empty is unset, for every variable.
        let all_empty = |_: &str| Some(String::new());
        assert_eq!(
            InfraFlags::from_env(all_empty).unwrap(),
            InfraFlags::default()
        );
        for (var, value) in [
            ("BBGNN_THREADS", "many"),
            ("BBGNN_DEADLINE", "soonish"),
            ("BBGNN_BUDGET", "steps=3"),
            ("BBGNN_FAULTS", "7:fault/unknown_site"),
            ("BBGNN_FAULTS", "noseed"),
        ] {
            let env = |name: &str| (name == var).then(|| value.to_string());
            match InfraFlags::from_env(env) {
                Err(BbgnnError::InvalidConfig { what, .. }) => assert_eq!(what, var),
                other => panic!("expected InvalidConfig for {var}={value}, got {other:?}"),
            }
        }
    }

    #[test]
    fn extract_flag_peels_pairs_and_keeps_the_rest() {
        let args: Vec<String> = ["--scale", "0.1", "--compare", "base.json", "--runs", "2"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let (value, rest) = extract_flag(&args, "--compare").unwrap();
        assert_eq!(value.as_deref(), Some("base.json"));
        assert_eq!(rest, ["--scale", "0.1", "--runs", "2"]);
        // Absent flag: untouched.
        let (value, rest) = extract_flag(&rest, "--compare").unwrap();
        assert_eq!(value, None);
        assert_eq!(rest.len(), 4);
        // Trailing bare flag is a loud error.
        let bare = vec!["--compare".to_string()];
        assert!(matches!(
            extract_flag(&bare, "--compare"),
            Err(BbgnnError::InvalidConfig { ref what, .. }) if what == "--compare"
        ));
    }
}
