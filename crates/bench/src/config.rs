//! Experiment configuration from CLI flags and environment variables.
//!
//! The experiment-shaped knobs (`--scale --runs --rate --seed --dataset
//! --out`) are parsed here; the cross-cutting infrastructure flags and
//! their variables are [`InfraFlags`], read by the shared [`crate::cli`]
//! module, which also owns the init-time side-effect sequence.
//! [`ExpConfig::job_spec`] maps the experiment knobs onto the scenario
//! layer's [`JobSpec`].

use crate::cli::{invalid, parse_value, process_env, InfraFlags};
use bbgnn::scenario::job::{EvalKind, EvalSpec, JobSpec};
use bbgnn_errors::BbgnnResult;

/// Shared experiment knobs.
///
/// Resolution order per field: CLI flag (`--scale 0.2`) > environment
/// variable (`BBGNN_SCALE=0.2`; set-but-empty is unset) > default. The
/// defaults are sized so each experiment binary finishes on a laptop CPU
/// in minutes; pass a larger `--scale` to approach the paper's full
/// dataset sizes.
#[derive(Clone, Debug)]
pub struct ExpConfig {
    /// Dataset scale factor in `(0, 1]` (fraction of Table III sizes).
    pub scale: f64,
    /// Repeated runs per cell (the paper uses 10).
    pub runs: usize,
    /// Perturbation rate `r` (the paper's headline tables use 0.1).
    pub rate: f64,
    /// Base RNG seed.
    pub seed: u64,
    /// Optional dataset filter (`--dataset cora|citeseer|polblogs`).
    pub dataset: Option<String>,
    /// Directory for CSV/JSON result dumps.
    pub out_dir: String,
    /// The infrastructure flags: threads, tracing, store, supervision,
    /// fault injection and incremental rescoring. Each changes how a run
    /// executes, never a completed cell's bytes (DESIGN.md §7, §13):
    /// threaded, traced, warm-started and incremental runs are
    /// byte-identical to plain ones (enforced by the CI tracing, store
    /// and incremental-parity jobs).
    pub infra: InfraFlags,
}

impl Default for ExpConfig {
    fn default() -> Self {
        Self {
            scale: 0.12,
            runs: 3,
            rate: 0.1,
            seed: 7,
            dataset: None,
            out_dir: "results".to_string(),
            infra: InfraFlags::default(),
        }
    }
}

impl ExpConfig {
    /// Parses the process arguments and environment, exiting with a usage
    /// message on malformed input. Experiment binaries call this; library
    /// code and tests use [`try_parse`](Self::try_parse).
    pub fn from_args() -> Self {
        let args: Vec<String> = std::env::args().skip(1).collect();
        Self::init_from(&args)
    }

    /// [`from_args`](Self::from_args) over an explicit argument list —
    /// the entry point for binaries that pre-extract their own flags
    /// (e.g. `kernel_bench --compare`) before handing the rest over.
    pub fn init_from(args: &[String]) -> Self {
        match Self::try_parse(args, process_env) {
            Ok(cfg) => {
                cfg.infra.init();
                cfg
            }
            Err(e) => {
                eprintln!("error: {e}");
                eprintln!("see --help for usage");
                std::process::exit(2);
            }
        }
    }

    /// Parses an explicit argument list against an environment lookup,
    /// reporting malformed input as
    /// [`InvalidConfig`](bbgnn_errors::BbgnnError::InvalidConfig) naming
    /// the offending flag or environment variable.
    pub fn try_parse(args: &[String], env: impl Fn(&str) -> Option<String>) -> BbgnnResult<Self> {
        let env = |name: &str| env(name).filter(|v| !v.is_empty());
        let mut cfg = Self::default();
        if let Some(v) = env("BBGNN_SCALE") {
            cfg.scale = parse_value(Some(&v), "BBGNN_SCALE", "a float")?;
        }
        if let Some(v) = env("BBGNN_RUNS") {
            cfg.runs = parse_value(Some(&v), "BBGNN_RUNS", "an integer")?;
        }
        if let Some(v) = env("BBGNN_RATE") {
            cfg.rate = parse_value(Some(&v), "BBGNN_RATE", "a float")?;
        }
        if let Some(v) = env("BBGNN_SEED") {
            cfg.seed = parse_value(Some(&v), "BBGNN_SEED", "an integer")?;
        }
        if let Some(v) = env("BBGNN_OUT") {
            cfg.out_dir = v;
        }
        cfg.infra = InfraFlags::from_env(env)?;
        let mut i = 0;
        while i < args.len() {
            let flag = args[i].as_str();
            let value = args.get(i + 1).map(String::as_str);
            let consumed = cfg.infra.consume(flag, value)?;
            if consumed > 0 {
                i += consumed;
                continue;
            }
            match flag {
                "--scale" => cfg.scale = parse_value(value, flag, "a float")?,
                "--runs" => cfg.runs = parse_value(value, flag, "an integer")?,
                "--rate" => cfg.rate = parse_value(value, flag, "a float")?,
                "--seed" => cfg.seed = parse_value(value, flag, "an integer")?,
                "--dataset" => {
                    cfg.dataset = Some(
                        value
                            .ok_or_else(|| invalid(flag, "requires a value (name)"))?
                            .to_string(),
                    )
                }
                "--out" => {
                    cfg.out_dir = value
                        .ok_or_else(|| invalid(flag, "requires a value (dir)"))?
                        .to_string()
                }
                "--help" | "-h" => {
                    eprintln!(
                        "flags: --scale F --runs N --rate F --seed N --dataset NAME --out DIR {}",
                        InfraFlags::USAGE
                    );
                    std::process::exit(0);
                }
                other => return Err(invalid(other, "unknown flag; see --help")),
            }
            i += 2;
        }
        if !(cfg.scale > 0.0 && cfg.scale <= 1.0) {
            return Err(invalid(
                "--scale / BBGNN_SCALE",
                format!("must be in (0, 1], got {}", cfg.scale),
            ));
        }
        if cfg.runs < 1 {
            return Err(invalid("--runs / BBGNN_RUNS", "need at least one run"));
        }
        if !(cfg.rate >= 0.0 && cfg.rate <= 1.0) {
            return Err(invalid(
                "--rate / BBGNN_RATE",
                format!("must be in [0, 1], got {}", cfg.rate),
            ));
        }
        Ok(cfg)
    }

    /// The scenario job spec for one cell of `dataset` under evaluation
    /// `kind`: the one mapping of `--runs --scale --rate --seed` onto the
    /// wire spec `bbgnn-serve` also accepts.
    pub fn job_spec(&self, dataset: &str, kind: EvalKind) -> JobSpec {
        JobSpec {
            dataset: dataset.to_string(),
            eval: EvalSpec {
                kind,
                runs: self.runs,
                scale: self.scale,
                rate: self.rate,
            },
            seed: self.seed,
            ..JobSpec::default()
        }
    }

    /// Banner line echoed at the top of every experiment's output.
    ///
    /// Threads are shown but deliberately kept out of
    /// [`fingerprint`](Self::fingerprint): the kernels are bitwise
    /// deterministic in the worker count, so a checkpoint taken at
    /// `--threads 1` is still valid when resumed at `--threads 8`.
    pub fn banner(&self, experiment: &str) -> String {
        format!(
            "== {experiment} | scale {} | runs {} | rate {} | seed {} | threads {} ==",
            self.scale,
            self.runs,
            self.rate,
            self.seed,
            bbgnn::exec::env_threads()
        )
    }

    /// Checkpoint fingerprint: a resumed run must have identical knobs, or
    /// the old checkpoint is discarded (see
    /// [`Checkpoint`](crate::checkpoint::Checkpoint)).
    ///
    /// Infra knobs are deliberately omitted: §7 guarantees results are
    /// invariant to thread count and tracing, the store/out_dir only say
    /// *where* results land, deadline/budget/faults truncate or perturb a
    /// run in ways a resume is designed to heal, and `--incremental` is an
    /// execution strategy with bitwise-identical output (§13). Folding any
    /// of them in would make `--threads 1` checkpoints unusable under
    /// `--threads 8`.
    // lint: key_fields exclude(out_dir, infra) reason=infra knobs; §7/§13 results are invariant to them and a resume must survive changing them
    pub fn fingerprint(&self, experiment: &str) -> String {
        format!(
            "{experiment}|scale={}|runs={}|rate={}|seed={}|dataset={}",
            self.scale,
            self.runs,
            self.rate,
            self.seed,
            self.dataset.as_deref().unwrap_or("all")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bbgnn_errors::BbgnnError;
    use bbgnn_supervise::RunBudget;
    use std::time::Duration;

    fn no_env(_: &str) -> Option<String> {
        None
    }

    fn argv(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn defaults_are_sane() {
        let c = ExpConfig::default();
        assert!(c.scale > 0.0 && c.scale <= 1.0);
        assert!(c.runs >= 1);
        assert!(c.rate > 0.0);
    }

    #[test]
    fn banner_mentions_experiment() {
        let c = ExpConfig::default();
        assert!(c.banner("table4").contains("table4"));
    }

    #[test]
    fn flags_override_env_override_defaults() {
        let env = |name: &str| (name == "BBGNN_SCALE").then(|| "0.3".to_string());
        let c = ExpConfig::try_parse(&argv(&["--runs", "5"]), env).unwrap();
        assert_eq!(c.scale, 0.3);
        assert_eq!(c.runs, 5);
        assert_eq!(c.rate, ExpConfig::default().rate);
    }

    #[test]
    fn malformed_flag_names_the_flag() {
        let err = ExpConfig::try_parse(&argv(&["--scale", "big"]), no_env).unwrap_err();
        match err {
            BbgnnError::InvalidConfig { what, message } => {
                assert_eq!(what, "--scale");
                assert!(
                    message.contains("\"big\""),
                    "message must quote the value: {message}"
                );
            }
            other => panic!("expected InvalidConfig, got {other:?}"),
        }
    }

    #[test]
    fn malformed_env_names_the_variable() {
        let env = |name: &str| (name == "BBGNN_SEED").then(|| "7.5".to_string());
        let err = ExpConfig::try_parse(&[], env).unwrap_err();
        match err {
            BbgnnError::InvalidConfig { what, .. } => assert_eq!(what, "BBGNN_SEED"),
            other => panic!("expected InvalidConfig, got {other:?}"),
        }
    }

    #[test]
    fn missing_value_and_unknown_flag_are_reported() {
        assert!(matches!(
            ExpConfig::try_parse(&argv(&["--seed"]), no_env),
            Err(BbgnnError::InvalidConfig { ref what, .. }) if what == "--seed"
        ));
        assert!(matches!(
            ExpConfig::try_parse(&argv(&["--frobnicate", "1"]), no_env),
            Err(BbgnnError::InvalidConfig { ref what, .. }) if what == "--frobnicate"
        ));
    }

    #[test]
    fn out_of_range_values_are_rejected() {
        assert!(ExpConfig::try_parse(&argv(&["--scale", "1.5"]), no_env).is_err());
        assert!(ExpConfig::try_parse(&argv(&["--runs", "0"]), no_env).is_err());
        assert!(ExpConfig::try_parse(&argv(&["--rate", "-0.1"]), no_env).is_err());
    }

    #[test]
    fn threads_flag_and_env_are_parsed_and_validated() {
        let c = ExpConfig::try_parse(&argv(&["--threads", "4"]), no_env).unwrap();
        assert_eq!(c.infra.threads, 4);
        let env = |name: &str| (name == "BBGNN_THREADS").then(|| "2".to_string());
        let c = ExpConfig::try_parse(&[], env).unwrap();
        assert_eq!(c.infra.threads, 2);
        // 0 = auto, and so is a set-but-empty variable.
        let env = |name: &str| (name == "BBGNN_THREADS").then(String::new);
        assert_eq!(ExpConfig::try_parse(&[], env).unwrap().infra.threads, 0);
        // A typo'd value is a loud error here, not a silent fall-back.
        let env = |name: &str| (name == "BBGNN_THREADS").then(|| "many".to_string());
        assert!(matches!(
            ExpConfig::try_parse(&[], env),
            Err(BbgnnError::InvalidConfig { ref what, .. }) if what == "BBGNN_THREADS"
        ));
    }

    #[test]
    fn trace_flag_and_env_are_parsed() {
        let c = ExpConfig::try_parse(&argv(&["--trace", "out.jsonl"]), no_env).unwrap();
        assert_eq!(c.infra.trace.as_deref(), Some("out.jsonl"));
        let env = |name: &str| (name == "BBGNN_TRACE").then(|| "env.jsonl".to_string());
        let c = ExpConfig::try_parse(&[], env).unwrap();
        assert_eq!(c.infra.trace.as_deref(), Some("env.jsonl"));
        // Flag wins over env, default is off.
        let env = |name: &str| (name == "BBGNN_TRACE").then(|| "env.jsonl".to_string());
        let c = ExpConfig::try_parse(&argv(&["--trace", "flag.jsonl"]), env).unwrap();
        assert_eq!(c.infra.trace.as_deref(), Some("flag.jsonl"));
        assert_eq!(ExpConfig::try_parse(&[], no_env).unwrap().infra.trace, None);
        assert!(matches!(
            ExpConfig::try_parse(&argv(&["--trace"]), no_env),
            Err(BbgnnError::InvalidConfig { ref what, .. }) if what == "--trace"
        ));
    }

    #[test]
    fn store_flag_and_env_are_parsed_and_fingerprint_ignores_store() {
        let c = ExpConfig::try_parse(&argv(&["--store", "cache"]), no_env).unwrap();
        assert_eq!(c.infra.store.as_deref(), Some("cache"));
        let env = |name: &str| (name == "BBGNN_STORE").then(|| "envcache".to_string());
        let c = ExpConfig::try_parse(&[], env).unwrap();
        assert_eq!(c.infra.store.as_deref(), Some("envcache"));
        assert_eq!(ExpConfig::try_parse(&[], no_env).unwrap().infra.store, None);
        // An empty BBGNN_STORE is unset: it must not root a store in the
        // working directory.
        let env = |name: &str| (name == "BBGNN_STORE").then(String::new);
        assert_eq!(ExpConfig::try_parse(&[], env).unwrap().infra.store, None);
    }

    #[test]
    fn deadline_and_budget_flags_are_validated_and_fingerprint_ignored() {
        let c = ExpConfig::try_parse(
            &argv(&["--deadline", "90s", "--budget", "epochs=5,mem=1Gi"]),
            no_env,
        )
        .unwrap();
        let mut want = RunBudget::parse_spec("epochs=5,mem=1Gi").unwrap();
        want.deadline = Some(Duration::from_secs(90));
        assert_eq!(c.infra.budget, want);
        // Malformed specs are loud config errors naming the flag.
        assert!(matches!(
            ExpConfig::try_parse(&argv(&["--deadline", "soonish"]), no_env),
            Err(BbgnnError::InvalidConfig { ref what, .. }) if what == "--deadline"
        ));
        assert!(matches!(
            ExpConfig::try_parse(&argv(&["--budget", "steps=3"]), no_env),
            Err(BbgnnError::InvalidConfig { ref what, .. }) if what == "--budget"
        ));
    }

    #[test]
    fn faults_flag_is_validated_and_fingerprint_ignored() {
        let c = ExpConfig::try_parse(&argv(&["--faults", "7:fault/kernel_nan@2"]), no_env).unwrap();
        assert_eq!(c.infra.faults.as_deref(), Some("7:fault/kernel_nan@2"));
        assert!(matches!(
            ExpConfig::try_parse(&argv(&["--faults", "7:fault/nope"]), no_env),
            Err(BbgnnError::InvalidConfig { ref what, .. }) if what == "--faults"
        ));
    }

    #[test]
    fn incremental_flag_and_env_are_parsed_and_fingerprint_ignored() {
        // Valueless flag: must not swallow the following argument.
        let c = ExpConfig::try_parse(&argv(&["--incremental", "--runs", "5"]), no_env).unwrap();
        assert!(c.infra.incremental);
        assert_eq!(c.runs, 5);
        let env = |name: &str| (name == "BBGNN_INCR").then(|| "1".to_string());
        assert!(ExpConfig::try_parse(&[], env).unwrap().infra.incremental);
        assert!(!ExpConfig::try_parse(&[], no_env).unwrap().infra.incremental);
        // Malformed env is a loud error naming the variable.
        let env = |name: &str| (name == "BBGNN_INCR").then(|| "maybe".to_string());
        assert!(matches!(
            ExpConfig::try_parse(&[], env),
            Err(BbgnnError::InvalidConfig { ref what, .. }) if what == "BBGNN_INCR"
        ));
    }

    #[test]
    fn fingerprint_ignores_trace() {
        // Tracing never changes results, so a checkpoint from an untraced
        // run must be resumable under --trace (and vice versa).
        let a = ExpConfig {
            infra: InfraFlags {
                trace: Some("t.jsonl".to_string()),
                ..InfraFlags::default()
            },
            ..Default::default()
        };
        let b = ExpConfig::default();
        assert_eq!(a.fingerprint("t"), b.fingerprint("t"));
    }

    #[test]
    fn fingerprint_ignores_threads() {
        // Bitwise determinism in the worker count means a checkpoint from a
        // 1-thread run must be resumable on 8 threads.
        let a = ExpConfig {
            infra: InfraFlags {
                threads: 1,
                ..InfraFlags::default()
            },
            ..Default::default()
        };
        let b = ExpConfig {
            infra: InfraFlags {
                threads: 8,
                ..InfraFlags::default()
            },
            ..Default::default()
        };
        assert_eq!(a.fingerprint("t"), b.fingerprint("t"));
    }

    #[test]
    fn fingerprint_ignores_every_infra_flag() {
        // No infra flag changes a completed cell's bytes: threads (bitwise
        // determinism), tracing, the store (a warm start replays exact
        // bytes), supervision (it only truncates work, and completed cells
        // stay valid), injected faults (they only perturb execution) and
        // incremental rescoring (identical flip sequences). A checkpoint
        // from a plain run must resume under any of them, and vice versa.
        let a = ExpConfig {
            infra: InfraFlags {
                threads: 8,
                trace: Some("t.jsonl".to_string()),
                store: Some("cache".to_string()),
                budget: RunBudget {
                    deadline: Some(Duration::from_secs(90)),
                    epochs: Some(5),
                    queries: Some(7),
                    mem_bytes: Some(1 << 30),
                },
                faults: Some("7:fault/kernel_nan".to_string()),
                incremental: true,
            },
            ..Default::default()
        };
        let b = ExpConfig {
            infra: InfraFlags {
                threads: 1,
                ..InfraFlags::default()
            },
            ..Default::default()
        };
        assert_eq!(a.fingerprint("t"), b.fingerprint("t"));
        assert_eq!(a.fingerprint("t"), ExpConfig::default().fingerprint("t"));
    }

    #[test]
    fn job_spec_carries_the_experiment_knobs() {
        let c = ExpConfig::try_parse(
            &argv(&[
                "--runs", "2", "--scale", "0.3", "--rate", "0.05", "--seed", "11",
            ]),
            no_env,
        )
        .unwrap();
        let spec = c.job_spec("citeseer", EvalKind::DefenseTime);
        assert_eq!(spec.dataset, "citeseer");
        assert_eq!(spec.eval.kind, EvalKind::DefenseTime);
        assert_eq!(
            (spec.eval.runs, spec.eval.scale, spec.eval.rate, spec.seed),
            (2, 0.3, 0.05, 11)
        );
        assert_eq!((spec.attack, spec.defense, spec.budget), (None, None, None));
    }

    #[test]
    fn fingerprint_distinguishes_configs() {
        let a = ExpConfig::default();
        let b = ExpConfig {
            seed: 8,
            ..Default::default()
        };
        assert_ne!(a.fingerprint("t"), b.fingerprint("t"));
        assert_ne!(a.fingerprint("t4"), a.fingerprint("t5"));
    }
}
