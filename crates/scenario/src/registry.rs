//! Named factories over every attacker and defender — the registry the
//! experiment harness, the examples, and `bbgnn-serve` resolve against to
//! produce the paper's table rows and columns.
//!
//! Two resolution styles:
//!
//! * the paper-ordered collections ([`AttackerKind::paper_rows`],
//!   [`DefenderKind::paper_columns`]) the table binaries iterate over;
//! * by-name lookup ([`attacker_by_name`], [`defender_by_name`]) for job
//!   specs arriving over the wire — unknown names come back as
//!   [`InvalidConfig`](BbgnnError::InvalidConfig) naming the field, never
//!   as a panic.

use bbgnn_attack::dice::{Dice, DiceConfig};
use bbgnn_attack::gfattack::{GfAttack, GfAttackConfig};
use bbgnn_attack::metattack::{Metattack, MetattackConfig};
use bbgnn_attack::minmax::{MinMaxAttack, MinMaxConfig};
use bbgnn_attack::peega::{Peega, PeegaConfig};
use bbgnn_attack::peega_parallel::{PeegaParallel, PeegaParallelConfig};
use bbgnn_attack::pgd::{PgdAttack, PgdConfig};
use bbgnn_attack::random::{RandomAttack, RandomAttackConfig};
use bbgnn_attack::targeted::{TargetedPeega, TargetedPeegaConfig};
use bbgnn_attack::Attacker;
use bbgnn_defense::gnat::{Gnat, GnatConfig};
use bbgnn_defense::jaccard::{GcnJaccard, GcnJaccardConfig};
use bbgnn_defense::prognn::{ProGnn, ProGnnConfig};
use bbgnn_defense::rgcn::{Rgcn, RgcnConfig};
use bbgnn_defense::simpgcn::{SimPGcn, SimPGcnConfig};
use bbgnn_defense::svd_defense::{GcnSvd, GcnSvdConfig};
use bbgnn_defense::Defender;
use bbgnn_errors::{BbgnnError, BbgnnResult};
use bbgnn_gnn::gat::Gat;
use bbgnn_gnn::gcn::Gcn;
use bbgnn_gnn::train::TrainConfig;

/// Every attacker of the evaluation section, in the row order of
/// Tables IV–VI, plus the controls and variants the sensitivity figures
/// use.
#[derive(Clone, Debug)]
pub enum AttackerKind {
    /// White-box PGD.
    Pgd(PgdConfig),
    /// White-box MinMax.
    MinMax(MinMaxConfig),
    /// Gray-box Metattack.
    Metattack(MetattackConfig),
    /// Black-box GF-Attack.
    GfAttack(GfAttackConfig),
    /// Black-box PEEGA (the paper's attacker).
    Peega(PeegaConfig),
    /// Random control (not a paper row).
    Random(RandomAttackConfig),
    /// DICE heuristic control (disconnect internally, connect externally).
    Dice(DiceConfig),
    /// PEEGA-P: all flips chosen jointly by a Gumbel-relaxed selection in
    /// a budget-independent number of gradient steps. Its flips differ
    /// from PEEGA's greedy ones (`ext_extensions` compares the two).
    PeegaParallel(PeegaParallelConfig),
    /// Targeted PEEGA (the Nettack setting of Table I).
    TargetedPeega(TargetedPeegaConfig),
}

impl AttackerKind {
    /// The paper's attacker rows at perturbation rate `rate` — the first
    /// five of [`ATTACKER_NAMES`], with [`attacker_by_name`]'s tuning.
    pub fn paper_rows(rate: f64) -> Vec<AttackerKind> {
        ATTACKER_NAMES[..5]
            .iter()
            .filter_map(|name| attacker_by_name(name, rate).ok())
            .collect()
    }

    /// Instantiates the attacker.
    pub fn build(&self) -> Box<dyn Attacker> {
        match self.clone() {
            AttackerKind::Pgd(c) => Box::new(PgdAttack::new(c)),
            AttackerKind::MinMax(c) => Box::new(MinMaxAttack::new(c)),
            AttackerKind::Metattack(c) => Box::new(Metattack::new(c)),
            AttackerKind::GfAttack(c) => Box::new(GfAttack::new(c)),
            AttackerKind::Peega(c) => Box::new(Peega::new(c)),
            AttackerKind::Random(c) => Box::new(RandomAttack::new(c)),
            AttackerKind::Dice(c) => Box::new(Dice::new(c)),
            AttackerKind::PeegaParallel(c) => Box::new(PeegaParallel::new(c)),
            AttackerKind::TargetedPeega(c) => Box::new(TargetedPeega::new(c)),
        }
    }

    /// Display name: the built attacker's [`Attacker::name`].
    pub fn name(&self) -> &'static str {
        self.build().name()
    }
}

/// Every attacker name [`attacker_by_name`] resolves, in registry order.
pub const ATTACKER_NAMES: [&str; 9] = [
    "PGD",
    "MinMax",
    "Metattack",
    "GF-Attack",
    "PEEGA",
    "Random",
    "DICE",
    "PEEGA-P",
    "PEEGA-T",
];

/// Resolves an attacker by its display name at perturbation rate `rate`,
/// with the per-attacker tuning for laptop-scale graphs that
/// [`AttackerKind::paper_rows`] also uses. `PEEGA-T` resolves with an
/// empty victim set and the Nettack per-victim degree budget — callers
/// wanting specific victims construct [`AttackerKind::TargetedPeega`]
/// directly.
///
/// Unknown names are [`InvalidConfig`](BbgnnError::InvalidConfig) naming
/// the `attack` field — a malformed job spec must never panic the server.
pub fn attacker_by_name(name: &str, rate: f64) -> BbgnnResult<AttackerKind> {
    let kind = match name {
        "PGD" => AttackerKind::Pgd(PgdConfig {
            rate,
            ..Default::default()
        }),
        "MinMax" => AttackerKind::MinMax(MinMaxConfig {
            rate,
            ..Default::default()
        }),
        "Metattack" => AttackerKind::Metattack(MetattackConfig {
            rate,
            retrain_every: 5,
            ..Default::default()
        }),
        "GF-Attack" => AttackerKind::GfAttack(GfAttackConfig {
            rate,
            ..Default::default()
        }),
        "PEEGA" => AttackerKind::Peega(PeegaConfig {
            rate,
            ..Default::default()
        }),
        "Random" => AttackerKind::Random(RandomAttackConfig {
            rate,
            ..Default::default()
        }),
        "DICE" => AttackerKind::Dice(DiceConfig {
            rate,
            ..Default::default()
        }),
        "PEEGA-P" => AttackerKind::PeegaParallel(PeegaParallelConfig {
            rate,
            ..Default::default()
        }),
        "PEEGA-T" => AttackerKind::TargetedPeega(TargetedPeegaConfig::degree_budget(
            Vec::new(),
            PeegaConfig {
                rate,
                ..Default::default()
            },
        )),
        other => {
            return Err(BbgnnError::InvalidConfig {
                what: "attack".to_string(),
                message: format!(
                    "unknown attacker {other:?}; known: {}",
                    ATTACKER_NAMES.join(", ")
                ),
            })
        }
    };
    Ok(kind)
}

/// Every model column of Tables IV–VI: the two raw GNNs and the six
/// defenders.
#[derive(Clone, Debug)]
pub enum DefenderKind {
    /// Raw GCN.
    Gcn,
    /// Raw GAT.
    Gat,
    /// GCN-Jaccard preprocessing defense.
    GcnJaccard(GcnJaccardConfig),
    /// GCN-SVD low-rank defense.
    GcnSvd(GcnSvdConfig),
    /// RGCN Gaussian defense.
    Rgcn(RgcnConfig),
    /// Pro-GNN structure-learning defense.
    ProGnn(ProGnnConfig),
    /// SimPGCN similarity-preserving defense.
    SimPGcn(SimPGcnConfig),
    /// GNAT (the paper's defender).
    Gnat(GnatConfig),
}

impl DefenderKind {
    /// The paper's column order for a dataset, with
    /// [`defender_by_name`]'s tuning; `identity_features` drops
    /// GCN-Jaccard and GNAT's feature view (the Polblogs case, Table VI).
    pub fn paper_columns(identity_features: bool) -> Vec<DefenderKind> {
        DEFENDER_NAMES
            .iter()
            .filter(|&&name| !(identity_features && name == "GCN-Jaccard"))
            .filter_map(|name| defender_by_name(name, identity_features).ok())
            .collect()
    }

    /// Instantiates the defender with the given training configuration
    /// (the defender-specific hyper-parameters come from the variant's own
    /// config; `train` controls epochs/lr/seed so repeated runs differ only
    /// by seed).
    pub fn build(&self, train: TrainConfig) -> Box<dyn Defender> {
        match self.clone() {
            DefenderKind::Gcn => Box::new(Gcn::paper_default(train)),
            DefenderKind::Gat => Box::new(Gat::paper_default(train)),
            DefenderKind::GcnJaccard(c) => {
                Box::new(GcnJaccard::new(GcnJaccardConfig { train, ..c }))
            }
            DefenderKind::GcnSvd(c) => Box::new(GcnSvd::new(GcnSvdConfig { train, ..c })),
            DefenderKind::Rgcn(c) => Box::new(Rgcn::new(RgcnConfig { train, ..c })),
            DefenderKind::ProGnn(c) => Box::new(ProGnn::new(ProGnnConfig { train, ..c })),
            DefenderKind::SimPGcn(c) => Box::new(SimPGcn::new(SimPGcnConfig { train, ..c })),
            DefenderKind::Gnat(c) => Box::new(Gnat::new(GnatConfig { train, ..c })),
        }
    }

    /// Display name: the built defender's [`Defender::name`].
    pub fn name(&self) -> String {
        self.build(TrainConfig::default()).name()
    }
}

/// Every model/defender name [`defender_by_name`] resolves, in the paper's
/// column order.
pub const DEFENDER_NAMES: [&str; 8] = [
    "GCN",
    "GAT",
    "GCN-Jaccard",
    "GCN-SVD",
    "RGCN",
    "Pro-GNN",
    "SimPGCN",
    "GNAT",
];

/// Resolves a model column by its display name — the one tuning table
/// [`DefenderKind::paper_columns`] is built from. `identity_features`
/// applies the Polblogs convention to GNAT (no feature view, and a 1-hop
/// topology view because 2-hop reachability saturates on dense
/// identity-feature graphs); the other columns are their defaults
/// regardless.
///
/// Unknown names are [`InvalidConfig`](BbgnnError::InvalidConfig) naming
/// the `defense` field — a malformed job spec must never panic the server.
pub fn defender_by_name(name: &str, identity_features: bool) -> BbgnnResult<DefenderKind> {
    let kind = match name {
        "GCN" => DefenderKind::Gcn,
        "GAT" => DefenderKind::Gat,
        "GCN-Jaccard" => DefenderKind::GcnJaccard(GcnJaccardConfig::default()),
        "GCN-SVD" => DefenderKind::GcnSvd(GcnSvdConfig::default()),
        "RGCN" => DefenderKind::Rgcn(RgcnConfig::default()),
        "Pro-GNN" => DefenderKind::ProGnn(ProGnnConfig::default()),
        "SimPGCN" => DefenderKind::SimPGcn(SimPGcnConfig::default()),
        "GNAT" => DefenderKind::Gnat(if identity_features {
            GnatConfig {
                k_t: 1,
                ..GnatConfig::without_feature_view()
            }
        } else {
            GnatConfig::default()
        }),
        other => {
            return Err(BbgnnError::InvalidConfig {
                what: "defense".to_string(),
                message: format!(
                    "unknown model/defender {other:?}; known: {}",
                    DEFENDER_NAMES.join(", ")
                ),
            })
        }
    };
    Ok(kind)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bbgnn_graph::datasets::DatasetSpec;

    #[test]
    fn paper_rows_cover_all_five_attackers() {
        let rows = AttackerKind::paper_rows(0.1);
        let names: Vec<&str> = rows.iter().map(|r| r.name()).collect();
        assert_eq!(
            names,
            vec!["PGD", "MinMax", "Metattack", "GF-Attack", "PEEGA"]
        );
    }

    #[test]
    fn paper_columns_respect_identity_features() {
        let with = DefenderKind::paper_columns(false);
        assert_eq!(with.len(), 8);
        assert!(with.iter().any(|d| d.name() == "GCN-Jaccard"));
        let without = DefenderKind::paper_columns(true);
        assert_eq!(without.len(), 7);
        assert!(!without.iter().any(|d| d.name() == "GCN-Jaccard"));
        assert_eq!(without.last().unwrap().name(), "GNAT-t+e");
    }

    /// The paper-ordered collections build, in table order, the rows and
    /// columns the name tables list: a reordered or mis-resolved row or
    /// column fails here.
    #[test]
    fn every_kind_builds_and_names_consistently() {
        let rows: Vec<String> = AttackerKind::paper_rows(0.05)
            .iter()
            .map(|kind| kind.build().name().to_string())
            .collect();
        assert_eq!(rows, ATTACKER_NAMES[..5]);
        let columns: Vec<String> = DefenderKind::paper_columns(false)
            .iter()
            .map(|kind| kind.build(TrainConfig::fast_test()).name())
            .collect();
        assert_eq!(columns.len(), DEFENDER_NAMES.len(), "{columns:?}");
        for (built, name) in columns.iter().zip(DEFENDER_NAMES) {
            // GNAT's name carries its view tags on some datasets.
            let matches = if name == "GNAT" {
                built.starts_with(name)
            } else {
                built == name
            };
            assert!(matches, "column {built} where the table lists {name}");
        }
    }

    #[test]
    fn built_defender_trains_end_to_end() {
        // Scale 0.08: at 0.05 the graph is small enough that accuracy
        // swings with the RNG stream (the vendored PRNG differs from
        // upstream rand's), making the threshold flaky.
        let g = DatasetSpec::CoraLike.generate(0.08, 161);
        let mut d = DefenderKind::Gcn.build(TrainConfig::fast_test());
        d.fit(&g);
        assert!(d.test_accuracy(&g) > 0.4);
    }

    #[test]
    fn every_attacker_resolves_by_name_and_round_trips() {
        for name in ATTACKER_NAMES {
            let kind = attacker_by_name(name, 0.1).unwrap();
            assert_eq!(kind.name(), name);
            // The built attacker agrees with the registry on its name.
            assert_eq!(kind.build().name(), name);
        }
    }

    #[test]
    fn every_defender_resolves_by_name_and_round_trips() {
        for name in DEFENDER_NAMES {
            let kind = defender_by_name(name, false).unwrap();
            // GNAT's concrete display name carries its view suffix.
            if name == "GNAT" {
                assert!(kind.name().starts_with("GNAT"));
            } else {
                assert_eq!(kind.name(), name);
            }
            let built = kind.build(TrainConfig::fast_test());
            assert_eq!(built.name(), kind.name());
        }
    }

    #[test]
    fn unknown_names_are_invalid_config_not_panics() {
        match attacker_by_name("Nettack", 0.1) {
            Err(BbgnnError::InvalidConfig { what, message }) => {
                assert_eq!(what, "attack");
                assert!(message.contains("Nettack"), "message names it: {message}");
                assert!(message.contains("PEEGA"), "message lists options");
            }
            other => panic!("expected InvalidConfig, got {other:?}"),
        }
        match defender_by_name("Jaccard", false) {
            Err(BbgnnError::InvalidConfig { what, message }) => {
                assert_eq!(what, "defense");
                assert!(message.contains("Jaccard"), "message names it: {message}");
            }
            other => panic!("expected InvalidConfig, got {other:?}"),
        }
    }
}
