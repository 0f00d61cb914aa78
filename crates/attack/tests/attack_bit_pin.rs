//! Bit pins of the four attackers that no golden fixture or benchmark
//! reference covers: PEEGA-P, DICE, Random and PEEGA-T. On one small
//! cora-like graph, each poisoned graph's content hash, flip counts and
//! truncation flag have fixed values, recorded before `Attacker::attack`
//! became one provided method over `perturb`. A change that moves one flip
//! or one feature bit fails here. CI runs this under 1 and 4 kernel threads.

use bbgnn_attack::dice::{Dice, DiceConfig};
use bbgnn_attack::peega::PeegaConfig;
use bbgnn_attack::peega_parallel::{PeegaParallel, PeegaParallelConfig};
use bbgnn_attack::random::{RandomAttack, RandomAttackConfig};
use bbgnn_attack::targeted::{TargetedPeega, TargetedPeegaConfig};
use bbgnn_attack::Attacker;
use bbgnn_graph::datasets::DatasetSpec;

#[test]
fn attackers_keep_their_poisoned_bits() {
    let g = DatasetSpec::CoraLike.generate(0.06, 11);
    // PEEGA-T's victims: the first three test nodes of degree ≥ 2, each
    // with the Nettack budget deg + 2.
    let victims: Vec<usize> = (g.split.test.iter().copied())
        .filter(|&v| g.degree(v) >= 2)
        .take(3)
        .collect();
    let mut attackers: [Box<dyn Attacker>; 4] = [
        Box::new(PeegaParallel::new(PeegaParallelConfig::default())),
        Box::new(Dice::new(DiceConfig::default())),
        Box::new(RandomAttack::new(RandomAttackConfig::default())),
        Box::new(TargetedPeega::new(TargetedPeegaConfig::degree_budget(
            victims,
            PeegaConfig::default(),
        ))),
    ];
    // (name, poisoned content hash, edge flips, feature flips, truncated)
    let pins = [
        ("PEEGA-P", 0xdca0_27e3_0eef_33ca_u64, 26, 4, false),
        ("DICE", 0x8a5b_d27a_3577_530c, 30, 0, false),
        ("Random", 0xecd8_2ac1_701a_dce3, 30, 0, false),
        ("PEEGA-T", 0xf2ef_1e67_9749_7c05, 20, 3, false),
    ];
    for (attacker, want) in attackers.iter_mut().zip(pins) {
        let r = attacker.attack(&g);
        let got = (
            attacker.name(),
            r.poisoned.content_hash(),
            r.edge_flips,
            r.feature_flips,
            r.truncated,
        );
        assert_eq!(got, want, "{}: got hash {:#018x}", want.0, got.1);
    }
}
