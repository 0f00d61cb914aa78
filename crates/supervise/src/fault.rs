//! Seeded, deterministic fault injection (DESIGN.md §11).
//!
//! A fault plan is installed from `BBGNN_FAULTS=<seed>:<spec>` where
//! `<spec>` is a comma-separated list of `site[@n]` items: the named site
//! fires on its `n`-th invocation (1-based; bare `site` means `@1`).
//! Every site is a named, cataloged injection point
//! ([`FAULT_SITES`], mirrored in DESIGN.md §11 and enforced by
//! `bbgnn-lint`'s `fault_site` rule), and each shot carries a seed derived
//! deterministically from the plan seed, the site name, and the invocation
//! index — so an injected NaN lands at the same matrix entry and an
//! injected corruption flips the same byte on every replay.
//!
//! With no plan installed, [`fault_at`] is one relaxed atomic load — the
//! same zero-cost-off contract as `bbgnn-obs`.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::RwLock;

/// The closed catalog of injection sites. Adding a site means adding it
/// here **and** to the DESIGN.md §11 catalog (bbgnn-lint cross-checks the
/// literals at every `fault_at` call site against §11).
pub const FAULT_SITES: &[&str] = &[
    "fault/dataset_io",
    "fault/kernel_nan",
    "fault/pool_panic",
    "fault/store_corrupt",
    "fault/store_short_write",
];

/// Fast gate: whether any fault plan is installed.
static FAULTS_ON: AtomicBool = AtomicBool::new(false);

struct SiteState {
    /// 1-based invocation indices at which this site fires.
    fire_at: Vec<u64>,
    /// Invocations seen so far.
    calls: AtomicU64,
}

struct Plan {
    seed: u64,
    sites: HashMap<String, SiteState>,
}

static PLAN: RwLock<Option<Plan>> = RwLock::new(None);

/// One firing of an injection site.
#[derive(Clone, Copy, Debug)]
pub struct FaultShot {
    /// Deterministic per-shot seed (plan seed ⊕ site ⊕ invocation index).
    pub seed: u64,
}

impl FaultShot {
    /// Deterministically picks an index in `0..n` (`0` when `n == 0`).
    pub fn pick(&self, n: usize) -> usize {
        if n == 0 {
            return 0;
        }
        (splitmix(self.seed) % n as u64) as usize
    }
}

/// SplitMix64 finalizer — the same mixing idiom the retry policy uses.
fn splitmix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn shot_seed(plan_seed: u64, site: &str, invocation: u64) -> u64 {
    // FNV-1a over the site name, mixed with the plan seed and call index.
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in site.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    splitmix(plan_seed ^ h ^ invocation.wrapping_mul(0x2545_F491_4F6C_DD1D))
}

/// Validates a `<seed>:<site>[@n][,…]` spec without installing it — the
/// `--faults` flag parser checks specs up front, then installs them in
/// the init phase alongside budgets and signal handlers.
pub fn validate(spec: &str) -> Result<(), String> {
    parse_plan(spec).map(|_| ())
}

/// Installs a fault plan from a `<seed>:<site>[@n][,…]` spec, replacing
/// any previous plan. Unknown site names are rejected against
/// [`FAULT_SITES`].
pub fn install(spec: &str) -> Result<(), String> {
    let plan = parse_plan(spec)?;
    if let Ok(mut p) = PLAN.write() {
        *p = Some(plan);
        FAULTS_ON.store(true, Ordering::Relaxed);
        super::ROOT.activate();
    }
    Ok(())
}

fn parse_plan(spec: &str) -> Result<Plan, String> {
    let (seed_text, sites_text) = spec
        .split_once(':')
        .ok_or_else(|| format!("fault spec {spec:?} is not <seed>:<site>[@n][,...]"))?;
    let seed: u64 = seed_text
        .trim()
        .parse()
        .map_err(|_| format!("fault seed {seed_text:?} is not an unsigned integer"))?;
    let mut sites: HashMap<String, SiteState> = HashMap::new();
    for item in sites_text.split(',').filter(|i| !i.trim().is_empty()) {
        let item = item.trim();
        let (name, nth) = match item.split_once('@') {
            None => (item, 1),
            Some((name, n)) => (
                name,
                n.parse::<u64>()
                    .ok()
                    .filter(|&n| n >= 1)
                    .ok_or_else(|| format!("fault item {item:?}: @n must be a 1-based count"))?,
            ),
        };
        if !FAULT_SITES.contains(&name) {
            return Err(format!(
                "unknown fault site {name:?} (catalog: {})",
                FAULT_SITES.join(", ")
            ));
        }
        sites
            .entry(name.to_string())
            .or_insert_with(|| SiteState {
                fire_at: Vec::new(),
                calls: AtomicU64::new(0),
            })
            .fire_at
            .push(nth);
    }
    if sites.is_empty() {
        return Err(format!("fault spec {spec:?} names no sites"));
    }
    Ok(Plan { seed, sites })
}

/// Removes any installed plan (tests; idempotent). Leaves the master
/// supervision gate to [`super::shutdown`].
pub(crate) fn clear() {
    FAULTS_ON.store(false, Ordering::Relaxed);
    if let Ok(mut p) = PLAN.write() {
        *p = None;
    }
}

/// Polls the named injection site: `Some(shot)` iff an installed plan
/// says this invocation fires. One relaxed load when no plan is
/// installed. The site literal must come from the DESIGN.md §11 catalog
/// (lint rule `fault_site`).
pub fn fault_at(site: &str) -> Option<FaultShot> {
    if !FAULTS_ON.load(Ordering::Relaxed) {
        return None;
    }
    let guard = PLAN.read().ok()?;
    let plan = guard.as_ref()?;
    let state = plan.sites.get(site)?;
    let invocation = state.calls.fetch_add(1, Ordering::Relaxed) + 1;
    if !state.fire_at.contains(&invocation) {
        return None;
    }
    bbgnn_obs::counter("supervise/faults_injected", 1);
    Some(FaultShot {
        seed: shot_seed(plan.seed, site, invocation),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::TEST_LOCK;

    fn locked() -> std::sync::MutexGuard<'static, ()> {
        let guard = TEST_LOCK.lock().unwrap_or_else(|p| p.into_inner());
        crate::shutdown();
        guard
    }

    #[test]
    fn off_by_default() {
        let _g = locked();
        assert!(fault_at("fault/dataset_io").is_none());
    }

    #[test]
    fn fires_on_the_nth_call_only() {
        let _g = locked();
        install("7:fault/dataset_io@3").unwrap();
        assert!(fault_at("fault/dataset_io").is_none());
        assert!(fault_at("fault/dataset_io").is_none());
        assert!(fault_at("fault/dataset_io").is_some(), "third call fires");
        assert!(fault_at("fault/dataset_io").is_none(), "one-shot");
        assert!(fault_at("fault/kernel_nan").is_none(), "other sites quiet");
        crate::shutdown();
    }

    #[test]
    fn bare_site_means_first_call_and_lists_compose() {
        let _g = locked();
        install("7:fault/store_corrupt,fault/kernel_nan@2").unwrap();
        assert!(fault_at("fault/store_corrupt").is_some());
        assert!(fault_at("fault/kernel_nan").is_none());
        assert!(fault_at("fault/kernel_nan").is_some());
        crate::shutdown();
    }

    #[test]
    fn shot_seeds_are_deterministic_and_site_distinct() {
        let _g = locked();
        install("42:fault/kernel_nan,fault/pool_panic").unwrap();
        let a = fault_at("fault/kernel_nan").unwrap().seed;
        let b = fault_at("fault/pool_panic").unwrap().seed;
        crate::shutdown();
        install("42:fault/kernel_nan,fault/pool_panic").unwrap();
        let a2 = fault_at("fault/kernel_nan").unwrap().seed;
        assert_eq!(a, a2, "replaying the plan must replay the shot seed");
        assert_ne!(a, b, "different sites must draw different seeds");
        let idx = FaultShot { seed: a }.pick(100);
        assert_eq!(idx, FaultShot { seed: a }.pick(100));
        assert!(idx < 100);
        assert_eq!(FaultShot { seed: a }.pick(0), 0);
        crate::shutdown();
    }

    #[test]
    fn spec_grammar_rejects_malformed() {
        assert!(install("no-colon").is_err());
        assert!(install("x:fault/dataset_io").is_err(), "seed must parse");
        assert!(install("1:").is_err(), "must name at least one site");
        assert!(install("1:fault/bogus").is_err(), "unknown site rejected");
        assert!(install("1:fault/dataset_io@0").is_err(), "@n is 1-based");
        assert!(install("1:fault/dataset_io@x").is_err());
    }

    #[test]
    fn same_site_may_fire_on_multiple_invocations() {
        let _g = locked();
        install("9:fault/store_short_write@1,fault/store_short_write@3").unwrap();
        assert!(fault_at("fault/store_short_write").is_some());
        assert!(fault_at("fault/store_short_write").is_none());
        assert!(fault_at("fault/store_short_write").is_some());
        crate::shutdown();
    }
}
