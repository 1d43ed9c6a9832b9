//! Seeded fault injection for the in-process fabric.
//!
//! A [`FaultPlan`] is a small rule table the fabric consults on every
//! outbound request: each [`FaultRule`] matches a request class (and
//! optionally a target node) and fires an [`FaultAction`] — drop the
//! message, delay its delivery, duplicate it, or crash the whole node — with
//! a configured probability drawn from a **deterministic seeded RNG**. The
//! same seed replays the same fault schedule bit-for-bit, so chaos tests are
//! reproducible and a failing seed can be pinned as a regression.
//!
//! The plan is plugged in with [`InProcFabric::install_faults`]
//! (and removed with `clear_faults`); with no plan installed the fabric's
//! call path is untouched — fault tolerance stays an *unpluggable* concern,
//! like every other aspect in the paper's methodology.
//!
//! [`InProcFabric::install_faults`]: crate::InProcFabric::install_faults

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

use parking_lot::Mutex;

use crate::policy::lcg_next;

/// What a fired rule does to the request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultAction {
    /// Silently lose the message. A replied call's caller sees nothing
    /// until its deadline expires (a lost datagram); callers without a
    /// deadline would hang, which is exactly the failure mode deadlines
    /// exist for. Construct / snapshot / restore take no deadline, so a
    /// lost one fails its caller at once instead.
    Drop,
    /// Deliver the message late by this much.
    Delay(Duration),
    /// Deliver the message twice (same dedup key). Only meaningful for
    /// oneway calls — duplicated replied calls would race one reply cell.
    Duplicate,
    /// Kill the target node on delivery: the request and everything after
    /// it fails with [`WeaveError::NodeDown`](weavepar_weave::WeaveError).
    CrashNode,
}

/// Which requests a rule applies to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RequestClass {
    /// Remote constructions.
    Construct,
    /// State snapshots (migration reads).
    Snapshot,
    /// State restores (migration writes).
    Restore,
    /// Replied (synchronous) calls.
    Call,
    /// Oneway calls.
    Oneway,
    /// Framed oneway packs.
    Pack,
    /// Everything.
    Any,
}

impl RequestClass {
    fn matches(self, actual: RequestClass) -> bool {
        self == RequestClass::Any || self == actual
    }
}

/// One injection rule: class/node filter, probability, action, optional
/// budget.
#[derive(Debug, Clone)]
pub struct FaultRule {
    class: RequestClass,
    node: Option<usize>,
    per_mille: u32,
    action: FaultAction,
    max_hits: Option<usize>,
}

impl FaultRule {
    /// A rule firing `action` on every request of `class` (probability 1,
    /// any node, no budget) — narrow it with the builder methods.
    pub fn on(class: RequestClass, action: FaultAction) -> Self {
        FaultRule { class, node: None, per_mille: 1000, action, max_hits: None }
    }

    /// Only requests addressed to `node`.
    pub fn node(mut self, node: usize) -> Self {
        self.node = Some(node);
        self
    }

    /// Fire with probability `per_mille`/1000 (clamped).
    pub fn per_mille(mut self, per_mille: u32) -> Self {
        self.per_mille = per_mille.min(1000);
        self
    }

    /// Fire at most `n` times over the plan's lifetime (e.g. crash once).
    pub fn times(mut self, n: usize) -> Self {
        self.max_hits = Some(n);
        self
    }
}

/// Counters for what the plan actually injected.
#[derive(Debug, Default)]
pub struct FaultStats {
    dropped: AtomicUsize,
    delayed: AtomicUsize,
    duplicated: AtomicUsize,
    crashed: AtomicUsize,
}

/// A point-in-time copy of [`FaultStats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FaultStatsSnapshot {
    /// Messages silently lost.
    pub dropped: usize,
    /// Messages delivered late.
    pub delayed: usize,
    /// Messages delivered twice.
    pub duplicated: usize,
    /// Nodes crashed on delivery.
    pub crashed: usize,
}

impl FaultStats {
    pub(crate) fn count(&self, action: FaultAction) {
        match action {
            FaultAction::Drop => self.dropped.fetch_add(1, Ordering::Relaxed),
            FaultAction::Delay(_) => self.delayed.fetch_add(1, Ordering::Relaxed),
            FaultAction::Duplicate => self.duplicated.fetch_add(1, Ordering::Relaxed),
            FaultAction::CrashNode => self.crashed.fetch_add(1, Ordering::Relaxed),
        };
    }

    /// Copy out the counters.
    pub fn snapshot(&self) -> FaultStatsSnapshot {
        FaultStatsSnapshot {
            dropped: self.dropped.load(Ordering::Relaxed),
            delayed: self.delayed.load(Ordering::Relaxed),
            duplicated: self.duplicated.load(Ordering::Relaxed),
            crashed: self.crashed.load(Ordering::Relaxed),
        }
    }
}

/// A seeded, deterministic fault schedule: rules plus the RNG they draw
/// from.
pub struct FaultPlan {
    rules: Vec<FaultRule>,
    rng: Mutex<u64>,
    hits: Vec<AtomicUsize>,
    stats: FaultStats,
    seed: u64,
}

impl FaultPlan {
    /// An empty plan drawing from `seed`. Add rules with
    /// [`FaultPlan::rule`].
    pub fn seeded(seed: u64) -> Self {
        // Scramble the raw seed so small seeds (0, 1, 2...) diverge quickly.
        FaultPlan {
            rules: Vec::new(),
            rng: Mutex::new(lcg_next(seed ^ 0x9e3779b97f4a7c15)),
            hits: Vec::new(),
            stats: FaultStats::default(),
            seed,
        }
    }

    /// Append a rule. Rules are consulted in insertion order; the first one
    /// that matches *and* fires wins.
    pub fn rule(mut self, rule: FaultRule) -> Self {
        self.rules.push(rule);
        self.hits.push(AtomicUsize::new(0));
        self
    }

    /// The seed the plan was built with (chaos harnesses print it on
    /// failure so a randomised run can be replayed).
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Injection counters.
    pub fn stats(&self) -> &FaultStats {
        &self.stats
    }

    /// Decide what (if anything) to inject for a request of `class` headed
    /// to `node`. Advances the RNG once per matching rule, so the schedule
    /// is a pure function of the seed and the request sequence.
    pub(crate) fn decide(&self, class: RequestClass, node: usize) -> Option<FaultAction> {
        for (i, rule) in self.rules.iter().enumerate() {
            if !rule.class.matches(class) {
                continue;
            }
            if rule.node.is_some_and(|n| n != node) {
                continue;
            }
            let draw = {
                let mut rng = self.rng.lock();
                *rng = lcg_next(*rng);
                (*rng >> 33) % 1000
            };
            if draw >= rule.per_mille as u64 {
                continue;
            }
            if let Some(max) = rule.max_hits {
                if self.hits[i].fetch_add(1, Ordering::Relaxed) >= max {
                    continue;
                }
            }
            self.stats.count(rule.action);
            return Some(rule.action);
        }
        None
    }
}

impl std::fmt::Debug for FaultPlan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FaultPlan")
            .field("seed", &self.seed)
            .field("rules", &self.rules.len())
            .field("stats", &self.stats.snapshot())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_schedule() {
        let make = || {
            FaultPlan::seeded(1234)
                .rule(FaultRule::on(RequestClass::Oneway, FaultAction::Drop).per_mille(300))
        };
        let (a, b) = (make(), make());
        let schedule_a: Vec<_> = (0..64).map(|_| a.decide(RequestClass::Oneway, 0)).collect();
        let schedule_b: Vec<_> = (0..64).map(|_| b.decide(RequestClass::Oneway, 0)).collect();
        assert_eq!(schedule_a, schedule_b);
        assert!(schedule_a.iter().any(|d| d.is_some()), "p=0.3 over 64 draws must fire");
        assert!(schedule_a.iter().any(|d| d.is_none()), "p=0.3 over 64 draws must also skip");
    }

    #[test]
    fn different_seeds_diverge() {
        let a = FaultPlan::seeded(1)
            .rule(FaultRule::on(RequestClass::Any, FaultAction::Drop).per_mille(500));
        let b = FaultPlan::seeded(2)
            .rule(FaultRule::on(RequestClass::Any, FaultAction::Drop).per_mille(500));
        let sa: Vec<_> = (0..64).map(|_| a.decide(RequestClass::Call, 0).is_some()).collect();
        let sb: Vec<_> = (0..64).map(|_| b.decide(RequestClass::Call, 0).is_some()).collect();
        assert_ne!(sa, sb);
    }

    #[test]
    fn filters_and_budget_apply() {
        let plan = FaultPlan::seeded(9)
            .rule(FaultRule::on(RequestClass::Call, FaultAction::CrashNode).node(2).times(1));
        // Wrong class and wrong node never fire.
        assert_eq!(plan.decide(RequestClass::Oneway, 2), None);
        assert_eq!(plan.decide(RequestClass::Call, 1), None);
        // The budgeted rule fires exactly once.
        assert_eq!(plan.decide(RequestClass::Call, 2), Some(FaultAction::CrashNode));
        assert_eq!(plan.decide(RequestClass::Call, 2), None);
        assert_eq!(plan.stats().snapshot().crashed, 1);
    }

    #[test]
    fn first_firing_rule_wins() {
        let plan = FaultPlan::seeded(5)
            .rule(FaultRule::on(RequestClass::Oneway, FaultAction::Duplicate))
            .rule(FaultRule::on(RequestClass::Any, FaultAction::Drop));
        assert_eq!(plan.decide(RequestClass::Oneway, 0), Some(FaultAction::Duplicate));
        assert_eq!(plan.decide(RequestClass::Call, 0), Some(FaultAction::Drop));
        let stats = plan.stats().snapshot();
        assert_eq!((stats.duplicated, stats.dropped), (1, 1));
    }
}
