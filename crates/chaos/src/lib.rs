//! # lq-chaos — deterministic, seed-driven fault injection
//!
//! The paper's persistent-kernel design (§5.4) only pays off if the
//! resident pool *survives* faults instead of aborting the whole GEMM;
//! QServe and the LiquidGEMM evaluation both treat the serving runtime,
//! not the kernel, as the unit that must stay up. This crate is the
//! test harness for that claim: a [`FaultPlan`] derived from a single
//! seed schedules faults at exact event indices, and a [`FaultInjector`]
//! answers "does *this* event fault?" from lock-free atomic counters.
//!
//! ## Why index-scheduled, not probabilistic
//!
//! A probabilistic injector (fault with probability p) makes failures
//! irreproducible: thread interleaving changes which draw lands on
//! which job. Here the *schedule* is fixed up front — "the 3rd worker
//! job panics, the 7th KV allocation is denied" — and each injection
//! site keeps its own monotonically increasing event counter, so a
//! seed replays the same fault pattern regardless of which worker
//! thread happens to execute the faulted event. Retried jobs do not
//! consume schedule slots (the pool passes `is_retry = true`), so a
//! scheduled panic models one *transient* fault: the retry of a
//! faulted job always runs clean, and recovery is deterministic too.
//!
//! ## Injection sites
//!
//! | site | consulted by | effect |
//! |------|--------------|--------|
//! | worker job | pool worker, before executing a fresh job | panic mid-job or stall for a scheduled duration |
//! | submit | `WorkerPool::run`, once per published call | stall the caller (models a burst upstream of the pool) |
//! | KV alloc | `PagedKvCache` page allocation | deny with `OutOfMemory` |
//! | engine call | test engines' prefill/decode entry | request a panic (exercises the runtime's `try_*` containment) |
//! | replica step | `lq-router` replica scheduler loop | halt the whole replica at a scheduled decode step (router failover) |
//!
//! All hooks are threaded through as `Option<&FaultInjector>`-shaped
//! state; with no injector installed the hot path costs one `None`
//! check per site.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use lq_rng::Rng;

/// What a pool worker should do with the current job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultAction {
    /// Execute normally.
    None,
    /// Panic mid-job (the self-healing path must retry and respawn).
    Panic,
    /// Sleep for the given duration first (a slow/stalled worker).
    Stall(Duration),
}

/// A deterministic fault schedule: per-site sets of event indices.
///
/// Build one from a seed ([`FaultPlan::from_seed`]) for randomized
/// chaos sweeps, or assemble an exact schedule with the `*_at`
/// builders for unit tests. Indices count *fresh* events at each site
/// from 0 (see the crate docs for why retries are exempt).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    /// The seed this plan was drawn from (0 for hand-built plans) —
    /// printed by test harnesses so failures replay exactly.
    pub seed: u64,
    /// Fresh worker-job indices that panic mid-job.
    pub worker_panics: Vec<u64>,
    /// `(index, micros)`: fresh worker-job indices that stall first.
    pub worker_stalls: Vec<(u64, u64)>,
    /// `(index, micros)`: submissions that stall before the capacity
    /// gate (models a queue-full burst).
    pub submit_stalls: Vec<(u64, u64)>,
    /// KV page-allocation indices that are denied (`OutOfMemory`).
    pub kv_denials: Vec<u64>,
    /// Engine-call indices (prefill/decode entry) that panic.
    pub engine_panics: Vec<u64>,
    /// `(replica, step)`: whole-replica failures — replica `replica`
    /// halts at its decode-step `step` (router-level failover site;
    /// counts per-replica steps, independent of the indexed sites
    /// above). Not drawn by [`FaultPlan::from_seed`], which predates
    /// the router; use [`FaultPlan::replica_kill_at`] or
    /// [`FaultPlan::from_seed_with_replicas`].
    pub replica_kills: Vec<(u64, u64)>,
    /// `(shard, call)`: tensor-parallel shard-pool failures — shard
    /// `shard` of a `ShardedGemm` dies at its `call`-th sharded GEMM
    /// (counts per-shard calls, independent of the sites above). Not
    /// drawn by [`FaultPlan::from_seed`]; use
    /// [`FaultPlan::shard_kill_at`] or
    /// [`FaultPlan::from_seed_with_shards`].
    pub shard_kills: Vec<(u64, u64)>,
}

impl FaultPlan {
    /// The empty schedule: every event runs clean. An injector built
    /// from it is the "enabled but quiet" baseline for differential
    /// runs.
    #[must_use]
    pub fn quiet() -> Self {
        Self::default()
    }

    /// Draw a bounded random schedule from `seed`. Index windows are
    /// sized for the test workloads in this repo (a few dozen jobs,
    /// allocations, and engine calls per run) so most plans land at
    /// least one fault; counts are small enough that bounded retry
    /// (`MAX_JOB_RETRIES` in the pool) is never exhausted.
    #[must_use]
    pub fn from_seed(seed: u64) -> Self {
        let mut rng = Rng::new(seed ^ 0xC4A0_5C4A_05C4_A05C);
        let draw_set = |rng: &mut Rng, max_count: u64, window: u64| -> Vec<u64> {
            let n = rng.below(max_count + 1);
            (0..n).map(|_| rng.below(window)).collect()
        };
        let draw_stalls = |rng: &mut Rng, max_count: u64, window: u64| -> Vec<(u64, u64)> {
            let n = rng.below(max_count + 1);
            (0..n)
                .map(|_| (rng.below(window), rng.range_u64(20, 200)))
                .collect()
        };
        Self {
            seed,
            worker_panics: draw_set(&mut rng, 3, 48),
            worker_stalls: draw_stalls(&mut rng, 3, 48),
            submit_stalls: draw_stalls(&mut rng, 2, 32),
            kv_denials: draw_set(&mut rng, 4, 40),
            engine_panics: draw_set(&mut rng, 2, 64),
            replica_kills: Vec::new(),
            shard_kills: Vec::new(),
        }
    }

    /// Add worker-panic indices (unit-test builder).
    #[must_use]
    pub fn worker_panics_at(mut self, indices: &[u64]) -> Self {
        self.worker_panics.extend_from_slice(indices);
        self
    }

    /// Add a worker stall of `micros` at fresh-job `index`.
    #[must_use]
    pub fn worker_stall_at(mut self, index: u64, micros: u64) -> Self {
        self.worker_stalls.push((index, micros));
        self
    }

    /// Add a submit stall of `micros` at submission `index`.
    #[must_use]
    pub fn submit_stall_at(mut self, index: u64, micros: u64) -> Self {
        self.submit_stalls.push((index, micros));
        self
    }

    /// Add KV-allocation denial indices.
    #[must_use]
    pub fn kv_denials_at(mut self, indices: &[u64]) -> Self {
        self.kv_denials.extend_from_slice(indices);
        self
    }

    /// Add engine-call panic indices.
    #[must_use]
    pub fn engine_panics_at(mut self, indices: &[u64]) -> Self {
        self.engine_panics.extend_from_slice(indices);
        self
    }

    /// Kill `replica` at its decode-step `step` (router failover).
    #[must_use]
    pub fn replica_kill_at(mut self, replica: u64, step: u64) -> Self {
        self.replica_kills.push((replica, step));
        self
    }

    /// Draw a replica-kill-only schedule from `seed`: kills exactly one
    /// of `replicas` at an early decode step. The base sites stay
    /// quiet, so router failover sweeps isolate replica death from
    /// intra-replica faults. Deterministic per seed, like
    /// [`FaultPlan::from_seed`] (which is left untouched so existing
    /// seeded suites replay identically).
    #[must_use]
    pub fn from_seed_with_replicas(seed: u64, replicas: u64) -> Self {
        assert!(replicas >= 1, "need at least one replica");
        let mut rng = Rng::new(seed ^ 0x5EED_D00F_5EED_D00F);
        let victim = rng.below(replicas);
        let step = rng.range_u64(1, 12);
        Self {
            seed,
            ..Self::default()
        }
        .replica_kill_at(victim, step)
    }

    /// Kill tensor-parallel shard pool `shard` at its `call`-th
    /// sharded GEMM (degraded-mode surfacing in `ShardedGemm`).
    #[must_use]
    pub fn shard_kill_at(mut self, shard: u64, call: u64) -> Self {
        self.shard_kills.push((shard, call));
        self
    }

    /// Draw a shard-kill-only schedule from `seed`: kills exactly one
    /// of `shards` at an early sharded-GEMM call. All other sites stay
    /// quiet, so sharded chaos sweeps isolate shard-pool death from
    /// intra-pool faults. Deterministic per seed; drawn from its own
    /// stream so existing seeded suites replay identically.
    #[must_use]
    pub fn from_seed_with_shards(seed: u64, shards: u64) -> Self {
        assert!(shards >= 1, "need at least one shard");
        let mut rng = Rng::new(seed ^ 0x7E4D_50A7_7E4D_50A7);
        let victim = rng.below(shards);
        let call = rng.range_u64(1, 8);
        Self {
            seed,
            ..Self::default()
        }
        .shard_kill_at(victim, call)
    }

    /// True when the plan schedules no fault at all.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.worker_panics.is_empty()
            && self.worker_stalls.is_empty()
            && self.submit_stalls.is_empty()
            && self.kv_denials.is_empty()
            && self.engine_panics.is_empty()
            && self.replica_kills.is_empty()
            && self.shard_kills.is_empty()
    }
}

/// Counts of faults actually fired, per site (a plan index beyond the
/// run's event count never fires).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Worker-job panics injected.
    pub worker_panics: u64,
    /// Worker-job stalls injected.
    pub worker_stalls: u64,
    /// Submit stalls injected.
    pub submit_stalls: u64,
    /// KV allocations denied.
    pub kv_denials: u64,
    /// Engine-call panics requested.
    pub engine_panics: u64,
    /// Whole-replica kills fired.
    pub replica_kills: u64,
    /// Tensor-parallel shard-pool kills fired.
    pub shard_kills: u64,
}

impl FaultStats {
    /// Total faults fired across all sites.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.worker_panics
            + self.worker_stalls
            + self.submit_stalls
            + self.kv_denials
            + self.engine_panics
            + self.replica_kills
            + self.shard_kills
    }
}

/// Thread-safe runtime for one [`FaultPlan`]: each site owns an atomic
/// event counter, and a consultation compares the claimed index
/// against the plan's schedule. Share one injector (behind an `Arc`)
/// between the pool, the KV cache, and a test engine so a single seed
/// governs the whole stack.
#[derive(Debug)]
pub struct FaultInjector {
    plan: FaultPlan,
    worker_panics: HashSet<u64>,
    worker_stalls: HashMap<u64, u64>,
    submit_stalls: HashMap<u64, u64>,
    kv_denials: HashSet<u64>,
    engine_panics: HashSet<u64>,
    replica_kills: HashMap<u64, (u64, AtomicU64)>,
    shard_kills: HashMap<u64, (u64, AtomicU64)>,
    worker_ctr: AtomicU64,
    submit_ctr: AtomicU64,
    kv_ctr: AtomicU64,
    engine_ctr: AtomicU64,
    fired: [AtomicU64; 7],
}

impl FaultInjector {
    /// Count one fired fault and put it on the trace timeline
    /// (`FaultFired`, `a` = site index as laid out in [`FaultStats`],
    /// `b` = the scheduled event index that fired) so injected faults
    /// line up against the pool/serving events they perturb.
    fn fire(&self, site: usize, scheduled: u64) {
        self.fired[site].fetch_add(1, Ordering::Relaxed);
        lq_trace::record(
            lq_trace::EventKind::FaultFired,
            lq_trace::Track::Control,
            site as u64,
            scheduled,
        );
    }

    /// Build the runtime for `plan`.
    #[must_use]
    pub fn new(plan: FaultPlan) -> Self {
        Self {
            worker_panics: plan.worker_panics.iter().copied().collect(),
            worker_stalls: plan.worker_stalls.iter().copied().collect(),
            submit_stalls: plan.submit_stalls.iter().copied().collect(),
            kv_denials: plan.kv_denials.iter().copied().collect(),
            engine_panics: plan.engine_panics.iter().copied().collect(),
            replica_kills: plan
                .replica_kills
                .iter()
                .map(|&(r, s)| (r, (s, AtomicU64::new(0))))
                .collect(),
            shard_kills: plan
                .shard_kills
                .iter()
                .map(|&(r, s)| (r, (s, AtomicU64::new(0))))
                .collect(),
            plan,
            worker_ctr: AtomicU64::new(0),
            submit_ctr: AtomicU64::new(0),
            kv_ctr: AtomicU64::new(0),
            engine_ctr: AtomicU64::new(0),
            fired: Default::default(),
        }
    }

    /// The plan this injector executes.
    #[must_use]
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// The plan's seed (what a failing chaos run prints for replay).
    #[must_use]
    pub fn seed(&self) -> u64 {
        self.plan.seed
    }

    /// Consult the worker-job site. A retry does not claim an index:
    /// scheduled faults are transient, so the retried job runs clean
    /// and recovery stays deterministic.
    #[must_use]
    pub fn on_worker_job(&self, is_retry: bool) -> FaultAction {
        if is_retry {
            return FaultAction::None;
        }
        let i = self.worker_ctr.fetch_add(1, Ordering::Relaxed);
        if self.worker_panics.contains(&i) {
            self.fire(0, i);
            return FaultAction::Panic;
        }
        if let Some(&us) = self.worker_stalls.get(&i) {
            self.fire(1, i);
            return FaultAction::Stall(Duration::from_micros(us));
        }
        FaultAction::None
    }

    /// Consult the submit site: `Some(d)` means stall for `d` before
    /// taking the capacity gate.
    #[must_use]
    pub fn on_submit(&self) -> Option<Duration> {
        let i = self.submit_ctr.fetch_add(1, Ordering::Relaxed);
        self.submit_stalls.get(&i).map(|&us| {
            self.fire(2, i);
            Duration::from_micros(us)
        })
    }

    /// Consult the KV-allocation site: `true` means deny this
    /// allocation with `OutOfMemory`.
    #[must_use]
    pub fn on_kv_alloc(&self) -> bool {
        let i = self.kv_ctr.fetch_add(1, Ordering::Relaxed);
        let deny = self.kv_denials.contains(&i);
        if deny {
            self.fire(3, i);
        }
        deny
    }

    /// Consult the engine-call site: `true` asks the engine to panic
    /// at this call boundary (test engines honour it; real engines
    /// never consult it).
    #[must_use]
    pub fn on_engine_call(&self) -> bool {
        let i = self.engine_ctr.fetch_add(1, Ordering::Relaxed);
        let boom = self.engine_panics.contains(&i);
        if boom {
            self.fire(4, i);
        }
        boom
    }

    /// Consult the replica-step site: replica `replica` reports one
    /// scheduler-loop step; `true` means the whole replica halts now
    /// (router failover takes over). Each scheduled kill fires once —
    /// the step the counter reaches the plan's index — and keeps
    /// answering `true` afterwards (a dead replica stays dead).
    /// Replicas with no scheduled kill run free without counting.
    #[must_use]
    pub fn on_replica_step(&self, replica: u64) -> bool {
        let Some((step, ctr)) = self.replica_kills.get(&replica) else {
            return false;
        };
        let i = ctr.fetch_add(1, Ordering::Relaxed);
        if i == *step {
            self.fire(5, *step);
        }
        i >= *step
    }

    /// Consult the shard-call site: shard `shard` of a tensor-parallel
    /// GEMM reports one sharded call; `true` means this shard pool
    /// dies now (the sharded layer surfaces a typed `ShardFailed`
    /// error — never a partial output). Each scheduled kill fires once
    /// — the call the counter reaches the plan's index — and keeps
    /// answering `true` afterwards (a dead shard stays dead). Shards
    /// with no scheduled kill run free without counting.
    #[must_use]
    pub fn on_shard_call(&self, shard: u64) -> bool {
        let Some((call, ctr)) = self.shard_kills.get(&shard) else {
            return false;
        };
        let i = ctr.fetch_add(1, Ordering::Relaxed);
        if i == *call {
            self.fire(6, *call);
        }
        i >= *call
    }

    /// Snapshot of faults actually fired so far.
    #[must_use]
    pub fn stats(&self) -> FaultStats {
        FaultStats {
            worker_panics: self.fired[0].load(Ordering::Relaxed),
            worker_stalls: self.fired[1].load(Ordering::Relaxed),
            submit_stalls: self.fired[2].load(Ordering::Relaxed),
            kv_denials: self.fired[3].load(Ordering::Relaxed),
            engine_panics: self.fired[4].load(Ordering::Relaxed),
            replica_kills: self.fired[5].load(Ordering::Relaxed),
            shard_kills: self.fired[6].load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_plan() {
        for seed in 0..64 {
            assert_eq!(FaultPlan::from_seed(seed), FaultPlan::from_seed(seed));
        }
    }

    #[test]
    fn seeds_produce_varied_plans() {
        let distinct: HashSet<_> = (0..64)
            .map(|s| format!("{:?}", FaultPlan::from_seed(s)))
            .collect();
        assert!(
            distinct.len() > 32,
            "only {} distinct plans",
            distinct.len()
        );
        assert!(
            (0..64).any(|s| !FaultPlan::from_seed(s).is_empty()),
            "no seed scheduled any fault"
        );
    }

    #[test]
    fn worker_site_fires_at_exact_indices() {
        let inj = FaultInjector::new(
            FaultPlan::quiet()
                .worker_panics_at(&[1])
                .worker_stall_at(3, 50),
        );
        assert_eq!(inj.on_worker_job(false), FaultAction::None); // 0
        assert_eq!(inj.on_worker_job(false), FaultAction::Panic); // 1
        assert_eq!(inj.on_worker_job(false), FaultAction::None); // 2
        assert_eq!(
            inj.on_worker_job(false),
            FaultAction::Stall(Duration::from_micros(50)) // 3
        );
        let s = inj.stats();
        assert_eq!((s.worker_panics, s.worker_stalls), (1, 1));
    }

    #[test]
    fn retries_do_not_consume_schedule_slots() {
        let inj = FaultInjector::new(FaultPlan::quiet().worker_panics_at(&[1]));
        assert_eq!(inj.on_worker_job(false), FaultAction::None); // 0
        for _ in 0..10 {
            assert_eq!(inj.on_worker_job(true), FaultAction::None);
        }
        // The counter did not move: index 1 still panics.
        assert_eq!(inj.on_worker_job(false), FaultAction::Panic);
    }

    #[test]
    fn kv_and_engine_and_submit_sites_fire_once_each() {
        let inj = FaultInjector::new(
            FaultPlan::quiet()
                .kv_denials_at(&[0])
                .engine_panics_at(&[1])
                .submit_stall_at(0, 25),
        );
        assert!(inj.on_kv_alloc());
        assert!(!inj.on_kv_alloc());
        assert!(!inj.on_engine_call());
        assert!(inj.on_engine_call());
        assert_eq!(inj.on_submit(), Some(Duration::from_micros(25)));
        assert_eq!(inj.on_submit(), None);
        assert_eq!(inj.stats().total(), 3);
    }

    #[test]
    fn replica_site_kills_at_step_and_stays_dead() {
        let inj = FaultInjector::new(FaultPlan::quiet().replica_kill_at(1, 2));
        // Replica 0 has no scheduled kill: runs free.
        for _ in 0..10 {
            assert!(!inj.on_replica_step(0));
        }
        // Replica 1 survives steps 0..2, dies at 2, stays dead.
        assert!(!inj.on_replica_step(1));
        assert!(!inj.on_replica_step(1));
        assert!(inj.on_replica_step(1));
        assert!(inj.on_replica_step(1));
        // The kill fired exactly once.
        assert_eq!(inj.stats().replica_kills, 1);
        assert_eq!(inj.stats().total(), 1);
    }

    #[test]
    fn seeded_replica_plans_are_deterministic_and_bounded() {
        for seed in 0..32 {
            let p = FaultPlan::from_seed_with_replicas(seed, 3);
            assert_eq!(p, FaultPlan::from_seed_with_replicas(seed, 3));
            assert_eq!(p.replica_kills.len(), 1);
            let (r, s) = p.replica_kills[0];
            assert!(r < 3);
            assert!((1..12).contains(&s));
            // Base sites stay quiet: replica death is isolated.
            assert!(p.worker_panics.is_empty() && p.kv_denials.is_empty());
        }
        // All replicas get picked as victim across seeds.
        let victims: HashSet<u64> = (0..32)
            .map(|s| FaultPlan::from_seed_with_replicas(s, 3).replica_kills[0].0)
            .collect();
        assert_eq!(victims.len(), 3);
    }

    #[test]
    fn shard_site_kills_at_call_and_stays_dead() {
        let inj = FaultInjector::new(FaultPlan::quiet().shard_kill_at(1, 2));
        // Shard 0 has no scheduled kill: runs free.
        for _ in 0..10 {
            assert!(!inj.on_shard_call(0));
        }
        // Shard 1 survives calls 0..2, dies at 2, stays dead.
        assert!(!inj.on_shard_call(1));
        assert!(!inj.on_shard_call(1));
        assert!(inj.on_shard_call(1));
        assert!(inj.on_shard_call(1));
        // The kill fired exactly once.
        assert_eq!(inj.stats().shard_kills, 1);
        assert_eq!(inj.stats().total(), 1);
    }

    #[test]
    fn seeded_shard_plans_are_deterministic_and_bounded() {
        for seed in 0..32 {
            let p = FaultPlan::from_seed_with_shards(seed, 3);
            assert_eq!(p, FaultPlan::from_seed_with_shards(seed, 3));
            assert_eq!(p.shard_kills.len(), 1);
            let (r, s) = p.shard_kills[0];
            assert!(r < 3);
            assert!((1..8).contains(&s));
            // All other sites stay quiet: shard death is isolated.
            assert!(p.worker_panics.is_empty() && p.replica_kills.is_empty());
        }
        // All shards get picked as victim across seeds.
        let victims: HashSet<u64> = (0..32)
            .map(|s| FaultPlan::from_seed_with_shards(s, 3).shard_kills[0].0)
            .collect();
        assert_eq!(victims.len(), 3);
    }

    #[test]
    fn quiet_plan_never_fires() {
        let inj = FaultInjector::new(FaultPlan::quiet());
        for _ in 0..100 {
            assert_eq!(inj.on_worker_job(false), FaultAction::None);
            assert!(!inj.on_kv_alloc());
            assert!(!inj.on_engine_call());
            assert_eq!(inj.on_submit(), None);
        }
        assert_eq!(inj.stats(), FaultStats::default());
        assert!(FaultPlan::quiet().is_empty());
    }
}
