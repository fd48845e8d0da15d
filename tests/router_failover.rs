//! Router failover under chaos: a seeded sweep of whole-replica kills
//! (`FaultPlan::from_seed_with_replicas`) against a 3-replica
//! [`ServingRouter`], with a per-sequence-deterministic recording
//! engine so the surviving replicas can be checked *bit-exactly*
//! against a clean run.
//!
//! Invariants per seed:
//! * exactly one failover fires and every request still completes
//!   exactly once (`Finished`) — nothing is lost or duplicated;
//! * every engine-side sequence registration is balanced by a release
//!   (no KV held anywhere after the drain);
//! * requests routed to the survivors in wave 0 produce *identical*
//!   token histories with and without the concurrent replica kill —
//!   routing is metadata-only, so a dying neighbour cannot perturb a
//!   survivor's work;
//! * requests evacuated from the victim restart from prefill on a
//!   survivor and their final session is complete.

use liquidgemm::prelude::*;
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

/// Shared audit state, outliving the per-replica engines.
#[derive(Default)]
struct Audit {
    /// Per request id: one token-history session per prefill (a
    /// preempted/evacuated request restarts a new session).
    histories: Mutex<HashMap<u64, Vec<Vec<usize>>>>,
    /// Per request id: live registrations minus releases.
    live: Mutex<HashMap<u64, i64>>,
}

/// Per-sequence deterministic engine: the next token depends only on
/// `(id, previous token)`, never on batch composition or replica — so
/// two runs that schedule a request differently still produce the same
/// tokens, and any divergence in the histories is a real scheduling
/// bug, not noise.
struct ChaosEngine {
    last: HashMap<SeqId, usize>,
    audit: Arc<Audit>,
}

impl ChaosEngine {
    fn step(id: SeqId, prev: usize) -> usize {
        (id as usize * 131 + prev * 31 + 7) % 97
    }
}

impl ServingEngine for ChaosEngine {
    fn prefill(&mut self, id: SeqId, prompt: &[usize]) -> usize {
        let tok = Self::step(id, prompt.iter().sum::<usize>() % 97);
        assert!(self.last.insert(id, tok).is_none(), "{id} already live");
        self.audit
            .histories
            .lock()
            .unwrap()
            .entry(id)
            .or_default()
            .push(vec![tok]);
        *self.audit.live.lock().unwrap().entry(id).or_insert(0) += 1;
        tok
    }

    fn decode_batch(&mut self, slots: &[(SeqId, usize)]) -> Vec<usize> {
        slots
            .iter()
            .map(|&(id, prev)| {
                assert!(self.last.contains_key(&id), "decode of dead {id}");
                let tok = Self::step(id, prev);
                self.last.insert(id, tok);
                self.audit
                    .histories
                    .lock()
                    .unwrap()
                    .get_mut(&id)
                    .expect("prefilled")
                    .last_mut()
                    .expect("session open")
                    .push(tok);
                tok
            })
            .collect()
    }

    fn release(&mut self, id: SeqId) {
        assert!(self.last.remove(&id).is_some(), "double release of {id}");
        *self.audit.live.lock().unwrap().get_mut(&id).expect("seen") -= 1;
    }
}

const REPLICAS: usize = 3;
const N_REQS: u64 = 9;
const OUTPUT_LEN: usize = 24;

fn requests() -> Vec<PromptRequest> {
    (0..N_REQS)
        .map(|id| {
            PromptRequest::new(
                Request::new(id, 8, OUTPUT_LEN, 0.0),
                (0..8).map(|i| (id as usize * 13 + i) % 97).collect(),
            )
        })
        .collect()
}

fn router(inj: Option<Arc<FaultInjector>>) -> ServingRouter {
    let mut b = ServingRouter::builder()
        .replicas(REPLICAS)
        .policy(RoutingPolicy::RoundRobin);
    if let Some(inj) = inj {
        b = b.fault_injector(inj);
    }
    b.build().unwrap()
}

fn run_once(inj: Option<Arc<FaultInjector>>) -> (RouterStats, Arc<Audit>) {
    let audit = Arc::new(Audit::default());
    let r = router(inj);
    let a = Arc::clone(&audit);
    let out = r.run(
        move |_replica| ChaosEngine {
            last: HashMap::new(),
            audit: Arc::clone(&a),
        },
        requests(),
    );
    (out, audit)
}

/// Both tests kill replicas, and the telemetry test asserts exact deltas
/// on the process-global failover counter: they must not overlap.
static EXCLUSIVE: Mutex<()> = Mutex::new(());

#[test]
fn seeded_replica_kills_fail_over_bit_exactly() {
    let _guard = EXCLUSIVE.lock().unwrap_or_else(|e| e.into_inner());
    // Clean reference: no injector, every request finishes in one
    // session.
    let (clean, clean_audit) = run_once(None);
    assert_eq!(clean.failovers, 0);
    assert_eq!(clean.merged().finished(), N_REQS as usize);
    let clean_hist = clean_audit.histories.lock().unwrap().clone();
    for sessions in clean_hist.values() {
        assert_eq!(sessions.len(), 1, "clean run never restarts a request");
        assert_eq!(sessions[0].len(), OUTPUT_LEN);
    }

    // Wave-0 shard map (routing is metadata-only, so this is also the
    // chaos runs' wave-0 assignment).
    let wave0: HashMap<u64, usize> = router(None)
        .route_preview(&requests())
        .into_iter()
        .collect();

    for seed in 0..20u64 {
        let plan = FaultPlan::from_seed_with_replicas(seed, REPLICAS as u64);
        let (victim, step) = plan.replica_kills[0];
        assert!((1..12).contains(&step), "seeded kill step out of band");
        let inj = Arc::new(FaultInjector::new(plan));
        let (out, audit) = run_once(Some(Arc::clone(&inj)));

        // The kill fired, was absorbed, and nothing was lost: every
        // request completes exactly once as Finished.
        assert_eq!(out.failovers, 1, "seed {seed}");
        assert_eq!(inj.stats().replica_kills, 1, "seed {seed}");
        assert!(out.replicas[victim as usize].killed, "seed {seed}");
        assert!(out.rerouted > 0, "seed {seed}: victims must re-route");
        assert!(out.unserved.is_empty(), "seed {seed}");
        let merged = out.merged();
        assert_eq!(merged.finished(), N_REQS as usize, "seed {seed}");
        let mut ids: Vec<u64> = merged.completions.iter().map(|c| c.id).collect();
        ids.sort_unstable();
        assert_eq!(ids, (0..N_REQS).collect::<Vec<_>>(), "seed {seed}");
        assert_eq!(
            merged.generated_tokens,
            merged.completions.iter().map(|c| c.generated).sum::<u64>(),
            "seed {seed}: token ledger"
        );

        // Engine-side KV audit: every registration released.
        for (&id, &n) in audit.live.lock().unwrap().iter() {
            assert_eq!(n, 0, "seed {seed}: request {id} holds engine KV");
        }

        // Bit-exactness: survivors' wave-0 requests are untouched by
        // the neighbouring kill; the victim's requests restarted and
        // completed their final session in full.
        let hist = audit.histories.lock().unwrap();
        for id in 0..N_REQS {
            let sessions = &hist[&id];
            if wave0[&id] != victim as usize {
                assert_eq!(
                    sessions, &clean_hist[&id],
                    "seed {seed}: survivor request {id} diverged"
                );
            } else {
                assert_eq!(
                    sessions.last().unwrap().len(),
                    OUTPUT_LEN,
                    "seed {seed}: evacuated request {id} final session incomplete"
                );
            }
        }
    }
}

#[test]
fn failover_exports_router_telemetry() {
    let _guard = EXCLUSIVE.lock().unwrap_or_else(|e| e.into_inner());
    liquidgemm::telemetry::enable();
    let reg = liquidgemm::telemetry::registry();
    let failovers0 = reg.counter("lq_router_failovers_total").get();
    let rerouted0 = reg.counter("lq_router_rerouted_total").get();

    let inj = Arc::new(FaultInjector::new(FaultPlan::quiet().replica_kill_at(1, 2)));
    let (out, _) = run_once(Some(inj));
    assert_eq!(out.failovers, 1);

    assert_eq!(
        reg.counter("lq_router_failovers_total").get() - failovers0,
        1
    );
    assert!(reg.counter("lq_router_rerouted_total").get() - rerouted0 >= out.rerouted);
    // Per-replica routed counters carry the replica label.
    let routed: u64 = (0..REPLICAS)
        .map(|i| {
            reg.counter_with("lq_router_routed_total", &[("replica", &i.to_string())])
                .get()
        })
        .sum();
    assert!(
        routed >= N_REQS,
        "labelled routed counters must cover the run"
    );
}
