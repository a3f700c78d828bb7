//! The shared-snapshot PDP serving tier: decision-making split out of the
//! mutable [`Ams`](crate::arch::Ams) into an immutable, `Send + Sync`
//! [`DecisionSnapshot`] that any number of worker threads query
//! concurrently while the control loop builds the next snapshot off to the
//! side (the ROADMAP's "heavy traffic from millions of users" target; see
//! `docs/SERVING.md`).
//!
//! The tier has three layers:
//!
//! * [`DecisionSnapshot`] — the policy set, compiled once when the snapshot
//!   is built (a [`CompiledPolicySet`]), so every decision is one pass over
//!   flat tables and nothing on the decide path is memoized.
//! * [`SnapshotSwap`] — one atomic slot holding an `Arc<DecisionSnapshot>`.
//!   Readers take a momentary read lock *only* to clone the `Arc`; the
//!   decision itself runs with no lock held. Publishing a new snapshot is a
//!   pointer swap, never a wait-for-readers.
//! * [`PdpHandle`] — a cheap `Clone` handle over the slot, and [`PdpPin`],
//!   one worker's pinned view of it. Both offer `decide` and
//!   `decide_batch` over one internal path: resolve the snapshot, then
//!   evaluate; a batch is resolved into a [`ResolvedBatch`] and decided
//!   under one snapshot with one evaluation scratch.
//!   [`PdpPin::decide_resolved`] lets a wire decoder resolve its requests
//!   straight against the pinned snapshot's compiled set.

use crate::arch::ams::AmsError;
use crate::arch::obs::ServeMetrics;
use agenp_asp::{Program, RunBudget};
use agenp_grammar::Asg;
use agenp_policy::{
    CombiningAlg, CompiledPolicySet, Decision, DecisionEffects, Enforcement, Obligation, Pep,
    Policy, Request, ResolvedBatch,
};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, RwLock};

/// Number of stripes for the hot-path statistics counters.
const COUNTER_STRIPES: usize = 16;

/// The stripe this thread bumps. Threads are assigned stripes round-robin
/// at first use, so up to [`COUNTER_STRIPES`] concurrent workers never
/// share a counter cache line.
#[inline]
fn counter_stripe() -> usize {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    thread_local! {
        static STRIPE: usize = NEXT.fetch_add(1, Ordering::Relaxed) % COUNTER_STRIPES;
    }
    STRIPE.with(|s| *s)
}

/// An [`AtomicU64`] alone on its cache line, so two stripes never falsely
/// share.
#[repr(align(64))]
#[derive(Default)]
struct PaddedCounter(AtomicU64);

/// A monotone counter striped across cache lines. A single shared
/// `AtomicU64` bumped per decision turns into a coherence-traffic hotspot
/// under multi-threaded serving (every `fetch_add` bounces the line
/// between cores); striping makes the bump core-local and pays for it
/// with a 16-way sum on the (rare) read side.
struct StripedU64 {
    stripes: [PaddedCounter; COUNTER_STRIPES],
}

impl Default for StripedU64 {
    fn default() -> StripedU64 {
        StripedU64 {
            stripes: std::array::from_fn(|_| PaddedCounter::default()),
        }
    }
}

impl StripedU64 {
    #[inline]
    fn add(&self, n: u64) {
        self.stripes[counter_stripe()]
            .0
            .fetch_add(n, Ordering::Relaxed);
    }

    fn sum(&self) -> u64 {
        self.stripes
            .iter()
            .map(|s| s.0.load(Ordering::Relaxed))
            .sum()
    }
}

impl std::fmt::Debug for StripedU64 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "StripedU64({})", self.sum())
    }
}

/// An immutable, consistent view of everything the PDP needs to answer a
/// request: the translated policy set compiled for evaluation, the
/// combining algorithm, and the compiled GPM plus grounded context the
/// policies were generated from.
///
/// Snapshots are built by the control loop ([`Ams::refresh_policies`],
/// `adopt_gpm`, `set_context`) and published through a [`PdpHandle`]; they
/// are never mutated afterwards, so worker threads can decide against one
/// without synchronization. A snapshot built from a *failed* refresh
/// carries the error and renders deny-by-default.
///
/// [`Ams::refresh_policies`]: crate::arch::Ams::refresh_policies
#[derive(Clone, Debug)]
pub struct DecisionSnapshot {
    epoch: u64,
    policies: Vec<Policy>,
    combining: CombiningAlg,
    compiled: CompiledPolicySet,
    gpm: Option<Asg>,
    context: Program,
    error: Option<AmsError>,
}

impl DecisionSnapshot {
    /// A snapshot serving `policies` under `combining`, with no GPM or
    /// context attached and epoch 0 (the epoch is assigned on publish).
    /// The policy set is compiled here, once, off the decide path.
    pub fn new(policies: Vec<Policy>, combining: CombiningAlg) -> DecisionSnapshot {
        let compiled = CompiledPolicySet::new(&policies, combining);
        DecisionSnapshot {
            epoch: 0,
            policies,
            combining,
            compiled,
            gpm: None,
            context: Program::new(),
            error: None,
        }
    }

    /// Attaches the GPM the policies were generated from, enabling
    /// [`DecisionSnapshot::admits`].
    pub fn with_gpm(mut self, gpm: Asg) -> DecisionSnapshot {
        self.gpm = Some(gpm);
        self
    }

    /// Attaches the grounded context the policies were generated under.
    pub fn with_context(mut self, context: Program) -> DecisionSnapshot {
        self.context = context;
        self
    }

    /// Marks the snapshot as degraded: the pipeline upstream failed with
    /// `error`, and every decision renders a fail-safe [`Decision::Deny`].
    pub fn degraded(mut self, error: AmsError) -> DecisionSnapshot {
        self.error = Some(error);
        self
    }

    /// The snapshot's epoch (assigned when published; 0 before).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The policy set served by this snapshot.
    pub fn policies(&self) -> &[Policy] {
        &self.policies
    }

    /// The combining algorithm applied across policies.
    pub fn combining(&self) -> CombiningAlg {
        self.combining
    }

    /// The GPM the policies were generated from, if attached.
    pub fn gpm(&self) -> Option<&Asg> {
        self.gpm.as_ref()
    }

    /// The context the policies were generated under.
    pub fn context(&self) -> &Program {
        &self.context
    }

    /// The upstream failure this snapshot degrades for, if any.
    pub fn error(&self) -> Option<&AmsError> {
        self.error.as_ref()
    }

    /// True when the snapshot was built from a failed refresh and renders
    /// deny-by-default.
    pub fn is_degraded(&self) -> bool {
        self.error.is_some()
    }

    /// Renders a decision — pure, lock-free, safe from any thread.
    /// Degraded snapshots deny unconditionally rather than evaluating
    /// possibly-stale policies as if they were fresh.
    pub fn decide(&self, request: &Request) -> Decision {
        if self.error.is_some() {
            return Decision::Deny;
        }
        self.compiled.decide(request)
    }

    /// Renders the full [`DecisionEffects`]: the same decision as
    /// [`DecisionSnapshot::decide`] plus the obligations and penalty
    /// annotation the policy set attaches to it. A degraded snapshot's
    /// fail-safe Deny is bare — the policies are never evaluated, so no
    /// annotation can attach.
    pub fn decide_effects(&self, request: &Request) -> DecisionEffects {
        if self.error.is_some() {
            return DecisionEffects::bare(Decision::Deny);
        }
        self.compiled.decide_effects(request)
    }

    /// Does the snapshot's GPM admit `policy` under the snapshot's
    /// context? The ASP solver is a small `Copy` configuration value, so
    /// membership checks run against the shared snapshot without cloning
    /// any solver state. Returns `Ok(false)` when no GPM is attached.
    ///
    /// # Errors
    ///
    /// [`AmsError::Generation`] on grounding failures or budget overruns.
    pub fn admits(&self, policy: &str, budget: &RunBudget) -> Result<bool, AmsError> {
        match &self.gpm {
            Some(g) => Ok(g
                .with_context(&self.context)
                .accepts_within(policy, budget)?),
            None => Ok(false),
        }
    }
}

/// One atomic slot holding the current [`DecisionSnapshot`] behind an
/// [`Arc`].
///
/// Implementation note: with only `std` available, the slot is an
/// `RwLock<Arc<_>>` rather than a true lock-free atomic pointer. Readers
/// hold the read lock exactly long enough to clone the `Arc` (a refcount
/// increment), then decide with no lock held; writers swap the pointer
/// under the write lock. The lock is therefore never held across policy
/// evaluation, grounding, or solving on either side.
#[derive(Debug)]
pub struct SnapshotSwap {
    slot: RwLock<Arc<DecisionSnapshot>>,
}

impl SnapshotSwap {
    /// A swap slot initially holding `snapshot`.
    pub fn new(snapshot: DecisionSnapshot) -> SnapshotSwap {
        SnapshotSwap {
            slot: RwLock::new(Arc::new(snapshot)),
        }
    }

    /// The current snapshot. The read lock is held only for the `Arc`
    /// clone; the returned snapshot stays valid (and consistent) for as
    /// long as the caller keeps it, even across concurrent publishes.
    pub fn load(&self) -> Arc<DecisionSnapshot> {
        self.slot.read().expect("snapshot slot poisoned").clone()
    }

    /// Publishes `snapshot`, replacing the current one. In-flight readers
    /// keep their old `Arc` until they drop it.
    pub fn store(&self, snapshot: DecisionSnapshot) {
        *self.slot.write().expect("snapshot slot poisoned") = Arc::new(snapshot);
    }
}

/// Monotone counters for a serving handle.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServeStats {
    /// Decisions rendered through the handle.
    pub decisions: u64,
    /// Always 0: the serving tier keeps no decision cache. Kept, with
    /// [`ServeStats::cache_misses`], for callers that report a hit rate.
    pub cache_hits: u64,
    /// Equal to `decisions`: every decision evaluates its snapshot.
    pub cache_misses: u64,
    /// Snapshots published.
    pub publishes: u64,
}

#[derive(Debug)]
struct PdpShared {
    swap: SnapshotSwap,
    epoch: AtomicU64,
    decisions: StripedU64,
    publishes: AtomicU64,
    pep: Pep,
}

impl PdpShared {
    /// The one decision path every entry point shares: evaluate `request`
    /// under the already-resolved `snapshot` and assemble the outcome.
    fn outcome(&self, snapshot: &DecisionSnapshot, request: &Request) -> DecisionOutcome {
        self.decisions.add(1);
        self.assemble(snapshot, snapshot.decide_effects(request))
    }

    /// A batch: every request resolved against the snapshot's compiled
    /// set, then decided in order with one evaluation scratch.
    fn outcomes(&self, snapshot: &DecisionSnapshot, requests: &[Request]) -> Vec<DecisionOutcome> {
        let mut batch = ResolvedBatch::new(&snapshot.compiled);
        for request in requests {
            batch.push_request(request);
        }
        self.resolved_outcomes(snapshot, &batch)
    }

    /// Decides `batch`, which was resolved against `snapshot`'s compiled
    /// set. A degraded snapshot denies every request bare, as
    /// [`DecisionSnapshot::decide_effects`] does.
    fn resolved_outcomes(
        &self,
        snapshot: &DecisionSnapshot,
        batch: &ResolvedBatch<'_>,
    ) -> Vec<DecisionOutcome> {
        self.decisions.add(batch.len() as u64);
        if snapshot.is_degraded() {
            let deny = DecisionEffects::bare(Decision::Deny);
            return (0..batch.len())
                .map(|_| self.assemble(snapshot, deny.clone()))
                .collect();
        }
        batch
            .effects()
            .map(|effects| self.assemble(snapshot, effects))
            .collect()
    }

    /// The outcome of `effects` rendered under `snapshot`.
    fn assemble(&self, snapshot: &DecisionSnapshot, effects: DecisionEffects) -> DecisionOutcome {
        DecisionOutcome {
            decision: effects.decision,
            obligations: effects.obligations,
            penalty: effects.penalty,
            enforcement: Some(self.pep.enforce(effects.decision)),
            error: snapshot.error.clone(),
            epoch: snapshot.epoch,
        }
    }
}

/// Runs one decide call and, when telemetry is enabled, mirrors it into
/// the global `serve.*` metrics: one latency sample at the mean
/// per-decision time (so the histogram stays per-decision-scaled) and the
/// decision count. With telemetry disabled the only extra cost is one
/// relaxed atomic load.
fn mirrored<T>(decide: impl FnOnce() -> T, count: impl FnOnce(&T) -> usize) -> T {
    if !agenp_obs::enabled() {
        return decide();
    }
    let start = agenp_obs::monotonic_ns();
    let out = decide();
    let n = count(&out) as u64;
    let elapsed = agenp_obs::monotonic_ns().saturating_sub(start);
    // An empty batch decided nothing: no sample, no count.
    if let Some(per_decision) = elapsed.checked_div(n) {
        let m = ServeMetrics::global();
        m.decide_latency_ns.record(per_decision);
        m.decisions.add(n);
    }
    out
}

/// The outcome of one decision through the serving tier: the decision
/// itself, the obligations and penalty annotation it carries, the
/// enforcement the PEP derives from it, the upstream error the serving
/// snapshot degrades for (if any), and the epoch that answered.
///
/// Compare against a [`Decision`] through [`DecisionOutcome::decision`]
/// (the field or the accessor): `assert_eq!(outcome.decision(), Decision::Deny)`.
#[derive(Clone, Debug)]
pub struct DecisionOutcome {
    /// The rendered decision.
    pub decision: Decision,
    /// Obligations the decision issues (empty for indefinite or degraded
    /// decisions); feed them to an `ObligationLedger` to track discharge.
    pub obligations: Vec<Obligation>,
    /// Worst sanction for acting against this decision (Deny only; 0
    /// otherwise).
    pub penalty: u32,
    /// The enforcement action derived by the PEP.
    pub enforcement: Option<Enforcement>,
    /// The upstream failure behind a degraded snapshot, if any.
    pub error: Option<AmsError>,
    /// Epoch of the snapshot that answered.
    pub epoch: u64,
}

impl DecisionOutcome {
    /// The rendered [`Decision`], without the serving diagnostics.
    pub fn decision(&self) -> Decision {
        self.decision
    }

    /// The decision plus its annotations as a [`DecisionEffects`] — the
    /// value a `ComplianceEvaluator` or `ObligationLedger` consumes.
    pub fn effects(&self) -> DecisionEffects {
        DecisionEffects {
            decision: self.decision,
            obligations: self.obligations.clone(),
            penalty: self.penalty,
        }
    }
}

/// A cheap-to-clone, `Send + Sync` handle onto the serving tier: the
/// snapshot slot and the PEP. Worker threads clone the handle and call
/// [`PdpHandle::decide`] freely (or [`PdpHandle::pin`] it); the control
/// loop publishes new snapshots through the same handle.
#[derive(Clone, Debug)]
pub struct PdpHandle {
    inner: Arc<PdpShared>,
}

impl Default for PdpHandle {
    fn default() -> PdpHandle {
        PdpHandle::new()
    }
}

impl PdpHandle {
    /// A handle serving an empty snapshot (epoch 0, no policies: every
    /// request renders `NotApplicable` until something is published).
    pub fn new() -> PdpHandle {
        PdpHandle {
            inner: Arc::new(PdpShared {
                swap: SnapshotSwap::new(DecisionSnapshot::new(
                    Vec::new(),
                    CombiningAlg::DenyOverrides,
                )),
                epoch: AtomicU64::new(0),
                decisions: StripedU64::default(),
                publishes: AtomicU64::new(0),
                pep: Pep::default(),
            }),
        }
    }

    /// Publishes `snapshot` as the new current snapshot, assigning it the
    /// next epoch. Returns the assigned epoch. In-flight readers finish
    /// against their old snapshot; every decision that resolves the slot
    /// afterwards answers from the new one.
    pub fn publish(&self, mut snapshot: DecisionSnapshot) -> u64 {
        // AcqRel so a pin that observes the new epoch (Acquire) also sees
        // everything sequenced before this publish.
        let epoch = self.inner.epoch.fetch_add(1, Ordering::AcqRel) + 1;
        snapshot.epoch = epoch;
        let degraded = snapshot.is_degraded();
        let mut span = agenp_obs::span!("serve.publish", epoch = epoch, degraded = degraded);
        span.record("policies", snapshot.policies.len());
        self.inner.swap.store(snapshot);
        self.inner.publishes.fetch_add(1, Ordering::Relaxed);
        if span.is_live() {
            let m = ServeMetrics::global();
            m.publishes.incr();
            if degraded {
                m.degraded_publishes.incr();
            }
        }
        epoch
    }

    /// The current snapshot (consistent for as long as the caller holds
    /// it).
    pub fn snapshot(&self) -> Arc<DecisionSnapshot> {
        self.inner.swap.load()
    }

    /// Renders a decision against the current snapshot.
    pub fn decide(&self, request: &Request) -> DecisionOutcome {
        mirrored(
            || self.inner.outcome(&self.inner.swap.load(), request),
            |_| 1,
        )
    }

    /// Renders decisions for a whole slice of requests against **one**
    /// snapshot resolved at entry: the batch is never torn across a
    /// concurrent publish — every outcome carries the same `epoch`, exactly
    /// as if the caller had pinned, decided sequentially, and no publish had
    /// landed in between. Element-wise, `decide_batch(reqs)[i]` equals
    /// `decide(&reqs[i])` under the same snapshot.
    pub fn decide_batch(&self, requests: &[Request]) -> Vec<DecisionOutcome> {
        mirrored(
            || self.inner.outcomes(&self.inner.swap.load(), requests),
            Vec::len,
        )
    }

    /// Pins the current snapshot for one worker's decision loop (see
    /// [`PdpPin`]). Cheap: one `Arc` clone at pin time.
    pub fn pin(&self) -> PdpPin {
        PdpPin {
            snapshot: self.inner.swap.load(),
            handle: self.clone(),
        }
    }

    /// Snapshot of the handle's counters.
    pub fn stats(&self) -> ServeStats {
        let decisions = self.inner.decisions.sum();
        ServeStats {
            decisions,
            cache_hits: 0,
            cache_misses: decisions,
            publishes: self.inner.publishes.load(Ordering::Relaxed),
        }
    }
}

/// One worker thread's pinned decision path.
///
/// [`PdpHandle::decide`] resolves the current snapshot on every call —
/// a read-lock acquisition plus an `Arc` refcount round-trip per
/// decision, which under multi-threaded serving means every worker
/// hammering the same two shared cache lines (the lock word and the
/// refcount). A `PdpPin` keeps the snapshot `Arc` pinned in the worker and
/// revalidates it with a single `Acquire` load of the epoch counter per
/// call, touching the shared slot only when a publish actually moved the
/// epoch. A warm pinned decision therefore touches no shared mutable state
/// beyond that load and a core-local striped counter.
///
/// Freshness: a pinned decision can race a concurrent publish (exactly
/// like a decision that resolved the snapshot just before the publish
/// landed), but the publish bumps the epoch *before* swapping the slot,
/// so the pin re-resolves on the next call at the latest and each
/// outcome's `epoch` is always the epoch of the snapshot that actually
/// answered. Pins are cheap to create and single-threaded by design
/// (`&mut self`); clone the handle and pin per worker.
#[derive(Clone, Debug)]
pub struct PdpPin {
    snapshot: Arc<DecisionSnapshot>,
    handle: PdpHandle,
}

impl PdpPin {
    /// Re-resolves the pinned snapshot if a publish moved the epoch.
    fn revalidate(&mut self) {
        if self.snapshot.epoch() != self.handle.inner.epoch.load(Ordering::Acquire) {
            self.snapshot = self.handle.inner.swap.load();
        }
    }

    /// Renders a decision against the pinned snapshot, re-resolving it
    /// first if a publish has moved the epoch.
    pub fn decide(&mut self, request: &Request) -> DecisionOutcome {
        mirrored(
            || {
                self.revalidate();
                self.handle.inner.outcome(&self.snapshot, request)
            },
            |_| 1,
        )
    }

    /// Batched pinned decisions: one revalidation for the whole slice,
    /// every outcome under the same snapshot (same consistency contract as
    /// [`PdpHandle::decide_batch`]).
    pub fn decide_batch(&mut self, requests: &[Request]) -> Vec<DecisionOutcome> {
        mirrored(
            || {
                self.revalidate();
                self.handle.inner.outcomes(&self.snapshot, requests)
            },
            Vec::len,
        )
    }

    /// Decodes and decides a batch under one snapshot: revalidates once,
    /// lets `decode` resolve requests into a [`ResolvedBatch`] over the
    /// pinned snapshot's compiled set, then decides them all under that
    /// same snapshot (same consistency contract as
    /// [`PdpPin::decide_batch`], and element-wise equal to it on the
    /// requests `decode` resolved). No [`Request`] is built on this path.
    ///
    /// # Errors
    ///
    /// Whatever `decode` fails with; nothing is decided then.
    pub fn decide_resolved<E>(
        &mut self,
        decode: impl FnOnce(&mut ResolvedBatch<'_>) -> Result<(), E>,
    ) -> Result<Vec<DecisionOutcome>, E> {
        self.revalidate();
        let mut batch = ResolvedBatch::new(&self.snapshot.compiled);
        decode(&mut batch)?;
        let shared = &self.handle.inner;
        Ok(mirrored(
            || shared.resolved_outcomes(&self.snapshot, &batch),
            Vec::len,
        ))
    }

    /// The snapshot currently pinned (as of the last [`PdpPin::decide`]).
    pub fn snapshot(&self) -> &DecisionSnapshot {
        &self.snapshot
    }

    /// The handle this pin serves from.
    pub fn handle(&self) -> &PdpHandle {
        &self.handle
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use agenp_policy::{Category, Cond, Effect, PolicyRule};

    fn permit_dba_policies() -> Vec<Policy> {
        vec![Policy::new(
            "p",
            vec![PolicyRule::new(
                "allow-dba",
                Effect::Permit,
                Cond::eq(Category::Subject, "role", "dba"),
            )],
        )]
    }

    #[test]
    fn snapshot_is_send_sync_and_decides() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<DecisionSnapshot>();
        assert_send_sync::<PdpHandle>();
        assert_send_sync::<SnapshotSwap>();
        let snap = DecisionSnapshot::new(permit_dba_policies(), CombiningAlg::DenyOverrides);
        assert_eq!(
            snap.decide(&Request::new().subject("role", "dba")),
            Decision::Permit
        );
        assert_eq!(
            snap.decide(&Request::new().subject("role", "guest")),
            Decision::NotApplicable
        );
    }

    #[test]
    fn degraded_snapshot_denies_everything() {
        let snap = DecisionSnapshot::new(permit_dba_policies(), CombiningAlg::DenyOverrides)
            .degraded(AmsError::Generation(agenp_grammar::AsgError::Exhausted(
                agenp_asp::Exhausted::Atoms,
            )));
        assert!(snap.is_degraded());
        assert_eq!(
            snap.decide(&Request::new().subject("role", "dba")),
            Decision::Deny
        );
    }

    #[test]
    fn publish_bumps_epoch_and_invalidates() {
        let handle = PdpHandle::new();
        let e1 = handle.publish(DecisionSnapshot::new(
            permit_dba_policies(),
            CombiningAlg::DenyOverrides,
        ));
        let req = Request::new().subject("role", "dba");
        assert_eq!(handle.decide(&req).decision, Decision::Permit);
        // New snapshot with no policies: the Permit must not survive the
        // swap.
        let e2 = handle.publish(DecisionSnapshot::new(
            Vec::new(),
            CombiningAlg::DenyOverrides,
        ));
        assert_eq!(e2, e1 + 1);
        let outcome = handle.decide(&req);
        assert_eq!(outcome.decision, Decision::NotApplicable);
        assert_eq!(outcome.epoch, e2);
        assert_eq!(handle.stats().publishes, 2);
    }

    #[test]
    fn no_path_serves_an_older_epoch_after_publish() {
        let handle = PdpHandle::new();
        handle.publish(DecisionSnapshot::new(
            permit_dba_policies(),
            CombiningAlg::DenyOverrides,
        ));
        let req = Request::new().subject("role", "dba");
        let mut pin = handle.pin();
        // Every path answers (and so would have memoized) the Permit first.
        assert_eq!(handle.decide(&req).decision, Decision::Permit);
        assert_eq!(
            handle.decide_batch(std::slice::from_ref(&req))[0].decision,
            Decision::Permit
        );
        assert_eq!(pin.decide(&req).decision, Decision::Permit);
        assert_eq!(
            pin.decide_batch(std::slice::from_ref(&req))[0].decision,
            Decision::Permit
        );
        let deny_all = vec![Policy::new(
            "deny-all",
            vec![PolicyRule::unconditional("deny", Effect::Deny)],
        )];
        let e2 = handle.publish(DecisionSnapshot::new(deny_all, CombiningAlg::DenyOverrides));
        let batch = [req.clone(), req.clone()];
        let outcomes = [
            vec![handle.decide(&req)],
            handle.decide_batch(&batch),
            vec![pin.decide(&req)],
            pin.decide_batch(&batch),
        ];
        for (path, outcomes) in outcomes.iter().enumerate() {
            for o in outcomes {
                assert_eq!(o.epoch, e2, "path {path} answered from an older epoch");
                assert_eq!(
                    o.decision,
                    Decision::Deny,
                    "path {path} served a stale decision"
                );
            }
        }
        assert_eq!(pin.snapshot().epoch(), e2);
    }

    #[test]
    fn pin_follows_publishes_and_reports_true_epochs() {
        let handle = PdpHandle::new();
        let e1 = handle.publish(DecisionSnapshot::new(
            permit_dba_policies(),
            CombiningAlg::DenyOverrides,
        ));
        let mut pin = handle.pin();
        let req = Request::new().subject("role", "dba");
        let first = pin.decide(&req);
        assert_eq!(first.decision, Decision::Permit);
        assert_eq!(first.epoch, e1);
        // A publish through the handle must be visible to the pinned path
        // on its next decision — no stale-epoch serves.
        let e2 = handle.publish(
            DecisionSnapshot::new(Vec::new(), CombiningAlg::DenyOverrides)
                .degraded(AmsError::Unavailable("repo offline".into())),
        );
        let second = pin.decide(&req);
        assert_eq!(second.epoch, e2);
        assert_eq!(second.decision, Decision::Deny);
        assert!(second.error.is_some());
        assert_eq!(pin.snapshot().epoch(), e2);
        // Counters flow into the shared stats regardless of path.
        assert_eq!(pin.handle().stats().decisions, 2);
    }

    #[test]
    fn striped_counters_sum_across_threads() {
        let handle = PdpHandle::new();
        handle.publish(DecisionSnapshot::new(
            permit_dba_policies(),
            CombiningAlg::DenyOverrides,
        ));
        std::thread::scope(|scope| {
            for _ in 0..8 {
                let handle = handle.clone();
                scope.spawn(move || {
                    let mut pin = handle.pin();
                    let req = Request::new().subject("role", "dba");
                    for _ in 0..100 {
                        pin.decide(&req);
                    }
                });
            }
        });
        let stats = handle.stats();
        assert_eq!(stats.decisions, 800);
        // No cache: every decision is a miss.
        assert_eq!((stats.cache_hits, stats.cache_misses), (0, 800));
    }

    #[test]
    fn outcome_exposes_decision_accessor() {
        let handle = PdpHandle::new();
        let outcome = handle.decide(&Request::new());
        assert_eq!(outcome.decision(), Decision::NotApplicable);
        assert_eq!(outcome.decision(), outcome.decision);
        assert_eq!(outcome.enforcement, Some(Enforcement::Escalated));
    }

    #[test]
    fn decide_resolved_answers_from_the_pinned_snapshot() {
        let handle = PdpHandle::new();
        let mut pin = handle.pin();
        let e1 = handle.publish(DecisionSnapshot::new(
            permit_dba_policies(),
            CombiningAlg::DenyOverrides,
        ));
        let roles = ["dba", "guest", "dba"];
        let decode = |batch: &mut ResolvedBatch<'_>| -> Result<(), String> {
            for role in roles {
                batch.push();
                batch.set(Category::Subject, "role", agenp_policy::AttrRef::Str(role));
            }
            Ok(())
        };
        // The pin revalidates before decoding: every outcome is epoch e1.
        let outcomes = pin.decide_resolved(decode).unwrap();
        let want: Vec<DecisionOutcome> = roles
            .iter()
            .map(|r| handle.decide(&Request::new().subject("role", *r)))
            .collect();
        assert_eq!(outcomes.len(), want.len());
        for (got, want) in outcomes.iter().zip(&want) {
            assert_eq!(got.effects(), want.effects());
            assert_eq!((got.epoch, got.enforcement), (e1, want.enforcement));
        }
        let decided = handle.stats().decisions;
        // A failed decode decides and counts nothing.
        let failed: Result<_, String> = pin.decide_resolved(|_| Err("bad body".into()));
        assert_eq!(failed.unwrap_err(), "bad body");
        assert_eq!(handle.stats().decisions, decided);
        // A degraded snapshot denies every resolved request, bare.
        let e2 = handle.publish(
            DecisionSnapshot::new(permit_dba_policies(), CombiningAlg::DenyOverrides).degraded(
                AmsError::Generation(agenp_grammar::AsgError::Exhausted(
                    agenp_asp::Exhausted::Atoms,
                )),
            ),
        );
        for o in pin.decide_resolved(decode).unwrap() {
            assert_eq!(o.effects(), DecisionEffects::bare(Decision::Deny));
            assert_eq!(o.epoch, e2);
            assert!(o.error.is_some());
        }
    }

    #[test]
    fn decide_batch_matches_sequential_and_shares_one_epoch() {
        let handle = PdpHandle::new();
        handle.publish(DecisionSnapshot::new(
            permit_dba_policies(),
            CombiningAlg::DenyOverrides,
        ));
        let reqs: Vec<Request> = (0..20)
            .map(|i| Request::new().subject("role", if i % 3 == 0 { "dba" } else { "guest" }))
            .collect();
        let batch = handle.decide_batch(&reqs);
        assert_eq!(batch.len(), reqs.len());
        let epochs: std::collections::HashSet<u64> = batch.iter().map(|o| o.epoch).collect();
        assert_eq!(epochs.len(), 1, "a batch must not be torn across epochs");
        for (req, out) in reqs.iter().zip(&batch) {
            assert_eq!(out.decision, handle.snapshot().decide(req));
            assert_eq!(
                out.enforcement,
                Some(handle.decide(req).enforcement.unwrap())
            );
        }
        // The pinned batch path agrees element-wise too.
        let mut pin = handle.pin();
        let pinned = pin.decide_batch(&reqs);
        for (a, b) in batch.iter().zip(&pinned) {
            assert_eq!(a.decision, b.decision);
            assert_eq!(a.epoch, b.epoch);
        }
        // Every element counts as a decision: 20 batched, 20 single, 20
        // pinned.
        assert_eq!(handle.stats().decisions, 60);
    }

    #[test]
    fn obligations_round_trip_all_four_paths() {
        use agenp_policy::Obligation;
        let policies = vec![Policy::new(
            "p",
            vec![
                PolicyRule::new(
                    "allow-dba",
                    Effect::Permit,
                    Cond::eq(Category::Subject, "role", "dba"),
                )
                .with_obligation(
                    Effect::Permit,
                    Obligation::new("audit", "audit-log", 10).with_penalty(2),
                ),
                PolicyRule::new(
                    "deny-guest",
                    Effect::Deny,
                    Cond::eq(Category::Subject, "role", "guest"),
                )
                .with_penalty(7),
            ],
        )];
        let handle = PdpHandle::new();
        handle.publish(DecisionSnapshot::new(policies, CombiningAlg::DenyOverrides));
        let dba = Request::new().subject("role", "dba");
        let guest = Request::new().subject("role", "guest");
        let check = |o: &DecisionOutcome, what: &str| match o.decision {
            Decision::Permit => {
                assert_eq!(o.obligations.len(), 1, "{what}");
                assert_eq!(o.obligations[0].id, "audit", "{what}");
                assert_eq!(o.obligations[0].deadline, 10, "{what}");
                assert_eq!(o.penalty, 0, "{what}");
            }
            Decision::Deny => {
                assert!(o.obligations.is_empty(), "{what}");
                assert_eq!(o.penalty, 7, "{what}");
            }
            other => panic!("{what}: unexpected {other}"),
        };
        check(&handle.decide(&dba), "handle");
        let batch = handle.decide_batch(&[guest.clone(), dba.clone(), guest.clone()]);
        for (i, o) in batch.iter().enumerate() {
            check(o, &format!("batch[{i}]"));
        }
        let mut pin = handle.pin();
        check(&pin.decide(&dba), "pin");
        for (i, o) in pin
            .decide_batch(&[dba.clone(), guest.clone()])
            .iter()
            .enumerate()
        {
            check(o, &format!("pin batch[{i}]"));
        }
        // effects() reconstructs the ledger-facing value.
        let fx = handle.decide(&guest).effects();
        assert_eq!(fx.decision, Decision::Deny);
        assert_eq!(fx.penalty, 7);
        // Degraded snapshots deny bare: no annotations leak from stale
        // policies.
        handle.publish(
            DecisionSnapshot::new(Vec::new(), CombiningAlg::DenyOverrides)
                .degraded(AmsError::Unavailable("repo offline".into())),
        );
        let degraded = handle.decide(&guest);
        assert_eq!(degraded.decision, Decision::Deny);
        assert!(degraded.obligations.is_empty());
        assert_eq!(degraded.penalty, 0);
    }

    #[test]
    fn empty_batch_is_empty() {
        let handle = PdpHandle::new();
        assert!(handle.decide_batch(&[]).is_empty());
        let mut pin = handle.pin();
        assert!(pin.decide_batch(&[]).is_empty());
    }
}
