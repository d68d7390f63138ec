//! Sandboxes and invokers: per-node container lifecycle and memory
//! accounting.
//!
//! The invariants mirror §2.1: a sandbox is never shared between functions
//! or tenants, processes one invocation at a time, and idles under
//! keep-alive until reclaimed. Memory committed to sandboxes on a node is
//! the quantity OFC's CacheAgent arbitrates against the cache pool.

use crate::{FunctionId, InvocationId, NodeId, SandboxView, TenantId};
use ofc_intern::IdHashMap;
use ofc_simtime::SimTime;
use std::collections::BTreeMap;

/// Sandbox lifecycle state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SandboxState {
    /// Being created (cold start in progress).
    Starting,
    /// Warm and idle, available for reuse.
    Idle {
        /// When it became idle.
        since: SimTime,
    },
    /// Executing one invocation.
    Busy {
        /// The invocation it runs.
        invocation: InvocationId,
    },
}

/// A function sandbox (Docker container in OWK).
#[derive(Debug, Clone)]
pub struct Sandbox {
    /// Identifier, unique per node.
    pub id: u64,
    /// Function this sandbox is bound to (never shared, §2.1).
    pub function: FunctionId,
    /// Owning tenant.
    pub tenant: TenantId,
    /// Current cgroup memory limit (predicted `Mp` under OFC).
    pub mem_limit: u64,
    /// Memory the tenant booked (the admission-control currency, §2.2.1:
    /// OWK guarantees the booking; OFC harvests the unused difference).
    pub booked: u64,
    /// State.
    pub state: SandboxState,
    /// Creation instant.
    pub created: SimTime,
    /// Monotonic use counter (for keep-alive staleness checks).
    pub uses: u64,
}

/// Idle sandboxes per (tenant, function): id → idle since.
type IdleIndex = IdHashMap<(TenantId, FunctionId), BTreeMap<u64, SimTime>>;

/// A worker node's invoker: sandbox table plus memory accounting.
///
/// Routing reads this table on every arrival, so the aggregates it needs
/// are kept up to date by the mutators instead of being recomputed:
/// running committed/booked/busy totals, and an index of the idle
/// sandboxes per (tenant, function). Every state or limit change goes
/// through a method below, which keeps all four in step.
#[derive(Debug)]
pub struct Invoker {
    node: NodeId,
    total_mem: u64,
    sandboxes: IdHashMap<u64, Sandbox>,
    /// Idle sandboxes per (tenant, function): id → idle since, ascending
    /// id; a pair with no idle sandbox has no entry.
    idle: IdleIndex,
    /// Σ `mem_limit` over all sandboxes.
    committed: u64,
    /// Σ `booked` over all sandboxes.
    booked: u64,
    /// Sandboxes in the `Busy` state.
    busy: usize,
    next_id: u64,
    /// Cold starts performed.
    pub cold_starts: u64,
    /// Sandboxes reclaimed by keep-alive expiry.
    pub reclaimed: u64,
}

impl Invoker {
    /// Creates an invoker with `total_mem` bytes of sandbox-usable memory.
    pub fn new(node: NodeId, total_mem: u64) -> Self {
        Invoker {
            node,
            total_mem,
            sandboxes: IdHashMap::default(),
            idle: IdHashMap::default(),
            committed: 0,
            booked: 0,
            busy: 0,
            next_id: 0,
            cold_starts: 0,
            reclaimed: 0,
        }
    }

    /// Node id.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// Total node memory.
    pub fn total_mem(&self) -> u64 {
        self.total_mem
    }

    /// Physical memory committed to sandboxes (sum of cgroup limits) —
    /// what the cache pool is carved against. O(1).
    pub fn committed_mem(&self) -> u64 {
        self.committed
    }

    /// Booked memory committed to sandboxes — the admission-control sum
    /// (`Σ booked <= capacity`, as in stock OWK). O(1).
    pub fn booked_mem(&self) -> u64 {
        self.booked
    }

    /// Number of sandboxes in any state.
    pub fn sandbox_count(&self) -> usize {
        self.sandboxes.len()
    }

    /// Number of busy sandboxes. O(1).
    pub fn busy_count(&self) -> usize {
        self.busy
    }

    /// Borrow of a sandbox.
    pub fn sandbox(&self, id: u64) -> Option<&Sandbox> {
        self.sandboxes.get(&id)
    }

    /// Creates a sandbox in `Starting` state.
    ///
    /// The caller must have arranged memory through the broker first.
    pub fn create_sandbox(
        &mut self,
        function: FunctionId,
        tenant: TenantId,
        mem_limit: u64,
        booked: u64,
        now: SimTime,
    ) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        self.cold_starts += 1;
        self.committed += mem_limit;
        self.booked += booked;
        self.sandboxes.insert(
            id,
            Sandbox {
                id,
                function,
                tenant,
                mem_limit,
                booked,
                state: SandboxState::Starting,
                created: now,
                uses: 0,
            },
        );
        id
    }

    /// Moves sandbox `id` to `state`, keeping the busy count and the idle
    /// index in step.
    fn set_state(&mut self, id: u64, state: SandboxState) {
        let Some(sb) = self.sandboxes.get_mut(&id) else {
            return;
        };
        let old = std::mem::replace(&mut sb.state, state);
        let key = (sb.tenant, sb.function);
        self.untrack(key, id, old);
        match state {
            SandboxState::Busy { .. } => self.busy += 1,
            SandboxState::Idle { since } => {
                self.idle.entry(key).or_default().insert(id, since);
            }
            SandboxState::Starting => {}
        }
    }

    /// Transitions a sandbox to busy for `invocation`.
    ///
    /// # Panics
    ///
    /// Panics if the sandbox does not exist or is already busy — both are
    /// scheduler bugs, not runtime conditions.
    pub fn claim(&mut self, id: u64, invocation: InvocationId) {
        let sb = self
            .sandboxes
            .get_mut(&id)
            .expect("claiming unknown sandbox");
        assert!(
            !matches!(sb.state, SandboxState::Busy { .. }),
            "sandbox {id} already busy (one invocation at a time, §2.1)"
        );
        sb.uses += 1;
        self.set_state(id, SandboxState::Busy { invocation });
    }

    /// Transitions a sandbox back to idle after an invocation.
    pub fn release(&mut self, id: u64, now: SimTime) {
        self.set_state(id, SandboxState::Idle { since: now });
    }

    /// Updates a sandbox's memory limit; returns the old limit.
    pub fn resize(&mut self, id: u64, mem_limit: u64) -> Option<u64> {
        let sb = self.sandboxes.get_mut(&id)?;
        let old = std::mem::replace(&mut sb.mem_limit, mem_limit);
        self.committed = self.committed - old + mem_limit;
        Some(old)
    }

    /// Destroys a sandbox (OOM kill or keep-alive expiry); returns its
    /// memory limit so the caller can release it to the broker.
    pub fn destroy(&mut self, id: u64) -> Option<u64> {
        let sb = self.sandboxes.remove(&id)?;
        self.committed -= sb.mem_limit;
        self.booked -= sb.booked;
        self.untrack((sb.tenant, sb.function), id, sb.state);
        Some(sb.mem_limit)
    }

    /// Takes sandbox `id`, of `key`, out of the busy count or the idle
    /// index as it leaves `state`.
    fn untrack(&mut self, key: (TenantId, FunctionId), id: u64, state: SandboxState) {
        match state {
            SandboxState::Busy { .. } => self.busy -= 1,
            SandboxState::Idle { .. } => {
                if let Some(ids) = self.idle.get_mut(&key) {
                    ids.remove(&id);
                    if ids.is_empty() {
                        self.idle.remove(&key);
                    }
                }
            }
            SandboxState::Starting => {}
        }
    }

    /// Reclaims the sandbox if it is still idle and untouched since `uses`.
    /// Returns the freed memory.
    pub fn reclaim_if_stale(&mut self, id: u64, uses: u64) -> Option<u64> {
        let stale = matches!(
            self.sandboxes.get(&id),
            Some(Sandbox {
                state: SandboxState::Idle { .. },
                uses: u,
                ..
            }) if *u == uses
        );
        if stale {
            self.reclaimed += 1;
            self.destroy(id)
        } else {
            None
        }
    }

    /// Idle warm sandboxes bound to `function`/`tenant`, as scheduler
    /// views in ascending sandbox id. Reads only the matching index entry.
    pub fn warm_for(
        &self,
        function: &FunctionId,
        tenant: &TenantId,
    ) -> impl Iterator<Item = SandboxView> + '_ {
        self.idle
            .get(&(*tenant, *function))
            .into_iter()
            .flatten()
            .map(move |(&id, &idle_since)| SandboxView {
                node: self.node,
                sandbox: id,
                mem_limit: self
                    .sandboxes
                    .get(&id)
                    .expect("the idle index holds only live sandboxes")
                    .mem_limit,
                idle_since,
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn invoker() -> Invoker {
        Invoker::new(0, 1 << 30)
    }

    fn fid(s: &str) -> FunctionId {
        FunctionId::from(s)
    }

    fn tid(s: &str) -> TenantId {
        TenantId::from(s)
    }

    #[test]
    fn create_claim_release_cycle() {
        let mut inv = invoker();
        let id = inv.create_sandbox(fid("f"), tid("t"), 256 << 20, 256 << 20, SimTime::ZERO);
        assert_eq!(inv.committed_mem(), 256 << 20);
        assert_eq!(inv.cold_starts, 1);
        inv.claim(id, 42);
        assert_eq!(inv.busy_count(), 1);
        inv.release(id, SimTime::from_secs(1));
        assert_eq!(inv.busy_count(), 0);
        let warm: Vec<_> = inv.warm_for(&fid("f"), &tid("t")).collect();
        assert_eq!(warm.len(), 1);
        assert_eq!(warm[0].idle_since, SimTime::from_secs(1));
    }

    #[test]
    #[should_panic(expected = "already busy")]
    fn double_claim_panics() {
        let mut inv = invoker();
        let id = inv.create_sandbox(fid("f"), tid("t"), 1, 1, SimTime::ZERO);
        inv.claim(id, 1);
        inv.claim(id, 2);
    }

    #[test]
    fn warm_lookup_is_function_and_tenant_scoped() {
        let mut inv = invoker();
        let a = inv.create_sandbox(fid("f"), tid("t1"), 1, 1, SimTime::ZERO);
        let b = inv.create_sandbox(fid("f"), tid("t2"), 1, 1, SimTime::ZERO);
        inv.release(a, SimTime::ZERO);
        inv.release(b, SimTime::ZERO);
        // Same function, different tenant: never shared (§2.1).
        assert_eq!(inv.warm_for(&fid("f"), &tid("t1")).count(), 1);
        assert_eq!(inv.warm_for(&fid("g"), &tid("t1")).count(), 0);
    }

    #[test]
    fn resize_updates_commitment() {
        let mut inv = invoker();
        let id = inv.create_sandbox(fid("f"), tid("t"), 100 << 20, 100 << 20, SimTime::ZERO);
        assert_eq!(inv.resize(id, 300 << 20), Some(100 << 20));
        assert_eq!(inv.committed_mem(), 300 << 20);
    }

    #[test]
    fn reclaim_only_when_stale() {
        let mut inv = invoker();
        let id = inv.create_sandbox(fid("f"), tid("t"), 64 << 20, 64 << 20, SimTime::ZERO);
        inv.claim(id, 1);
        inv.release(id, SimTime::ZERO);
        let uses_at_schedule = inv.sandbox(id).unwrap().uses;
        // Sandbox gets reused before the keep-alive timer fires…
        inv.claim(id, 2);
        inv.release(id, SimTime::from_secs(1));
        // …so the stale check must not reclaim it.
        assert_eq!(inv.reclaim_if_stale(id, uses_at_schedule), None);
        assert_eq!(inv.sandbox_count(), 1);
        // With the current use counter it does reclaim.
        let uses_now = inv.sandbox(id).unwrap().uses;
        assert_eq!(inv.reclaim_if_stale(id, uses_now), Some(64 << 20));
        assert_eq!(inv.sandbox_count(), 0);
        assert_eq!(inv.reclaimed, 1);
    }

    #[test]
    fn busy_sandbox_not_reclaimed() {
        let mut inv = invoker();
        let id = inv.create_sandbox(fid("f"), tid("t"), 1, 1, SimTime::ZERO);
        inv.claim(id, 1);
        let uses = inv.sandbox(id).unwrap().uses;
        assert_eq!(inv.reclaim_if_stale(id, uses), None);
    }

    #[test]
    fn destroy_returns_memory() {
        let mut inv = invoker();
        let id = inv.create_sandbox(fid("f"), tid("t"), 128 << 20, 128 << 20, SimTime::ZERO);
        assert_eq!(inv.destroy(id), Some(128 << 20));
        assert_eq!(inv.committed_mem(), 0);
        assert_eq!(inv.destroy(id), None);
    }
}
