//! Equivalence tier for the invoker's running totals and idle index.
//!
//! `Invoker` answers `committed_mem`, `booked_mem`, `busy_count` and
//! `warm_for` from aggregates its mutators keep in step, instead of
//! scanning its sandbox table. This test drives random
//! create/claim/release/resize/destroy/reclaim schedules across a few
//! tenants and functions, and after every step compares each answer with a
//! full scan of the table through `Invoker::sandbox`.

use ofc_faas::sandbox::{Invoker, SandboxState};
use ofc_faas::{FunctionId, TenantId};
use ofc_simtime::SimTime;
use proptest::prelude::*;
use std::collections::BTreeSet;
use std::time::Duration;

const TENANTS: u8 = 3;
const FUNCTIONS: u8 = 3;
const MB: u64 = 1 << 20;

#[derive(Debug, Clone, Copy)]
enum Op {
    Create {
        tenant: u8,
        function: u8,
        mem_mb: u64,
        booked_mb: u64,
    },
    Claim {
        pick: u8,
    },
    Release {
        pick: u8,
    },
    Resize {
        pick: u8,
        mem_mb: u64,
    },
    Destroy {
        pick: u8,
    },
    Reclaim {
        pick: u8,
        current_uses: bool,
    },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    let create = || {
        (0..TENANTS, 0..FUNCTIONS, 1..512u64, 1..512u64).prop_map(
            |(tenant, function, mem_mb, booked_mb)| Op::Create {
                tenant,
                function,
                mem_mb,
                booked_mb,
            },
        )
    };
    prop_oneof![
        create(),
        create(),
        any::<u8>().prop_map(|pick| Op::Claim { pick }),
        any::<u8>().prop_map(|pick| Op::Claim { pick }),
        any::<u8>().prop_map(|pick| Op::Release { pick }),
        any::<u8>().prop_map(|pick| Op::Release { pick }),
        (any::<u8>(), 1..512u64).prop_map(|(pick, mem_mb)| Op::Resize { pick, mem_mb }),
        any::<u8>().prop_map(|pick| Op::Destroy { pick }),
        (any::<u8>(), any::<bool>())
            .prop_map(|(pick, current_uses)| Op::Reclaim { pick, current_uses }),
    ]
}

fn tenant(i: u8) -> TenantId {
    TenantId::from(format!("tenant{i}").as_str())
}

fn function(i: u8) -> FunctionId {
    FunctionId::from(format!("fn{i}").as_str())
}

/// Picks one of the ids created so far, destroyed ones included, so the
/// mutators also see unknown ids.
fn pick_id(created: u64, pick: u8) -> Option<u64> {
    (created > 0).then(|| u64::from(pick) % created)
}

/// Compares every indexed answer with a full scan of the sandbox table.
fn check_against_scan(inv: &Invoker, created: u64) -> Result<(), TestCaseError> {
    let live: Vec<_> = (0..created).filter_map(|id| inv.sandbox(id)).collect();
    prop_assert_eq!(inv.sandbox_count(), live.len());
    prop_assert_eq!(
        inv.committed_mem(),
        live.iter().map(|s| s.mem_limit).sum::<u64>()
    );
    prop_assert_eq!(inv.booked_mem(), live.iter().map(|s| s.booked).sum::<u64>());
    prop_assert_eq!(
        inv.busy_count(),
        live.iter()
            .filter(|s| matches!(s.state, SandboxState::Busy { .. }))
            .count()
    );
    for t in (0..TENANTS).map(tenant) {
        for f in (0..FUNCTIONS).map(function) {
            let ids: Vec<u64> = inv.warm_for(&f, &t).map(|v| v.sandbox).collect();
            prop_assert!(
                ids.windows(2).all(|w| w[0] < w[1]),
                "warm_for must list ascending sandbox ids: {:?}",
                ids
            );
            let indexed: BTreeSet<_> = inv
                .warm_for(&f, &t)
                .map(|v| (v.node, v.sandbox, v.mem_limit, v.idle_since))
                .collect();
            let scanned: BTreeSet<_> = live
                .iter()
                .filter(|s| s.tenant == t && s.function == f)
                .filter_map(|s| match s.state {
                    SandboxState::Idle { since } => Some((inv.node(), s.id, s.mem_limit, since)),
                    _ => None,
                })
                .collect();
            prop_assert_eq!(indexed, scanned, "warm_for({}, {})", t, f);
        }
    }
    Ok(())
}

/// Applies `ops` to a fresh invoker, checking it against the scan after
/// every step.
fn run_schedule(ops: &[Op]) -> Result<(), TestCaseError> {
    let mut inv = Invoker::new(1, 64 << 30);
    let mut created = 0u64;
    let mut now = SimTime::ZERO;
    for (step, op) in ops.iter().enumerate() {
        now += Duration::from_millis(1);
        match *op {
            Op::Create {
                tenant: t,
                function: f,
                mem_mb,
                booked_mb,
            } => {
                let id =
                    inv.create_sandbox(function(f), tenant(t), mem_mb * MB, booked_mb * MB, now);
                prop_assert_eq!(id, created, "ids are handed out in sequence");
                created += 1;
            }
            Op::Claim { pick } => {
                // Claiming an unknown or busy sandbox is a scheduler bug
                // the invoker panics on; the schedule only claims legally.
                let claimable = pick_id(created, pick).filter(|&id| {
                    inv.sandbox(id)
                        .is_some_and(|s| !matches!(s.state, SandboxState::Busy { .. }))
                });
                if let Some(id) = claimable {
                    inv.claim(id, step as u64);
                }
            }
            Op::Release { pick } => {
                if let Some(id) = pick_id(created, pick) {
                    inv.release(id, now);
                }
            }
            Op::Resize { pick, mem_mb } => {
                if let Some(id) = pick_id(created, pick) {
                    let before = inv.sandbox(id).map(|s| s.mem_limit);
                    prop_assert_eq!(inv.resize(id, mem_mb * MB), before);
                }
            }
            Op::Destroy { pick } => {
                if let Some(id) = pick_id(created, pick) {
                    let before = inv.sandbox(id).map(|s| s.mem_limit);
                    prop_assert_eq!(inv.destroy(id), before);
                }
            }
            Op::Reclaim { pick, current_uses } => {
                if let Some(id) = pick_id(created, pick) {
                    let uses = inv.sandbox(id).map_or(0, |s| s.uses);
                    let uses = if current_uses {
                        uses
                    } else {
                        uses.wrapping_add(1)
                    };
                    let expect = inv
                        .sandbox(id)
                        .filter(|s| s.uses == uses && matches!(s.state, SandboxState::Idle { .. }))
                        .map(|s| s.mem_limit);
                    prop_assert_eq!(inv.reclaim_if_stale(id, uses), expect);
                }
            }
        }
        check_against_scan(&inv, created)?;
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Random lifecycle schedules keep the running totals and the idle
    /// index equal to a full scan after every single step.
    #[test]
    fn running_totals_and_idle_index_match_full_scan(
        ops in prop::collection::vec(op_strategy(), 1..80)
    ) {
        run_schedule(&ops)?;
    }
}

/// A pinned schedule through every transition, independent of the
/// proptest RNG: idle → busy → idle, a resize while idle, reclaim with a
/// stale and a current use count, and destroying a busy sandbox.
#[test]
fn every_transition_in_one_schedule() {
    let create = |tenant, function| Op::Create {
        tenant,
        function,
        mem_mb: 128,
        booked_mb: 256,
    };
    run_schedule(&[
        create(0, 0),
        create(0, 0),
        create(1, 0),
        Op::Release { pick: 0 },
        Op::Release { pick: 1 },
        Op::Release { pick: 2 },
        Op::Claim { pick: 1 },
        Op::Resize {
            pick: 0,
            mem_mb: 64,
        },
        Op::Reclaim {
            pick: 0,
            current_uses: false,
        },
        Op::Reclaim {
            pick: 0,
            current_uses: true,
        },
        Op::Destroy { pick: 1 },
        Op::Claim { pick: 2 },
        Op::Release { pick: 2 },
        Op::Destroy { pick: 0 },
    ])
    .unwrap();
}
