//! The benchmark measures the program the committed figures come from.
//!
//! On short windows of every workload, the benchmark's drivers, untraced
//! and with the decorated seams, reproduce the arrivals, completions,
//! failures and cache hits of the repository's own drivers
//! (`megarun::run_mega`, and `cachex::run_macro_full`'s Table 2 for
//! `paper_day`). A second seed changes the outcome while every
//! correctness check still holds.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use ofc_bench::cachex;
use ofc_bench::megarun::run_mega;
use ofc_bench::scenario::PlaneKind;
use ofc_core::ofc::OfcConfig;
use ofc_workloads::faasload::TenantProfile;
use perfbench::trace::{Kind, Tracer};
use perfbench::{run, Run, Workload};
use std::time::Duration;

const SEED: u64 = 1;
const HELD_OUT_SEED: u64 = 2;

fn short_window(w: Workload) -> Duration {
    Duration::from_secs(match w {
        Workload::PaperDay => 60 * 60,
        Workload::MegaHour => 3 * 60,
        Workload::MegaAttack | Workload::MegaFailover => 6 * 60,
    })
}

/// Runs `w` untraced and traced; both must pass every check and share
/// one digest.
fn run_both(w: Workload, seed: u64) -> (Run, Run, Tracer) {
    let window = short_window(w);
    let plain = run(w, seed, window, None);
    let tracer = Tracer::default();
    let traced = run(w, seed, window, Some(&tracer));
    for r in [&plain, &traced] {
        assert!(r.checks().all(), "{}: {:?}", w.name(), r.checks());
        assert!(r.arrivals > 0, "{}: no arrivals", w.name());
    }
    assert_eq!(
        plain.digest(),
        traced.digest(),
        "{}: tracing changed the run",
        w.name()
    );
    (plain, traced, tracer)
}

fn assert_matches_run_mega(w: Workload) {
    let (plain, traced, tracer) = run_both(w, SEED);
    let opts = w.mega_opts(SEED, short_window(w)).expect("mega workload");
    let reference = run_mega(opts);
    let hits: u64 = reference.deciles.iter().map(|d| d.hits).sum();
    let misses: u64 = reference.deciles.iter().map(|d| d.misses).sum();
    for r in [&plain, &traced] {
        assert_eq!(r.arrivals, reference.arrivals, "{}: arrivals", w.name());
        assert_eq!(
            r.fold.completed,
            reference.completed,
            "{}: completed",
            w.name()
        );
        assert_eq!(r.fold.failed, reference.failed, "{}: failed", w.name());
        assert_eq!(r.fold.hits, hits, "{}: hits", w.name());
        assert_eq!(r.fold.misses, misses, "{}: misses", w.name());
        assert_eq!(r.events, reference.events, "{}: events", w.name());
    }
    // Every arrival was routed through the decorated scheduler.
    assert!(tracer.totals(Kind::Route).calls >= traced.arrivals);
    assert!(tracer.totals(Kind::Complete).calls >= traced.fold.completed);
}

#[test]
fn mega_hour_matches_run_mega() {
    assert_matches_run_mega(Workload::MegaHour);
}

#[test]
fn mega_attack_matches_run_mega() {
    assert_matches_run_mega(Workload::MegaAttack);
}

#[test]
fn mega_failover_matches_run_mega() {
    assert_matches_run_mega(Workload::MegaFailover);
    let tracer = Tracer::default();
    run(
        Workload::MegaFailover,
        SEED,
        short_window(Workload::MegaFailover),
        Some(&tracer),
    );
    assert_eq!(tracer.totals(Kind::CrashNode).calls, 1);
    assert_eq!(tracer.totals(Kind::RestartNode).calls, 1);
}

#[test]
fn paper_day_matches_table2() {
    let w = Workload::PaperDay;
    let (plain, traced, _) = run_both(w, SEED);
    let reference = cachex::run_macro_full(
        PlaneKind::Ofc,
        TenantProfile::Normal,
        3,
        short_window(w),
        SEED,
        OfcConfig::default(),
        64 << 30,
    )
    .table2;
    for r in [&plain, &traced] {
        assert_eq!(r.fold.failed, reference.failed_invocations);
        assert!((r.hit_ratio_pct() - reference.hit_ratio_pct).abs() < 1e-9);
        assert_eq!(
            r.counter("agent.scale_downs_migration"),
            reference.scale_down_migration
        );
        assert_eq!(
            r.counter("agent.scale_downs_eviction"),
            reference.scale_down_eviction
        );
        assert!(r.setup.total_s > 0.0 && r.pump_s > 0.0);
    }
}

#[test]
fn held_out_seed_changes_the_outcome_and_keeps_the_invariants() {
    for w in Workload::ALL {
        let window = short_window(w);
        let a = run(w, SEED, window, None);
        let b = run(w, HELD_OUT_SEED, window, None);
        assert!(b.checks().all(), "{}: {:?}", w.name(), b.checks());
        assert_ne!(
            a.digest(),
            b.digest(),
            "{}: the seed must drive the inputs",
            w.name()
        );
    }
}

#[test]
fn percentiles_are_exact_nearest_rank() {
    let v: Vec<u64> = (1..=200).collect();
    assert_eq!(perfbench::percentile(&v, 0.5), 100);
    assert_eq!(perfbench::percentile(&v, 0.99), 198);
    assert_eq!(perfbench::percentile(&[7], 0.99), 7);
    assert_eq!(perfbench::percentile(&[], 0.5), 0);
}
