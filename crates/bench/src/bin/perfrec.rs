//! `perfrec`: the BENCH perf record. Times every parallel-runner bin
//! serial vs parallel (same seeds, byte-compared JSON), A/Bs the control
//! plane (single omniscient coordinator vs 3-replica Raft-style group with
//! gossip membership — DESIGN.md §16), counts the lines of code of every
//! crate, and writes the result as a `BENCH_<n>.json` record so the perf
//! and size trajectory of this repo is machine-readable PR over PR.
//!
//! Invocation (after `cargo build --release`):
//!
//! ```text
//! cargo run --release -p ofc-bench --bin perfrec
//! ```
//!
//! Record 10 added the mega-scale sections: a timed serial full-scale
//! `run_mega` headline (events/sec at ≥100k functions / ≥1k tenants), a
//! per-policy mega-mix bake-off, and the failover drill re-run against a
//! mega smoke window (control-plane overhead at scale). Record 12 adds
//! the per-crate `loc` map.
//!
//! Environment:
//! * `OFC_PERFREC_MINS` — macro window for the timed bins (default 5).
//! * `OFC_PERFREC_MIN_SPEEDUP` — when set, exit non-zero if the raw-speed
//!   speedup (full-window serial `macro24` vs the 13 s pre-interning
//!   baseline) falls below it, if the serial and parallel `macro24`
//!   JSON diverge, or if any bin with real fan-out (>1 worker) and a
//!   measurable serial pass (≥1 s) regressed below 1.0x (CI regression
//!   guard). `2.6` encodes the ISSUE 9 target "serial macro24 < 5 s"
//!   (13 / 5).
//! * `OFC_PERFREC_MEGA=0` — skip the slow full-scale mega headline
//!   timing (minutes of wall; CI skips it and relies on the committed
//!   record plus the `mega-smoke` job).
//! * `OFC_BENCH_RECORD` — output path (default `BENCH_12.json`).
//! * `OFC_BENCH_THREADS` — worker count for the parallel pass (default:
//!   available parallelism).

use ofc_bench::cachex::{run_macro_full, run_macro_hooked};
use ofc_bench::megarun::{run_mega, tail_hit_pct, MegaOpts};
use ofc_bench::par;
use ofc_bench::scenario::{PlaneKind, Testbed, NODE_MEM};
use ofc_core::ofc::OfcConfig;
use ofc_core::policy::PolicyKind;
use ofc_telemetry::names;
use ofc_telemetry::Telemetry;
use ofc_workloads::faasload::TenantProfile;
use ofc_workloads::mega::MegaConfig;
use serde::Serialize;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::rc::Rc;
use std::time::{Duration, Instant};

/// The bins ported to the parallel replay runner, with their fan-out
/// widths (independent sims per invocation).
const PAR_BINS: &[(&str, u64)] = &[
    ("macro24", 14),
    ("fig9", 6),
    ("fig10", 3),
    ("ablation", 11),
    ("chaos", 2),
    ("bakeoff", 3),
    ("macro_mega", 6),
];

/// Pre-interning-campaign `macro24` wall time: full 30-minute window,
/// serial, measured at the record-8 commit (ROADMAP item 2's "serial
/// macro24 ~13 s" bottleneck) before the key-interning / calendar-queue /
/// integer-entropy rewrite landed in record 9.
const MACRO24_PRE_INTERN_SERIAL_S: f64 = 13.0;

#[derive(Serialize)]
struct BinTiming {
    bin: String,
    sims: u64,
    serial_s: f64,
    parallel_s: f64,
    speedup: f64,
    json_identical: bool,
    /// What the runner actually did on the timed "parallel" pass:
    /// `"parallel"`, or `"serial-fallback"` when the bin's fan-out is
    /// below the `min_par_sims` threshold and `run_jobs` stayed on the
    /// calling thread (thread spawn/join costs more than it recovers on
    /// 2–3 sim bins — the record-6 fig10 row measured 0.94x).
    mode: &'static str,
}

#[derive(Serialize)]
struct PolicyTiming {
    policy: String,
    wall_s: f64,
    hit_ratio_pct: f64,
}

/// One per-policy run over the mega-mix window (DESIGN.md §18): the
/// bake-off re-run at multi-tenant heavy-tail scale.
#[derive(Serialize)]
struct MegaPolicyTiming {
    policy: String,
    wall_s: f64,
    hit_ratio_pct: f64,
    /// Hit ratio of the tail tenant deciles (5..9) — where rival
    /// policies actually differ under a heavy-tailed tenant mix.
    tail_hit_pct: f64,
    failed: u64,
}

/// One side of the mega-scale control-plane drill.
#[derive(Serialize)]
struct MegaCoordSide {
    wall_s: f64,
    events: u64,
    hit_ratio_pct: f64,
    failed: u64,
    raft_commits: u64,
    raft_elections: u64,
    degraded_bypasses: u64,
}

/// The failover drill re-run against the mega smoke window: default
/// single coordinator (fault-free) vs a 3-replica group with gossip
/// membership *and* a worker crash + restart mid-window. The wall
/// overhead is the control-plane price at mega tenant counts.
#[derive(Serialize)]
struct MegaFailoverRecord {
    single: MegaCoordSide,
    replicated_crash: MegaCoordSide,
    /// `100 * (replicated_crash.wall_s / single.wall_s - 1)`.
    wall_overhead_pct: f64,
}

/// The timed full-scale mega headline: serial, in-process, same
/// configuration as the `macro_mega` bin's headline variant.
#[derive(Serialize)]
struct MegaScaleRecord {
    tenants: usize,
    functions: usize,
    arrivals: u64,
    failed: u64,
    events: u64,
    wall_s: f64,
    /// The scale-campaign headline: simulator events per wall second.
    events_per_sec: f64,
    hit_ratio_pct: f64,
    tail_hit_pct: f64,
    usage_fairness_bps: u64,
}

#[derive(Serialize)]
struct CoordSide {
    wall_s: f64,
    hit_ratio_pct: f64,
    /// Sum of per-function execution time across the window (the latency
    /// the platform's tenants actually observe).
    total_exec_s: f64,
    /// Control-plane mutations committed through the replicated log
    /// (zero on the single-coordinator side: no log exists).
    raft_commits: u64,
}

/// Fault-free control-plane A/B (DESIGN.md §16): the same Fig 9 macro
/// window with the default single coordinator vs a 3-replica group with
/// gossip membership. The exec-time delta is the end-to-end price of
/// commit-on-majority consensus on every tablet assignment.
#[derive(Serialize)]
struct FailoverRecord {
    single: CoordSide,
    replicated: CoordSide,
    /// `100 * (replicated.total_exec_s / single.total_exec_s - 1)`.
    exec_overhead_pct: f64,
}

/// The raw-speed campaign's headline number (ISSUE 9): serial `macro24`
/// at the *full* 30-minute window, against the pre-campaign baseline.
#[derive(Serialize)]
struct RawSpeedRecord {
    /// Wall seconds of `macro24` with `OFC_BENCH_THREADS=1` at the
    /// default 30-minute window, measured by this run.
    macro24_serial_full_s: f64,
    /// The same measurement at the record-8 commit, before interning.
    macro24_serial_before_s: f64,
    speedup: f64,
}

#[derive(Serialize)]
struct BenchRecord {
    record: u64,
    window_mins: u64,
    threads: usize,
    /// Fan-out floor for the parallel path ([`par::min_par_sims`]); bins
    /// below it report `mode = "serial-fallback"`.
    min_par_sims: usize,
    raw_speed: RawSpeedRecord,
    bins: Vec<BinTiming>,
    /// One in-process Fig 9 macro run per cache policy (DESIGN.md §15):
    /// the bake-off's wall-time record.
    policies: Vec<PolicyTiming>,
    /// The bake-off re-run per policy on the mega-mix window (§18).
    mega_policies: Vec<MegaPolicyTiming>,
    coordinator: FailoverRecord,
    /// Control-plane drill against the mega smoke window.
    mega_failover: MegaFailoverRecord,
    /// Timed full-scale serial mega headline (events/sec); `null` when
    /// `OFC_PERFREC_MEGA=0` skipped the slow measurement (CI).
    mega: Option<MegaScaleRecord>,
    /// Non-blank lines of `crates/<crate>/src/**/*.rs`, per crate: the
    /// size half of "the same figures and speed from the least code".
    loc: BTreeMap<String, u64>,
    /// Sims executed through the parallel runner across the parallel pass
    /// (also recorded as the `bench.par_runs` counter).
    par_runs: u64,
}

fn env_u64(name: &str, default: u64) -> u64 {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Directory holding the sibling release binaries.
fn bin_dir() -> PathBuf {
    let exe = std::env::current_exe().expect("current exe path");
    exe.parent().expect("exe has a parent dir").to_path_buf()
}

/// Runs one bin into `scratch` with the given worker count, returning its
/// wall time.
fn run_bin(bin: &str, threads: usize, mins: u64, scratch: &Path) -> f64 {
    std::fs::create_dir_all(scratch).expect("scratch dir");
    let path = bin_dir().join(bin);
    let started = Instant::now();
    let out = Command::new(&path)
        .env("OFC_MACRO_MINS", mins.to_string())
        .env("OFC_MEGA_SMOKE", "1") // only macro_mega reads this; harmless elsewhere
        .env("OFC_BENCH_THREADS", threads.to_string())
        .env("OFC_RESULTS_DIR", scratch)
        .output()
        .unwrap_or_else(|e| panic!("perfrec: failed to launch {}: {e}", path.display()));
    let wall = started.elapsed().as_secs_f64();
    assert!(
        out.status.success(),
        "perfrec: {bin} exited with {:?}\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    wall
}

/// Whether every `.json` file in `a` exists byte-identical in `b` (and
/// vice versa) — the serial-vs-parallel determinism check.
fn dirs_identical(a: &Path, b: &Path) -> bool {
    let mut names: Vec<String> = std::fs::read_dir(a)
        .expect("scratch dir listing")
        .filter_map(|e| e.ok())
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .collect();
    names.sort();
    if names.is_empty() {
        return false;
    }
    names.iter().all(|name| {
        let (fa, fb) = (std::fs::read(a.join(name)), std::fs::read(b.join(name)));
        matches!((fa, fb), (Ok(da), Ok(db)) if da == db)
    })
}

/// Non-blank lines of every `.rs` file under `dir`, recursively.
fn count_loc(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .filter_map(|e| e.ok())
        .map(|e| {
            let path = e.path();
            if path.is_dir() {
                count_loc(&path)
            } else if path.extension().is_some_and(|x| x == "rs") {
                let text = std::fs::read_to_string(&path).unwrap_or_default();
                text.lines().filter(|l| !l.trim().is_empty()).count() as u64
            } else {
                0
            }
        })
        .sum()
}

/// Lines of code per crate: non-blank lines of `<crates>/<crate>/src`.
fn loc_per_crate(crates: &Path) -> BTreeMap<String, u64> {
    let entries = std::fs::read_dir(crates)
        .unwrap_or_else(|e| panic!("perfrec: listing {}: {e}", crates.display()));
    entries
        .filter_map(|e| e.ok())
        .filter(|e| e.path().join("src").is_dir())
        .map(|e| {
            let name = e.file_name().to_string_lossy().into_owned();
            (name, count_loc(&e.path().join("src")))
        })
        .collect()
}

/// One in-process macro run under the given control-plane layout, reading
/// hit ratio, tenant-observed exec time, and the raft commit counter.
fn coord_side(cfg: OfcConfig, mins: u64) -> CoordSide {
    let stash: Rc<RefCell<Option<Telemetry>>> = Rc::new(RefCell::new(None));
    let sink = Rc::clone(&stash);
    let started = Instant::now();
    let (result, _extras) = run_macro_hooked(
        PlaneKind::Ofc,
        TenantProfile::Normal,
        1,
        Duration::from_secs(60 * mins),
        29,
        cfg,
        NODE_MEM,
        move |tb: &mut Testbed| {
            let ofc = tb.ofc.as_ref().expect("ofc testbed");
            *sink.borrow_mut() = Some(ofc.telemetry().clone());
        },
    );
    let wall_s = started.elapsed().as_secs_f64();
    let telemetry = stash.borrow_mut().take().expect("hook ran");
    CoordSide {
        wall_s,
        hit_ratio_pct: result.table2.hit_ratio_pct,
        total_exec_s: result.per_function_total_s.values().sum(),
        raft_commits: telemetry.metrics().counter(names::RAFT_COMMITS),
    }
}

fn main() {
    let mins = env_u64("OFC_PERFREC_MINS", 5);
    let threads = par::threads();
    let scratch_root = std::env::temp_dir().join(format!("ofc-perfrec-{}", std::process::id()));

    println!("perfrec — BENCH record ({mins} min window, {threads} workers)\n");

    // Raw-speed headline first: serial macro24 at the full default window.
    let full_dir = scratch_root.join("macro24-full-serial");
    let macro24_serial_full_s = {
        std::fs::create_dir_all(&full_dir).expect("scratch dir");
        let path = bin_dir().join("macro24");
        let started = Instant::now();
        let out = Command::new(&path)
            .env("OFC_BENCH_THREADS", "1")
            .env("OFC_RESULTS_DIR", &full_dir)
            .output()
            .unwrap_or_else(|e| panic!("perfrec: failed to launch {}: {e}", path.display()));
        assert!(
            out.status.success(),
            "perfrec: macro24 (full window) exited with {:?}\n{}",
            out.status,
            String::from_utf8_lossy(&out.stderr)
        );
        started.elapsed().as_secs_f64()
    };
    let raw_speed = RawSpeedRecord {
        macro24_serial_full_s,
        macro24_serial_before_s: MACRO24_PRE_INTERN_SERIAL_S,
        speedup: MACRO24_PRE_INTERN_SERIAL_S / macro24_serial_full_s.max(1e-9),
    };
    println!(
        "  raw speed: macro24 serial (full 30 min window) {macro24_serial_full_s:.2}s \
         (pre-interning {MACRO24_PRE_INTERN_SERIAL_S}s, {:.2}x)\n",
        raw_speed.speedup
    );

    let mut bins = Vec::new();
    let mut par_runs = 0u64;
    for &(bin, sims) in PAR_BINS {
        let serial_dir = scratch_root.join(format!("{bin}-serial"));
        let parallel_dir = scratch_root.join(format!("{bin}-parallel"));
        let serial_s = run_bin(bin, 1, mins, &serial_dir);
        let parallel_s = run_bin(bin, threads, mins, &parallel_dir);
        let json_identical = dirs_identical(&serial_dir, &parallel_dir);
        let speedup = serial_s / parallel_s.max(1e-9);
        // `threads <= 1` takes the runner's serial in-line path, so a
        // 1-core box honestly reports serial-fallback for every bin —
        // its "parallel" pass re-times the same serial loop and any
        // delta is noise (the record-9 macro24 0.93x row was exactly
        // that: both passes serial on one core).
        let mode = if threads <= 1 || (sims as usize) < par::min_par_sims() {
            "serial-fallback"
        } else {
            "parallel"
        };
        println!(
            "  {bin:10} serial {serial_s:6.2}s   parallel {parallel_s:6.2}s   speedup {speedup:4.2}x   json {}   [{mode}]",
            if json_identical { "identical" } else { "DIVERGED" }
        );
        par_runs += sims;
        bins.push(BinTiming {
            bin: bin.into(),
            sims,
            serial_s,
            parallel_s,
            speedup,
            json_identical,
            mode,
        });
    }
    std::fs::remove_dir_all(&scratch_root).ok();

    println!("\n  policy bake-off ({mins} min window, in-process):");
    let mut policies = Vec::new();
    for (kind, name) in [
        (PolicyKind::Ofc, "ofc"),
        (PolicyKind::Faast, "faast"),
        (PolicyKind::InfiniCache, "infinicache"),
    ] {
        let started = Instant::now();
        let result = run_macro_full(
            PlaneKind::Ofc,
            TenantProfile::Normal,
            1,
            Duration::from_secs(60 * mins),
            17,
            OfcConfig {
                policy: kind,
                ..OfcConfig::default()
            },
            NODE_MEM,
        );
        let wall_s = started.elapsed().as_secs_f64();
        println!(
            "    {name:12} wall {wall_s:5.2}s   hit {:5.1}%",
            result.table2.hit_ratio_pct
        );
        policies.push(PolicyTiming {
            policy: name.into(),
            wall_s,
            hit_ratio_pct: result.table2.hit_ratio_pct,
        });
    }

    println!("\n  policy bake-off on the mega mix (in-process):");
    let mut mega_policies = Vec::new();
    for (kind, name) in [
        (PolicyKind::Ofc, "ofc"),
        (PolicyKind::Faast, "faast"),
        (PolicyKind::InfiniCache, "infinicache"),
    ] {
        let mut opts = MegaOpts::new(format!("mix-{name}"), MegaConfig::mix());
        opts.ofc.policy = kind;
        let started = Instant::now();
        let r = run_mega(opts);
        let wall_s = started.elapsed().as_secs_f64();
        let tail = tail_hit_pct(&r);
        println!(
            "    {name:12} wall {wall_s:5.2}s   hit {:5.1}%   tail hit {tail:5.1}%   failed {}",
            r.hit_ratio_pct, r.failed
        );
        mega_policies.push(MegaPolicyTiming {
            policy: name.into(),
            wall_s,
            hit_ratio_pct: r.hit_ratio_pct,
            tail_hit_pct: tail,
            failed: r.failed,
        });
    }

    println!("\n  control-plane A/B ({mins} min window, fault-free, in-process):");
    let single = coord_side(OfcConfig::default(), mins);
    let replicated = coord_side(
        OfcConfig {
            coordinator_replicas: 3,
            gossip: true,
            ..OfcConfig::default()
        },
        mins,
    );
    println!(
        "    single      wall {:5.2}s   hit {:5.1}%   exec {:7.1}s",
        single.wall_s, single.hit_ratio_pct, single.total_exec_s
    );
    println!(
        "    3 replicas  wall {:5.2}s   hit {:5.1}%   exec {:7.1}s   {} commits",
        replicated.wall_s,
        replicated.hit_ratio_pct,
        replicated.total_exec_s,
        replicated.raft_commits
    );
    let exec_overhead_pct = if single.total_exec_s > 0.0 {
        100.0 * (replicated.total_exec_s / single.total_exec_s - 1.0)
    } else {
        0.0
    };
    println!("    consensus exec overhead: {exec_overhead_pct:+.2}%");

    println!("\n  mega failover drill (smoke window, in-process):");
    let mega_side = |label: &str, replicated: bool| {
        let mut opts = MegaOpts::new(label, MegaConfig::smoke());
        if replicated {
            opts.ofc.coordinator_replicas = 3;
            opts.ofc.gossip = true;
            opts.crash_drill = true;
        }
        let started = Instant::now();
        let r = run_mega(opts);
        MegaCoordSide {
            wall_s: started.elapsed().as_secs_f64(),
            events: r.events,
            hit_ratio_pct: r.hit_ratio_pct,
            failed: r.failed,
            raft_commits: r.raft_commits,
            raft_elections: r.raft_elections,
            degraded_bypasses: r.degraded_bypasses,
        }
    };
    let mega_single = mega_side("mega-single", false);
    let mega_replicated = mega_side("mega-replicated-crash", true);
    println!(
        "    single            wall {:5.2}s   hit {:5.1}%   failed {}",
        mega_single.wall_s, mega_single.hit_ratio_pct, mega_single.failed
    );
    println!(
        "    3 replicas+crash  wall {:5.2}s   hit {:5.1}%   failed {}   {} commits   {} elections   {} bypasses",
        mega_replicated.wall_s,
        mega_replicated.hit_ratio_pct,
        mega_replicated.failed,
        mega_replicated.raft_commits,
        mega_replicated.raft_elections,
        mega_replicated.degraded_bypasses
    );
    let mega_wall_overhead_pct = if mega_single.wall_s > 0.0 {
        100.0 * (mega_replicated.wall_s / mega_single.wall_s - 1.0)
    } else {
        0.0
    };
    println!("    control-plane wall overhead at mega scale: {mega_wall_overhead_pct:+.2}%");
    let mega_failover = MegaFailoverRecord {
        single: mega_single,
        replicated_crash: mega_replicated,
        wall_overhead_pct: mega_wall_overhead_pct,
    };

    let mega = if std::env::var("OFC_PERFREC_MEGA").map(|v| v == "0") == Ok(true) {
        println!("\n  mega headline: skipped (OFC_PERFREC_MEGA=0)");
        None
    } else {
        println!("\n  mega headline: timing the full-scale run serially (minutes)...");
        let started = Instant::now();
        let r = run_mega(MegaOpts::headline());
        let wall_s = started.elapsed().as_secs_f64();
        let events_per_sec = r.events as f64 / wall_s.max(1e-9);
        println!(
            "    {} tenants   {} functions   {} events   wall {wall_s:.1}s   {:.0} events/s   hit {:.1}%",
            r.tenants, r.functions, r.events, events_per_sec, r.hit_ratio_pct
        );
        Some(MegaScaleRecord {
            tenants: r.tenants,
            functions: r.functions,
            arrivals: r.arrivals,
            failed: r.failed,
            events: r.events,
            wall_s,
            events_per_sec,
            hit_ratio_pct: r.hit_ratio_pct,
            tail_hit_pct: tail_hit_pct(&r),
            usage_fairness_bps: r.usage_fairness_bps,
        })
    };

    let crates = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the bench crate sits under crates/");
    let loc = loc_per_crate(crates);
    println!("\n  lines of code (non-blank, src/ only):");
    for (name, lines) in &loc {
        println!("    {name:10} {lines:6}");
    }
    println!("    {:10} {:6}", "total", loc.values().sum::<u64>());

    // The parallel pass's sim count, surfaced on the registered counter so
    // the record and the telemetry plane agree on the name.
    let telemetry = Telemetry::standalone();
    telemetry.counter(names::BENCH_PAR_RUNS).add(par_runs);
    let par_runs = telemetry.metrics().counter(names::BENCH_PAR_RUNS);

    let record = BenchRecord {
        record: 12,
        window_mins: mins,
        threads,
        min_par_sims: par::min_par_sims(),
        raw_speed,
        bins,
        policies,
        mega_policies,
        coordinator: FailoverRecord {
            single,
            replicated,
            exec_overhead_pct,
        },
        mega_failover,
        mega,
        loc,
        par_runs,
    };
    let path = std::env::var("OFC_BENCH_RECORD").unwrap_or_else(|_| "BENCH_12.json".into());
    let json = serde_json::to_string_pretty(&record).expect("serializable record");
    std::fs::write(&path, json).unwrap_or_else(|e| panic!("writing {path}: {e}"));
    println!("\n[saved {path}]");

    // CI regression guard — three claims:
    //  1. determinism: serial and parallel macro24 JSON stay identical;
    //  2. raw speed: the full-window serial macro24 run stays ahead of the
    //     13 s pre-interning baseline by at least the requested factor;
    //  3. fan-out: any bin that actually took the parallel path must not
    //     run slower than serial. Cost-ordered claiming keeps the widest
    //     sims off the tail of the schedule; the gate only reads bins
    //     with real fan-out (threads > 1 — see the `mode` computation)
    //     whose serial pass is long enough to measure. Sub-second bins
    //     flip a few percent either way on timer jitter and thread
    //     spawn/join, which is not a claim about claiming order.
    // The floor moved off the fan-out speedup in the interning PR: with the
    // serial run under 4 s, thread fan-out at the smoke window nets ~1x and
    // no longer measures anything durable — the raw-speed ratio does.
    const GATE_MIN_SERIAL_S: f64 = 1.0;
    if let Ok(min) = std::env::var("OFC_PERFREC_MIN_SPEEDUP") {
        let min: f64 = min.parse().expect("OFC_PERFREC_MIN_SPEEDUP is a number");
        let m24 = record
            .bins
            .iter()
            .find(|b| b.bin == "macro24")
            .expect("macro24 timed");
        if !m24.json_identical {
            eprintln!("PERF GUARD: macro24 serial and parallel JSON diverged");
            std::process::exit(1);
        }
        for b in &record.bins {
            if b.mode == "parallel" && b.serial_s >= GATE_MIN_SERIAL_S && b.speedup < 1.0 {
                eprintln!(
                    "PERF GUARD: {} took the parallel path but ran {:.2}x vs serial \
                     (below 1.0x) — fan-out must never cost wall time",
                    b.bin, b.speedup
                );
                std::process::exit(1);
            }
        }
        if record.raw_speed.speedup < min {
            eprintln!(
                "PERF GUARD: raw-speed speedup {:.2}x (serial full-window macro24 \
                 {:.2}s vs {:.0}s pre-interning) below the {min:.2}x floor",
                record.raw_speed.speedup,
                record.raw_speed.macro24_serial_full_s,
                record.raw_speed.macro24_serial_before_s,
            );
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn loc_counts_non_blank_rust_lines_per_crate() {
        let root = std::env::temp_dir().join(format!("ofc-perfrec-loc-{}", std::process::id()));
        let src = root.join("alpha/src/nested");
        std::fs::create_dir_all(&src).unwrap();
        std::fs::create_dir_all(root.join("no_src")).unwrap();
        std::fs::write(
            root.join("alpha/src/lib.rs"),
            "fn a() {}\n\n   \nfn b() {}\n",
        )
        .unwrap();
        std::fs::write(src.join("m.rs"), "// one\n").unwrap();
        std::fs::write(src.join("notes.md"), "not rust\n").unwrap();
        let loc = loc_per_crate(&root);
        std::fs::remove_dir_all(&root).ok();
        assert_eq!(loc.len(), 1, "only directories with a src/ are crates");
        assert_eq!(loc["alpha"], 3);
    }
}
