//! Ablation study of the design choices DESIGN.md §6 calls out:
//!
//! 1. next-greater-interval safety margin (on/off),
//! 2. migration-by-promotion vs plain eviction during reclamation,
//! 3. the cache-benefit gate (on/off),
//! 4. locality-aware routing (on/off),
//! 5. write-back shadows vs write-through vs lazy persistence.
//!
//! Every variant is an independent simulation; all eleven fan out through
//! [`ofc_bench::par`] and report in a fixed order.
//!
//! Set `OFC_MACRO_MINS` to shorten the macro-based ablations (default 10).

use ofc_bench::cachex::{pin, run_macro_full, stage_input, Scenario};
use ofc_bench::par;
use ofc_bench::report;
use ofc_bench::scenario::{register_single, testbed_full, PlaneKind, NODE_MEM, WORKER_NODES};
use ofc_core::cache::WritePolicy;
use ofc_core::ofc::OfcConfig;
use ofc_workloads::catalog::gen_image_with_bytes;
use ofc_workloads::faasload::TenantProfile;
use rand::SeedableRng;
use serde::Serialize;
use std::time::Duration;

#[derive(Serialize)]
struct AblationOut {
    margin: Vec<(String, u64, u64, u64)>,
    reclamation: Vec<(String, f64, u64, u64)>,
    benefit_gate: Vec<(String, f64, u64)>,
    locality: Vec<(String, u64, u64)>,
    write_policy: Vec<(String, f64)>,
}

/// One ablation variant's result — the jobs are heterogeneous, so the
/// runner carries a tagged row and `main` demuxes by tag.
enum Row {
    Margin(String, u64, u64, u64),
    Reclamation(String, u64, u64, u64),
    Gate(String, f64, f64),
    Locality(String, u64, u64),
    Write(String, f64),
}

/// Objects staged by the reclamation ablation.
const RECLAIM_OBJECTS: u64 = 64;

fn macro_mins() -> u64 {
    std::env::var("OFC_MACRO_MINS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(10)
}

/// 1. Safety margin: without the next-greater interval, raw
///    underpredictions hit the OOM killer instead of being absorbed.
fn margin_case(label: &str, margin: u64, dur: Duration) -> Row {
    let mut cfg = OfcConfig::default();
    cfg.ml.safety_margin_intervals = margin;
    let r = run_macro_full(
        PlaneKind::Ofc,
        TenantProfile::Normal,
        1,
        dur,
        31,
        cfg,
        NODE_MEM,
    );
    Row::Margin(
        label.into(),
        r.table2.bad_predictions,
        r.table2.good_predictions,
        r.table2.failed_invocations,
    )
}

/// 2. Reclamation: migration keeps hot objects cached (reads still hit
///    after the cache shrinks); pure eviction loses them.
fn reclamation_case(label: &str, hot_threshold: u64) -> Row {
    use ofc_faas::MemoryBroker;
    let mut cfg = OfcConfig::default();
    cfg.agent.hot_access_threshold = hot_threshold;
    let tb = testbed_full(PlaneKind::Ofc, WORKER_NODES, NODE_MEM, 32, cfg);
    let ofc = tb.ofc.as_ref().expect("ofc");
    let mut sim = ofc_simtime::Sim::new(32);
    // Fill node 0 with hot 8 MB objects, then shrink its pool hard.
    let n_objects = RECLAIM_OBJECTS;
    {
        let mut cluster = ofc.cluster.borrow_mut();
        for i in 0..n_objects {
            let key = ofc_rcstore::Key::from(format!("hot{i}"));
            cluster
                .write_with_dirty(
                    0,
                    &key,
                    ofc_rcstore::Value::synthetic(8 << 20),
                    ofc_simtime::SimTime::ZERO,
                    false,
                )
                .result
                .expect("fits");
            for _ in 0..6 {
                cluster
                    .read(0, &key, ofc_simtime::SimTime::ZERO)
                    .result
                    .ok();
            }
        }
    }
    let total = 16u64 << 30;
    let mut broker = ofc.agent.clone();
    broker
        .reserve(&mut sim, 0, 0, total - (300 << 20), total)
        .expect("reserve succeeds");
    let mut survivors = 0u64;
    {
        let mut cluster = ofc.cluster.borrow_mut();
        for i in 0..n_objects {
            let key = ofc_rcstore::Key::from(format!("hot{i}"));
            if cluster
                .read(0, &key, ofc_simtime::SimTime::ZERO)
                .result
                .is_ok()
            {
                survivors += 1;
            }
        }
    }
    let m = ofc.metrics();
    Row::Reclamation(
        label.into(),
        survivors,
        m.counter("agent.scale_downs_migration"),
        m.counter("agent.scale_downs_eviction"),
    )
}

/// 3. Benefit gate: caching everything wastes agent work on compute-bound
///    invocations without improving their latency.
fn gate_case(label: &str, disable: bool, dur: Duration) -> Row {
    let cfg = OfcConfig {
        disable_benefit_gate: disable,
        ..OfcConfig::default()
    };
    let r = run_macro_full(
        PlaneKind::Ofc,
        TenantProfile::Normal,
        1,
        dur,
        33,
        cfg,
        NODE_MEM,
    );
    let total: f64 = r.per_function_total_s.values().sum();
    Row::Gate(label.into(), total, r.table2.hit_ratio_pct)
}

/// 4. Locality routing: a second function reading the same cached input is
///    routed to the master's node only when locality routing is on.
fn locality_case(label: &str, disable: bool) -> Row {
    let cfg = OfcConfig {
        disable_locality_routing: disable,
        ..OfcConfig::default()
    };
    let mut tb = testbed_full(PlaneKind::Ofc, WORKER_NODES, NODE_MEM, 34, cfg);
    let tenant = ofc_faas::TenantId::from("abl");
    for name in ["wand_edge", "wand_sepia", "wand_rotate", "wand_crop"] {
        let p = ofc_workloads::multimedia::profile(name).expect("known");
        register_single(&tb, &tenant, p, 512 << 20);
    }
    // Seed the cache: the input's master lands on node 0.
    // ofc-lint: allow(rng) reason=fixed experiment id for the ablation grid, pinned so rows replay bit-for-bit
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(34);
    let meta = gen_image_with_bytes(64 << 10, &mut rng);
    let input = stage_input(&mut tb, Scenario::LocalHit, meta, "shared");
    // Four different functions (distinct home nodes) read it cold.
    for (i, name) in ["wand_edge", "wand_sepia", "wand_rotate", "wand_crop"]
        .into_iter()
        .enumerate()
    {
        let p = ofc_workloads::multimedia::profile(name).expect("known");
        let mut args = ofc_faas::Args::new();
        args.insert("input".into(), ofc_faas::ArgValue::Obj(input.id));
        if let Some(spec) = p.arg {
            args.insert(
                spec.name.into(),
                ofc_faas::ArgValue::Num((spec.lo + spec.hi) / 2.0),
            );
        }
        let platform = tb.platform.clone();
        tb.sim
            .schedule_at(ofc_simtime::SimTime::from_secs(i as u64 * 10), move |sim| {
                platform.submit(
                    sim,
                    ofc_faas::InvocationRequest {
                        function: ofc_faas::FunctionId::from(name),
                        tenant,
                        args,
                        seed: i as u64,
                        pipeline: None,
                    },
                );
            });
    }
    tb.sim.run_until(ofc_simtime::SimTime::from_secs(300));
    let m = tb.ofc.as_ref().expect("ofc").metrics();
    Row::Locality(
        label.into(),
        m.counter("plane.local_hits"),
        m.counter("plane.remote_hits"),
    )
}

/// 5. Write policy: L-phase latency of a cached final output.
fn write_policy_case(label: &str, policy: WritePolicy) -> Row {
    let mut cfg = OfcConfig::default();
    cfg.plane.write_policy = policy;
    let mut tb = testbed_full(PlaneKind::Ofc, WORKER_NODES, NODE_MEM, 35, cfg);
    let tenant = ofc_faas::TenantId::from("abl");
    let p = ofc_workloads::multimedia::profile("wand_edge").expect("known");
    register_single(&tb, &tenant, p, 512 << 20);
    pin(&tb, 512 << 20);
    // ofc-lint: allow(rng) reason=fixed experiment id for the ablation grid, pinned so rows replay bit-for-bit
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(35);
    let meta = gen_image_with_bytes(64 << 10, &mut rng);
    let input = stage_input(&mut tb, Scenario::LocalHit, meta, "in");
    let mut args = ofc_faas::Args::new();
    args.insert("input".into(), ofc_faas::ArgValue::Obj(input.id));
    args.insert("radius".into(), ofc_faas::ArgValue::Num(3.0));
    tb.platform.submit(
        &mut tb.sim,
        ofc_faas::InvocationRequest {
            function: ofc_faas::FunctionId::from("wand_edge"),
            tenant,
            args,
            seed: 1,
            pipeline: None,
        },
    );
    tb.sim.run_until(ofc_simtime::SimTime::from_secs(60));
    let recs = tb.platform.drain_records();
    Row::Write(label.into(), recs[0].l_time.as_secs_f64() * 1e3)
}

fn main() {
    let dur = Duration::from_secs(60 * macro_mins());
    let jobs: Vec<Box<dyn FnOnce() -> Row + Send>> = vec![
        Box::new(move || margin_case("with margin", 1, dur)),
        Box::new(move || margin_case("no margin", 0, dur)),
        Box::new(|| reclamation_case("migrate hot", 5)),
        Box::new(|| reclamation_case("evict all", u64::MAX)),
        Box::new(move || gate_case("gated", false, dur)),
        Box::new(move || gate_case("cache all", true, dur)),
        Box::new(|| locality_case("locality", false)),
        Box::new(|| locality_case("hash only", true)),
        Box::new(|| write_policy_case("write-back shadow", WritePolicy::WriteBackShadow)),
        Box::new(|| write_policy_case("write-through", WritePolicy::WriteThrough)),
        Box::new(|| write_policy_case("lazy", WritePolicy::Lazy)),
    ];
    let mut out = AblationOut {
        margin: vec![],
        reclamation: vec![],
        benefit_gate: vec![],
        locality: vec![],
        write_policy: vec![],
    };
    let mut reclamation_print = Vec::new();
    let mut gate_print = Vec::new();
    for row in par::run_jobs(jobs) {
        match row {
            Row::Margin(l, bad, good, failed) => out.margin.push((l, bad, good, failed)),
            Row::Reclamation(l, survivors, mig, ev) => {
                out.reclamation.push((
                    l.clone(),
                    survivors as f64 / RECLAIM_OBJECTS as f64,
                    mig,
                    ev,
                ));
                reclamation_print.push((l, survivors, mig, ev));
            }
            Row::Gate(l, total, hit_pct) => {
                out.benefit_gate.push((l.clone(), total, hit_pct as u64));
                gate_print.push((l, total, hit_pct));
            }
            Row::Locality(l, local, remote) => out.locality.push((l, local, remote)),
            Row::Write(l, ms) => out.write_policy.push((l, ms)),
        }
    }

    println!("== 1. next-greater-interval safety margin ==");
    for (label, bad, good, failed) in &out.margin {
        println!("  {label:12} bad predictions {bad:4}  good {good:5}  failed {failed}");
    }
    println!("\n== 2. migration-by-promotion vs eviction-only reclamation ==");
    for (label, survivors, migrations, evictions) in &reclamation_print {
        println!(
            "  {label:12} surviving hot objects {survivors:2}/{RECLAIM_OBJECTS}  migrations {migrations:3}  evictions {evictions:3}"
        );
    }
    println!("\n== 3. cache-benefit gate ==");
    for (label, total, hit_pct) in &gate_print {
        println!("  {label:12} total exec {total:7.1}s  hit ratio {hit_pct:5.1}%");
    }
    println!("\n== 4. locality-aware routing ==");
    for (label, local_hits, remote_hits) in &out.locality {
        println!("  {label:12} local hits {local_hits:3}  remote hits {remote_hits:3}");
    }
    println!("\n== 5. write policy (wand_edge @64 kB, local hit) ==");
    for (label, l_ms) in &out.write_policy {
        println!("  {label:18} L-phase {l_ms:7.2} ms");
    }

    report::save_json("ablation", &out);
}
