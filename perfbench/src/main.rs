//! One benchmark run in one process: `perfbench --workload <name> --seed
//! <n> [--traced] [--spans <file>]`.
//!
//! Prints one JSON object on stdout with the run's host times, simulated
//! outcome, digest, correctness checks and, when traced, per-layer times
//! and counts. Exits 2 when a correctness check fails. `run.py` drives
//! this binary, one process per run, and derives the reported metrics.

use perfbench::trace::{Kind, Tracer};
use perfbench::{clock, run, Run, Workload};
use std::fmt::Write as _;

struct Args {
    workload: Workload,
    seed: u64,
    traced: bool,
    spans: Option<std::path::PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut traced, mut spans) = (None, None, false, None);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workload =
                    Some(Workload::parse(&v).ok_or_else(|| format!("unknown workload {v}"))?);
            }
            "--seed" => {
                seed = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--spans" => spans = Some(value()?.into()),
            "--traced" => traced = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        traced,
        spans,
    })
}

/// Appends `"key":value` pairs to a JSON object body.
struct Obj(String);

impl Obj {
    fn num(&mut self, key: &str, v: f64) -> &mut Self {
        let v = if v.is_finite() { v } else { 0.0 };
        let sep = if self.0.is_empty() { "" } else { "," };
        let _ = write!(self.0, "{sep}\"{key}\":{v}");
        self
    }

    fn raw(&mut self, key: &str, v: &str) -> &mut Self {
        let sep = if self.0.is_empty() { "" } else { "," };
        let _ = write!(self.0, "{sep}\"{key}\":{v}");
        self
    }

    fn done(&self) -> String {
        format!("{{{}}}", self.0)
    }
}

/// Per-layer times and counts of a traced run.
fn layers(r: &Run, t: &Tracer) -> String {
    let mut o = Obj(String::new());
    let secs = |k: Kind| t.totals(k).nanos as f64 / 1e9;
    let calls = |k: Kind| t.totals(k).calls as f64;
    let c = |name: &str| r.counter(name) as f64;

    o.num("workloads.install_s", r.setup.install_s)
        .num("workloads.arrivals", r.arrivals as f64)
        .num("core.ml.register_calls", r.setup.register_calls as f64)
        .num("core.ml.register_s", r.setup.register_s)
        .num("core.ml.pretrain_s", r.setup.pretrain_s)
        .num("core.platform_build_s", r.setup.platform_s);

    // simtime: per-slice cost inside the window.
    let slices: Vec<(u64, u64)> = r
        .marks
        .windows(2)
        .map(|w| (w[1].host_ns - w[0].host_ns, w[1].events - w[0].events))
        .collect();
    let per_event = |s: &[(u64, u64)]| {
        let (ns, ev) = s
            .iter()
            .fold((0u64, 0u64), |(a, b), &(n, e)| (a + n, b + e));
        if ev == 0 {
            0.0
        } else {
            ns as f64 / 1e3 / ev as f64
        }
    };
    let q = slices.len() / 4;
    let growth = if q == 0 {
        0.0
    } else {
        let first = per_event(&slices[..q]);
        if first == 0.0 {
            0.0
        } else {
            per_event(&slices[slices.len() - q..]) / first
        }
    };
    o.num("simtime.events", r.events as f64)
        .num("simtime.pump_s", r.pump_s)
        .num(
            "simtime.us_per_event",
            r.pump_s * 1e6 / r.events.max(1) as f64,
        )
        .num("simtime.us_per_event_growth", growth);

    let live: Vec<u64> = r.marks.iter().map(|m| m.sandboxes).collect();
    let live_mean = if live.is_empty() {
        0.0
    } else {
        live.iter().sum::<u64>() as f64 / live.len() as f64
    };
    for name in [
        "faas.cold_starts",
        "faas.warm_starts",
        "faas.resizes",
        "faas.oom_kills",
        "faas.retries",
        "faas.unschedulable",
    ] {
        o.num(name, c(name));
    }
    o.num("faas.failed_invocations", r.fold.failed as f64)
        .num("faas.sandboxes_live_mean", live_mean)
        .num(
            "faas.sandboxes_live_max",
            live.iter().copied().max().unwrap_or(0) as f64,
        );

    o.num("core.scheduler.route_calls", calls(Kind::Route))
        .num("core.scheduler.route_s", secs(Kind::Route))
        .num("core.scheduler.warm_candidates", t.warm_candidates() as f64)
        .num("sched.predicted_sizes", c("sched.predicted_sizes"))
        .num("sched.booked_fallbacks", c("sched.booked_fallbacks"));

    o.num("core.monitor.complete_calls", calls(Kind::Complete))
        .num("core.monitor.complete_s", secs(Kind::Complete))
        .num("core.monitor.pressure_calls", calls(Kind::Pressure))
        .num("core.monitor.pressure_s", secs(Kind::Pressure));
    for name in [
        "ml.retrains",
        "ml.bad_predictions",
        "monitor.raises",
        "monitor.kills",
    ] {
        o.num(name, c(name));
    }

    o.num("core.agent.reserve_calls", calls(Kind::Reserve))
        .num("core.agent.reserve_refused", t.reserve_refused() as f64)
        .num("core.agent.release_calls", calls(Kind::Release))
        .num(
            "core.agent.broker_s",
            secs(Kind::Reserve) + secs(Kind::Release),
        );
    for name in [
        "agent.scale_downs_migration",
        "agent.scale_downs_eviction",
        "agent.periodic_evictions",
        "agent.evict_scan_visited",
        "plane.local_hits",
        "plane.remote_hits",
        "plane.misses",
        "plane.fills",
        "plane.bypasses",
        "plane.persists",
        "plane.quota_evictions",
        "plane.quota_bypasses",
        "plane.degraded_bypasses",
    ] {
        o.num(name, c(name));
    }

    o.num("rcstore.master_of_calls", calls(Kind::MasterOf))
        .num("rcstore.master_of_s", secs(Kind::MasterOf))
        .num("rcstore.crash_node_s", secs(Kind::CrashNode))
        .num("rcstore.restart_node_s", secs(Kind::RestartNode));
    for name in [
        "rcstore.writes",
        "rcstore.evictions",
        "rcstore.promotions",
        "raft.commits",
        "gossip.rounds",
        "rcstore.objects_end",
        "objstore.gets",
        "objstore.puts",
        "objstore.shadow_puts",
        "objstore.bytes_read",
        "objstore.bytes_written",
    ] {
        o.num(name, c(name));
    }

    o.num("telemetry.records", r.fold.records as f64)
        .num("telemetry.drain_s", secs(Kind::Drain))
        .num("telemetry.snapshot_s", r.snapshot_s);

    // Pump time no timed seam covers.
    let children: f64 = [
        Kind::Route,
        Kind::Complete,
        Kind::Pressure,
        Kind::Reserve,
        Kind::Release,
        Kind::MasterOf,
        Kind::CrashNode,
        Kind::RestartNode,
        Kind::Drain,
    ]
    .into_iter()
    .map(secs)
    .sum();
    let self_s = (r.pump_s - children).max(0.0);
    o.num("pump.self_s", self_s)
        .num("pump.self_pct", 100.0 * self_s / r.pump_s)
        .num("trace.spans", t.span_count() as f64);
    o.done()
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(64);
        }
    };
    let window = args.workload.window();
    let tracer = args.traced.then(Tracer::default);
    let calib_before = clock::calibrate();
    let started = clock::now_ns();
    let r = run(args.workload, args.seed, window, tracer.as_ref());
    let host_s = clock::secs(started, clock::now_ns());
    let calib_s = 0.5 * (calib_before + clock::calibrate());
    let checks = r.checks();

    let mut o = Obj(String::new());
    o.raw("workload", &format!("\"{}\"", r.workload.name()))
        .num("seed", r.seed as f64)
        .raw("traced", if args.traced { "true" } else { "false" })
        .raw("digest", &format!("\"{:016x}\"", r.digest()))
        .num("setup_s", r.setup.total_s)
        .num("pump_s", r.pump_s)
        .num("invocations_per_s", r.invocations_per_s())
        .num("arrivals", r.arrivals as f64)
        .num("completed", r.fold.completed as f64)
        .num("failed", r.fold.failed as f64)
        .num("hits", r.fold.hits as f64)
        .num("misses", r.fold.misses as f64)
        .num("hit_ratio_pct", r.hit_ratio_pct())
        .num("latency_p50_ms", r.latency_ms(0.50))
        .num("latency_p99_ms", r.latency_ms(0.99))
        .num("latency_samples", r.fold.latencies_ns.len() as f64)
        .num("events", r.events as f64)
        .raw("slices_s", &format!("{:?}", r.slices_s))
        .num("host_s", host_s)
        .num("calib_s", calib_s)
        .raw(
            "checks",
            &format!(
                "{{\"conservation\":{},\"read_accounting\":{},\"durability\":{}}}",
                checks.conservation, checks.read_accounting, checks.durability
            ),
        );
    if let Some(t) = &tracer {
        o.raw("layers", &layers(&r, t));
        if let Some(path) = &args.spans {
            if let Err(e) = t.write_tsv(path) {
                eprintln!("perfbench: writing spans to {}: {e}", path.display());
                std::process::exit(1);
            }
        }
    }
    println!("{}", o.done());
    if !checks.all() {
        eprintln!("perfbench: correctness check failed: {checks:?}");
        std::process::exit(2);
    }
}
