//! §7.2.2 24-tenant variant: three tenants per function. The paper reports
//! the hit ratio dropping (to ≥32.3% lower) and latency gains shrinking to
//! 4.5–44.9%, with still no failed invocations.
//!
//! All 14 macro configurations are independent simulations and run through
//! [`ofc_bench::par`]; `OFC_BENCH_THREADS` pins the worker count and the
//! output is byte-identical at any setting.
//!
//! Set `OFC_MACRO_MINS` to shorten the observation window.
//! `OFC_MACRO_SMOKE=1` runs a fixed 2-minute window and saves
//! `macro24_smoke.json` instead — the golden suite's serial-vs-parallel
//! determinism probe.

use ofc_bench::cachex::{run_macro, run_macro_full, MacroResult};
use ofc_bench::par;
use ofc_bench::report;
use ofc_bench::scenario::{PlaneKind, NODE_MEM};
use ofc_core::ofc::OfcConfig;
use ofc_workloads::faasload::TenantProfile;
use serde::Serialize;
use std::time::Duration;

#[derive(Serialize)]
struct Out {
    profile: String,
    hit_ratio_8: f64,
    hit_ratio_24: f64,
    gain_8_pct: f64,
    gain_24_pct: f64,
    failed_24: u64,
}

fn main() {
    let smoke = std::env::var("OFC_MACRO_SMOKE")
        .map(|v| v == "1")
        .unwrap_or(false);
    let mins: u64 = if smoke {
        2
    } else {
        std::env::var("OFC_MACRO_MINS")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(30)
    };
    let dur = Duration::from_secs(60 * mins);
    let profiles = [
        TenantProfile::Normal,
        TenantProfile::Naive,
        TenantProfile::Advanced,
    ];

    // 4 runs per profile plus the 2-run contended variant: 14 independent
    // sims, fanned out together. Cost estimates (tenant count: a 3-tenant
    // sim executes ~3x the invocations) order the claims so the wide sims
    // start first: with the heavy contended sims submitted — and so
    // claimed — last, a multi-core run leaves the bin's wall clock
    // hostage to a 3.5x-cost job landing on an already-busy worker.
    let mut jobs: Vec<(f64, Box<dyn FnOnce() -> MacroResult + Send>)> = Vec::new();
    for profile in profiles {
        for (kind, tenants) in [
            (PlaneKind::Swift, 1),
            (PlaneKind::Ofc, 1),
            (PlaneKind::Swift, 3),
            (PlaneKind::Ofc, 3),
        ] {
            jobs.push((
                tenants as f64,
                Box::new(move || run_macro(kind, profile, tenants, dur, 23)),
            ));
        }
    }
    // Contended variant: the paper's 24-tenant working set (300 GB of
    // ephemeral data) dwarfed its cache; we reproduce the same pressure by
    // capping the cache pool at 6 MB per worker.
    jobs.push((
        3.0,
        Box::new(move || {
            run_macro_full(
                PlaneKind::Swift,
                TenantProfile::Normal,
                3,
                dur,
                29,
                OfcConfig::default(),
                NODE_MEM,
            )
        }),
    ));
    jobs.push((
        3.5,
        Box::new(move || {
            run_macro_full(
                PlaneKind::Ofc,
                TenantProfile::Normal,
                3,
                dur,
                29,
                OfcConfig {
                    cache_pool_override: Some(6 << 20),
                    ..OfcConfig::default()
                },
                NODE_MEM,
            )
        }),
    ));
    let mut results = par::run_jobs_costed(jobs);
    let ofc_c = results.pop().expect("contended OFC run");
    let swift_c = results.pop().expect("contended Swift run");

    let total = |m: &MacroResult| m.per_function_total_s.values().sum::<f64>();
    let mut out = Vec::new();
    for (profile, runs) in profiles.iter().zip(results.chunks_exact(4)) {
        let [swift8, ofc8, swift24, ofc24] = runs else {
            unreachable!("four runs per profile");
        };
        out.push(Out {
            profile: format!("{profile:?}"),
            hit_ratio_8: ofc8.table2.hit_ratio_pct,
            hit_ratio_24: ofc24.table2.hit_ratio_pct,
            gain_8_pct: 100.0 * (1.0 - total(ofc8) / total(swift8)),
            gain_24_pct: 100.0 * (1.0 - total(ofc24) / total(swift24)),
            failed_24: ofc24.table2.failed_invocations,
        });
    }
    println!("24-tenant macro variant ({mins} min window)\n");
    let rows: Vec<Vec<String>> = out
        .iter()
        .map(|o| {
            vec![
                o.profile.clone(),
                format!("{:.1}%", o.hit_ratio_8),
                format!("{:.1}%", o.hit_ratio_24),
                format!("{:.1}%", o.gain_8_pct),
                format!("{:.1}%", o.gain_24_pct),
                o.failed_24.to_string(),
            ]
        })
        .collect();
    println!(
        "{}",
        report::table(
            &[
                "profile",
                "hit@8",
                "hit@24",
                "gain@8",
                "gain@24",
                "failed@24"
            ],
            &rows,
        )
    );
    println!("contended variant (6 MB cache/worker, Normal profile):");
    println!(
        "  hit ratio {:.1}%   gain {:.1}%   failed {}",
        ofc_c.table2.hit_ratio_pct,
        100.0 * (1.0 - total(&ofc_c) / total(&swift_c)),
        ofc_c.table2.failed_invocations,
    );
    println!(
        "\nPaper reference: hit ratio drops by up to 32.3 points with 24 tenants;\n\
         gains fall from 23.9-79.8% to 4.5-44.9%; still zero failed invocations."
    );
    report::save_json(if smoke { "macro24_smoke" } else { "macro24" }, &out);
}
