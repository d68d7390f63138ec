//! Golden-figure regression suite: re-runs the cheap figure binaries at
//! their fixed seeds and byte-compares the JSON they emit against the
//! committed `results/*.json`. Any unintended change to the deterministic
//! simulation — placement, latency model, RNG streams, serialization —
//! shows up as a diff here before it silently skews every figure.
//!
//! Regenerate the goldens after an *intended* change with:
//!
//! ```text
//! cargo build --release
//! OFC_GOLDEN_BLESS=1 cargo test --test golden
//! ```
//!
//! The harness drives the pre-built release binaries (`cargo build
//! --release` first); a missing binary skips its case with a note rather
//! than failing, so `cargo test` stays usable without a release build.

use std::path::PathBuf;
use std::process::Command;

/// The cheap, deterministic figures worth re-running on every test pass.
/// Each entry is the binary name; it writes `results/<name>.json` at the
/// bin's default window. `ablation`, `table2` and `fig10` guard the
/// macro driver's `run_macro_full`/`testbed_full` call sites at full
/// window (about a second each in release).
const GOLDEN_FIGURES: &[&str] = &[
    "fig2",
    "fig5",
    "cache_benefit",
    "maturation",
    "ablation",
    "table2",
    "fig10",
];

fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

fn blessing() -> bool {
    std::env::var("OFC_GOLDEN_BLESS")
        .map(|v| v == "1")
        .unwrap_or(false)
}

/// Runs one figure binary into a scratch results dir (with extra env
/// vars) and returns the `<out_name>.json` it produced, or `None` (with a
/// note) when the binary is not built.
fn regenerate_with(bin_name: &str, out_name: &str, envs: &[(&str, &str)]) -> Option<Vec<u8>> {
    let root = repo_root();
    let bin = root.join("target/release").join(bin_name);
    if !bin.exists() {
        eprintln!("golden: skipping {bin_name} — build it with `cargo build --release`");
        return None;
    }
    // Unique per call: the serial and parallel variants of one figure run
    // concurrently and would otherwise race on a shared scratch dir.
    static SCRATCH_SEQ: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let seq = SCRATCH_SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    let scratch = std::env::temp_dir().join(format!(
        "ofc-golden-{}-{seq}-{out_name}",
        std::process::id()
    ));
    std::fs::create_dir_all(&scratch).expect("scratch dir");
    let mut cmd = Command::new(&bin);
    cmd.env("OFC_RESULTS_DIR", &scratch);
    // Goldens are taken at each bin's default window; a shortened window
    // left in the caller's environment must not leak in.
    cmd.env_remove("OFC_MACRO_MINS");
    for (k, v) in envs {
        cmd.env(k, v);
    }
    let status = cmd
        .output()
        .unwrap_or_else(|e| panic!("golden: {bin_name} failed to launch: {e}"));
    assert!(
        status.status.success(),
        "golden: {bin_name} exited with {:?}\n{}",
        status.status,
        String::from_utf8_lossy(&status.stderr)
    );
    let out = scratch.join(format!("{out_name}.json"));
    let bytes = std::fs::read(&out)
        .unwrap_or_else(|e| panic!("golden: {bin_name} wrote no {}: {e}", out.display()));
    std::fs::remove_dir_all(&scratch).ok();
    Some(bytes)
}

fn regenerate(name: &str) -> Option<Vec<u8>> {
    regenerate_with(name, name, &[])
}

fn committed_path(name: &str) -> PathBuf {
    repo_root().join("results").join(format!("{name}.json"))
}

/// First diverging line of two JSON blobs, for a readable failure.
fn first_diff(a: &[u8], b: &[u8]) -> String {
    let (a, b) = (String::from_utf8_lossy(a), String::from_utf8_lossy(b));
    for (i, (la, lb)) in a.lines().zip(b.lines()).enumerate() {
        if la != lb {
            return format!("line {}: committed {la:?} vs regenerated {lb:?}", i + 1);
        }
    }
    format!(
        "line counts differ: committed {} vs regenerated {}",
        a.lines().count(),
        b.lines().count()
    )
}

fn check(name: &str) {
    let Some(fresh) = regenerate(name) else {
        return;
    };
    check_bytes(name, fresh, true);
}

fn check_bytes(name: &str, fresh: Vec<u8>, bless_allowed: bool) {
    let golden = committed_path(name);
    if blessing() && !bless_allowed {
        // Another case owns this golden file; skip to avoid racing its
        // bless write under the parallel test harness.
        return;
    }
    if blessing() {
        std::fs::write(&golden, &fresh).expect("bless golden");
        eprintln!("golden: blessed {}", golden.display());
        return;
    }
    let committed = std::fs::read(&golden).unwrap_or_else(|e| {
        panic!(
            "golden: missing {} ({e}); run with OFC_GOLDEN_BLESS=1",
            golden.display()
        )
    });
    assert!(
        committed == fresh,
        "golden: {name} drifted from results/{name}.json — {}\n\
         If the change is intended, regenerate with OFC_GOLDEN_BLESS=1.",
        first_diff(&committed, &fresh)
    );
    // A corrupt or truncated golden should fail loudly, not silently
    // byte-match forever.
    let text = String::from_utf8(fresh).expect("figure JSON is UTF-8");
    let trimmed = text.trim();
    assert!(
        trimmed.starts_with(['{', '[']) && trimmed.ends_with(['}', ']']),
        "golden: {name} output is not a JSON document"
    );
}

#[test]
fn fig2_matches_golden() {
    check("fig2");
}

#[test]
fn fig5_matches_golden() {
    check("fig5");
}

#[test]
fn cache_benefit_matches_golden() {
    check("cache_benefit");
}

#[test]
fn maturation_matches_golden() {
    check("maturation");
}

#[test]
fn ablation_matches_golden() {
    check("ablation");
}

#[test]
fn table2_matches_golden() {
    check("table2");
}

#[test]
fn fig10_matches_golden() {
    check("fig10");
}

/// Shortened deterministic macro24 (2-minute window), run serially.
/// Guards the indexed eviction sweep: any behavioral drift from the old
/// full-scan janitor shows up as a diff against the committed smoke
/// golden.
#[test]
fn macro24_smoke_serial_matches_golden() {
    let Some(fresh) = regenerate_with(
        "macro24",
        "macro24_smoke",
        &[("OFC_MACRO_SMOKE", "1"), ("OFC_BENCH_THREADS", "1")],
    ) else {
        return;
    };
    check_bytes("macro24_smoke", fresh, true);
}

/// The same smoke run fanned out over four workers must be byte-identical
/// to the serial golden: the parallel replay runner collects results in
/// submission order, so thread count can never change figure JSON.
#[test]
fn macro24_smoke_parallel_matches_serial_golden() {
    let Some(fresh) = regenerate_with(
        "macro24",
        "macro24_smoke",
        &[
            ("OFC_MACRO_SMOKE", "1"),
            ("OFC_BENCH_THREADS", "4"),
            // Defeat the small-bin serial fallback: this variant exists
            // to drive the parallel runner.
            ("OFC_BENCH_MIN_PAR_SIMS", "1"),
        ],
    ) else {
        return;
    };
    check_bytes("macro24_smoke", fresh, false);
}

/// Shortened deterministic fig9 (2-minute window), run serially: the
/// default-policy byte-identity probe for the policy-plane refactor
/// (DESIGN.md §15).
#[test]
fn fig9_smoke_serial_matches_golden() {
    let Some(fresh) = regenerate_with(
        "fig9",
        "fig9_smoke",
        &[("OFC_MACRO_SMOKE", "1"), ("OFC_BENCH_THREADS", "1")],
    ) else {
        return;
    };
    check_bytes("fig9_smoke", fresh, true);
}

#[test]
fn fig9_smoke_parallel_matches_serial_golden() {
    let Some(fresh) = regenerate_with(
        "fig9",
        "fig9_smoke",
        &[
            ("OFC_MACRO_SMOKE", "1"),
            ("OFC_BENCH_THREADS", "4"),
            // Defeat the small-bin serial fallback: this variant exists
            // to drive the parallel runner.
            ("OFC_BENCH_MIN_PAR_SIMS", "1"),
        ],
    ) else {
        return;
    };
    check_bytes("fig9_smoke", fresh, false);
}

/// Shortened three-policy bake-off (2-minute window), run serially. Any
/// drift in OFC, Faa$T, or InfiniCache policy behavior — admission,
/// eviction, prefetch, cold-tier parking, or the rent model — lands here.
#[test]
fn bakeoff_smoke_serial_matches_golden() {
    let Some(fresh) = regenerate_with(
        "bakeoff",
        "bakeoff_smoke",
        &[("OFC_MACRO_SMOKE", "1"), ("OFC_BENCH_THREADS", "1")],
    ) else {
        return;
    };
    check_bytes("bakeoff_smoke", fresh, true);
}

#[test]
fn bakeoff_smoke_parallel_matches_serial_golden() {
    let Some(fresh) = regenerate_with(
        "bakeoff",
        "bakeoff_smoke",
        &[
            ("OFC_MACRO_SMOKE", "1"),
            ("OFC_BENCH_THREADS", "4"),
            // Defeat the small-bin serial fallback: this variant exists
            // to drive the parallel runner.
            ("OFC_BENCH_MIN_PAR_SIMS", "1"),
        ],
    ) else {
        return;
    };
    check_bytes("bakeoff_smoke", fresh, false);
}

/// Bounded mega-scale window (DESIGN.md §18): all six million-user
/// variants — headline, noisy neighbor and occupancy attack with and
/// without quotas, and the replicated-coordinator crash drill — at CI
/// size, run serially. Any drift in the mega generator, the quota
/// plane, or the per-decile accounting lands here.
#[test]
fn mega_smoke_serial_matches_golden() {
    let Some(fresh) = regenerate_with(
        "macro_mega",
        "macro_mega_smoke",
        &[("OFC_MEGA_SMOKE", "1"), ("OFC_BENCH_THREADS", "1")],
    ) else {
        return;
    };
    check_bytes("macro_mega_smoke", fresh, true);
}

/// The same six sims fanned out over four workers with cost-ordered
/// claiming must be byte-identical to the serial golden.
#[test]
fn mega_smoke_parallel_matches_serial_golden() {
    let Some(fresh) = regenerate_with(
        "macro_mega",
        "macro_mega_smoke",
        &[
            ("OFC_MEGA_SMOKE", "1"),
            ("OFC_BENCH_THREADS", "4"),
            // Defeat the small-bin serial fallback: this variant exists
            // to drive the parallel runner.
            ("OFC_BENCH_MIN_PAR_SIMS", "1"),
        ],
    ) else {
        return;
    };
    check_bytes("macro_mega_smoke", fresh, false);
}

/// Shortened control-plane failover drill (5-minute window, Raft
/// coordinator + gossip membership under crash/partition faults), run
/// serially. Any drift in consensus, membership, degraded-mode writes,
/// or the durability ledger lands here.
#[test]
fn failover_smoke_serial_matches_golden() {
    let Some(fresh) = regenerate_with(
        "chaos",
        "failover_smoke",
        &[
            ("OFC_MACRO_SMOKE", "1"),
            ("OFC_CHAOS_FAILOVER", "1"),
            ("OFC_BENCH_THREADS", "1"),
        ],
    ) else {
        return;
    };
    check_bytes("failover_smoke", fresh, true);
}

/// The drill's baseline and chaos sims fan out over the parallel runner;
/// thread count must never change the report bytes.
#[test]
fn failover_smoke_parallel_matches_serial_golden() {
    let Some(fresh) = regenerate_with(
        "chaos",
        "failover_smoke",
        &[
            ("OFC_MACRO_SMOKE", "1"),
            ("OFC_CHAOS_FAILOVER", "1"),
            ("OFC_BENCH_THREADS", "4"),
            // Defeat the small-bin serial fallback: this variant exists
            // to drive the parallel runner.
            ("OFC_BENCH_MIN_PAR_SIMS", "1"),
        ],
    ) else {
        return;
    };
    check_bytes("failover_smoke", fresh, false);
}

#[test]
fn golden_set_is_complete() {
    // Every golden this suite guards exists in results/ (after a bless).
    if blessing() {
        return;
    }
    for name in GOLDEN_FIGURES.iter().chain(&[
        "macro24_smoke",
        "fig9_smoke",
        "bakeoff_smoke",
        "bakeoff",
        "failover_smoke",
        "macro_mega_smoke",
        "macro_mega",
    ]) {
        assert!(
            committed_path(name).exists(),
            "results/{name}.json missing — run OFC_GOLDEN_BLESS=1 cargo test --test golden"
        );
    }
}
