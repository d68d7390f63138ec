//! Host wall clock for the benchmark's timers.
//!
//! The simulation itself runs on the `ofc-simtime` virtual clock and the
//! workspace lint bans wall-clock types outside the harness crates. The
//! benchmark measures host time on purpose, from outside the simulation,
//! and reads the wall clock only here.

use std::sync::OnceLock;

// ofc-lint: allow(determinism) reason=benchmark host timer, never read by the simulation
static EPOCH: OnceLock<std::time::Instant> = OnceLock::new();

/// Monotonic host nanoseconds since the first call in this process.
pub fn now_ns() -> u64 {
    // ofc-lint: allow(determinism) reason=benchmark host timer, never read by the simulation
    let epoch = *EPOCH.get_or_init(std::time::Instant::now);
    u64::try_from(epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Seconds between two [`now_ns`] readings.
pub fn secs(from_ns: u64, to_ns: u64) -> f64 {
    to_ns.saturating_sub(from_ns) as f64 / 1e9
}

/// Host seconds a fixed reference computation takes right now: B-tree
/// churn over boxed values with a working set of a few MB, the same kind
/// of pointer-chasing, allocating work the simulator does. It never
/// touches the program, so its time moves only with the machine.
pub fn calibrate() -> f64 {
    use std::collections::BTreeMap;
    let start = now_ns();
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut next = || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let mut map: BTreeMap<u64, Box<[u64; 4]>> = BTreeMap::new();
    let mut acc = 0u64;
    for round in 0..2u64 {
        for _ in 0..200_000 {
            let k = next() % 400_000;
            map.insert(k, Box::new([k, round, 0, 0]));
        }
        for _ in 0..300_000 {
            let k = next() % 400_000;
            if let Some(v) = map.get(&k) {
                acc = acc.wrapping_add(v[0]);
            }
        }
        let keys: Vec<u64> = map.keys().step_by(3).copied().collect();
        for k in keys {
            map.remove(&k);
        }
    }
    std::hint::black_box(acc);
    secs(start, now_ns())
}
