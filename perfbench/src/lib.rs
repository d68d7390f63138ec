//! End-to-end and per-layer benchmark of the OFC reproduction.
//!
//! Four workloads run through the repository's public API, each as one
//! open-loop simulation in one process:
//!
//! * `mega_hour` — the `macro_mega` headline configuration (1,200 tenants
//!   × 96 functions on 24 workers), where thousands of live sandboxes make
//!   the platform's routing scan the dominant cost;
//! * `paper_day` — the paper's §7.2.2 macro mix (24 tenants on 4 workers,
//!   pretrained models, pipelines), driven by `cachex::run_macro_hooked`;
//! * `mega_attack` — the `attack-quota` occupancy attack: a working set far
//!   larger than a pinned 4 MB pool, so writes, quota evictions and
//!   bypasses dominate the cache plane;
//! * `mega_failover` — the replicated control plane (3 coordinators,
//!   gossip) with a worker crashed mid-window and restarted a minute later.
//!
//! [`run`] executes one workload once and returns a [`Run`]: host times of
//! setup and pump, the simulated outcome (arrivals, completions, failures,
//! cache reads, exact latency percentiles, a digest of every invocation
//! record) and, for traced runs, the per-layer times and counts gathered
//! by the [`trace`] decorators. The mega drivers mirror
//! `megarun::run_mega` step for step with timers between the steps; the
//! equivalence tests hold them to it.

pub mod clock;
pub mod trace;

use ofc_bench::cachex;
use ofc_bench::megarun::{mega_feature_fn, MegaOpts};
use ofc_bench::scenario::{self, PlaneKind, WORKER_NODES};
use ofc_core::ofc::{Ofc, OfcConfig};
use ofc_core::scheduler::FeatureFn;
use ofc_faas::platform::{Platform, PlatformHandle};
use ofc_faas::registry::Registry;
use ofc_faas::{Completion, InvocationRecord, PlatformConfig, Served};
use ofc_objstore::latency::LatencyModel;
use ofc_objstore::store::ObjectStore;
use ofc_rcstore::cluster::Cluster;
use ofc_simtime::{Sim, SimTime};
use ofc_telemetry::{MetricsSnapshot, Telemetry};
use ofc_workloads::catalog::Catalog;
use ofc_workloads::faasload::{FaasLoad, FaasLoadConfig, TenantProfile};
use ofc_workloads::mega::{self, MegaConfig, MegaLoad};
use std::cell::RefCell;
use std::rc::Rc;
use std::time::Duration;
use trace::{Kind, Tracer};

/// Simulated time every run keeps going after its window closes, so
/// in-flight invocations and write-backs finish (as in the repository's
/// macro drivers).
pub const DRAIN_TAIL: Duration = Duration::from_secs(600);

/// Period of the record-drain tick; also the length of one pump slice.
pub const SLICE: Duration = Duration::from_secs(60);

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The `macro_mega` headline configuration.
    MegaHour,
    /// The paper's §7.2.2 macro mix.
    PaperDay,
    /// The `attack-quota` occupancy attack.
    MegaAttack,
    /// The replicated control plane with a worker crash drill.
    MegaFailover,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 4] = [
        Workload::MegaHour,
        Workload::PaperDay,
        Workload::MegaAttack,
        Workload::MegaFailover,
    ];

    /// Command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::MegaHour => "mega_hour",
            Workload::PaperDay => "paper_day",
            Workload::MegaAttack => "mega_attack",
            Workload::MegaFailover => "mega_failover",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Simulated observation window of a benchmark run (the drain tail
    /// comes on top).
    pub fn window(self) -> Duration {
        let mins = match self {
            Workload::MegaHour => 20,
            Workload::PaperDay => 24 * 60,
            Workload::MegaAttack => 30,
            Workload::MegaFailover => 30,
        };
        Duration::from_secs(60 * mins)
    }

    /// The repository options of a mega workload, with the benchmark's
    /// seed and window. `None` for `paper_day`, which is not a mega run.
    pub fn mega_opts(self, seed: u64, window: Duration) -> Option<MegaOpts> {
        let quota_cfg = |quota: u64, pool: Option<u64>| {
            let mut cfg = OfcConfig::default();
            cfg.plane.tenant_quota_bytes = Some(quota);
            cfg.cache_pool_override = pool;
            cfg.agent.pool_cap = pool;
            cfg
        };
        let mut opts = match self {
            Workload::PaperDay => return None,
            Workload::MegaHour => MegaOpts::headline(),
            // `macro_mega`'s full-scale contention scale with the
            // occupancy-attack churn, quotas on.
            Workload::MegaAttack => {
                let mut o = MegaOpts::new(
                    "attack-quota",
                    MegaConfig {
                        tenants: 200,
                        fns_per_tenant: 12,
                        zipf_s: 2.5,
                        max_mean: Duration::from_secs(60),
                        output_slots: 256,
                        burst_prob: 0.3,
                        burst_len: 16,
                        ..MegaConfig::default()
                    },
                );
                o.ofc = quota_cfg(128 << 10, Some(4 << 20));
                o.nodes = 4;
                o
            }
            // `macro_mega`'s full-scale failover drill.
            Workload::MegaFailover => {
                let mut o = MegaOpts::new(
                    "failover",
                    MegaConfig {
                        tenants: 300,
                        fns_per_tenant: 24,
                        ..MegaConfig::default()
                    },
                );
                o.ofc = OfcConfig {
                    coordinator_replicas: 3,
                    gossip: true,
                    ..quota_cfg(64 << 20, None)
                };
                o.crash_drill = true;
                o.nodes = 12;
                o
            }
        };
        opts.mega.seed = seed;
        opts.mega.duration = window;
        Some(opts)
    }
}

/// FNV-1a, folded over every invocation record and the end-state counters.
#[derive(Debug, Clone, Copy)]
struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    fn u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }
}

/// Streaming fold of drained invocation records, counted as
/// `megarun::run_mega` counts them.
#[derive(Debug, Default)]
pub struct Fold {
    /// Records drained (retried attempts included).
    pub records: u64,
    /// Invocations completing successfully.
    pub completed: u64,
    /// Invocations permanently failed: unschedulable, or OOM-killed on
    /// the final retry.
    pub failed: u64,
    /// Record reads served from the cache (local + remote).
    pub hits: u64,
    /// Record reads that missed the cache.
    pub misses: u64,
    /// `InvocationRecord::total()` of every completed invocation (ns),
    /// sorted once the run ends.
    pub latencies_ns: Vec<u64>,
    digest: Digest,
}

impl Fold {
    fn fold(&mut self, records: Vec<InvocationRecord>, max_retries: u32) {
        for r in records {
            self.records += 1;
            let d = &mut self.digest;
            d.u64(r.id);
            d.u64(r.node as u64);
            d.u64(r.arrival.as_nanos());
            d.u64(r.end.as_nanos());
            d.u64(u64::from(r.attempt));
            d.u64(r.mem_limit);
            match r.completion {
                Completion::Success => {
                    d.u64(1);
                    self.completed += 1;
                    self.latencies_ns
                        .push(u64::try_from(r.total().as_nanos()).unwrap_or(u64::MAX));
                }
                Completion::Unschedulable => {
                    d.u64(2);
                    self.failed += 1;
                }
                Completion::OomKilled => {
                    d.u64(3);
                    if r.attempt >= max_retries {
                        self.failed += 1;
                    }
                }
            }
            for s in &r.reads_served {
                match s {
                    Served::LocalHit | Served::RemoteHit => self.hits += 1,
                    Served::Miss => self.misses += 1,
                    Served::Direct => {}
                }
                d.u64(*s as u64);
            }
        }
    }
}

/// Exact nearest-rank percentile of sorted values.
pub fn percentile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// One pump slice boundary, sampled by the drain tick of a traced run.
#[derive(Debug, Clone, Copy)]
pub struct Mark {
    /// Host time of the tick.
    pub host_ns: u64,
    /// Simulator events executed so far.
    pub events: u64,
    /// Live sandboxes across all workers.
    pub sandboxes: u64,
}

/// Host times and counts of a run's setup steps.
#[derive(Debug, Clone, Copy, Default)]
pub struct Setup {
    /// Start of the workload to its first simulated event.
    pub total_s: f64,
    /// Platform build, `Ofc::build` and `Ofc::start`.
    pub platform_s: f64,
    /// Workload install (inputs, function registry, first arrivals).
    pub install_s: f64,
    /// The `Ofc::register_function` loop.
    pub register_s: f64,
    /// `Ofc::register_function` calls.
    pub register_calls: u64,
    /// Model pretraining.
    pub pretrain_s: f64,
}

/// Everything one run measured.
pub struct Run {
    /// The workload.
    pub workload: Workload,
    /// Its seed.
    pub seed: u64,
    /// Setup host times.
    pub setup: Setup,
    /// Host seconds of the pump: first event to the end of the drain
    /// tail, final record drain included.
    pub pump_s: f64,
    /// Host seconds of each pump slice (between drain ticks), in order;
    /// they sum to `pump_s`.
    pub slices_s: Vec<f64>,
    /// Host seconds of the end-of-run metrics snapshot.
    pub snapshot_s: f64,
    /// Invocations submitted by the workload (first attempts).
    pub arrivals: u64,
    /// The record fold.
    pub fold: Fold,
    /// Simulator events, the benchmark's own ticks excluded.
    pub events: u64,
    /// Slice boundaries inside the window (traced runs only).
    pub marks: Vec<Mark>,
    /// Counters read through the public APIs at the end of the run.
    pub counters: Vec<(&'static str, u64)>,
    digest: Digest,
}

/// The outcome of a correctness check.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Checks {
    /// `completed + failed == arrivals` after the drain tail.
    pub conservation: bool,
    /// The records' hits and misses equal the cache plane's counters.
    pub read_accounting: bool,
    /// No write-back pending or dead-lettered at the end.
    pub durability: bool,
}

impl Checks {
    /// Whether every check holds.
    pub fn all(self) -> bool {
        self.conservation && self.read_accounting && self.durability
    }
}

impl Run {
    /// Named end-state counter.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0, |&(_, v)| v)
    }

    /// Digest of the simulated outcome: every invocation record in
    /// completion order, the arrival count, the event count and every
    /// end-state counter. Equal digests mean the same simulation.
    pub fn digest(&self) -> u64 {
        let mut d = self.digest;
        d.u64(self.arrivals);
        d.u64(self.events);
        for &(_, v) in &self.counters {
            d.u64(v);
        }
        d.0
    }

    /// The benchmark's correctness checks.
    pub fn checks(&self) -> Checks {
        let f = &self.fold;
        Checks {
            conservation: f.completed + f.failed == self.arrivals,
            read_accounting: f.hits
                == self.counter("plane.local_hits") + self.counter("plane.remote_hits")
                && f.misses == self.counter("plane.misses"),
            durability: self.counter("persist.pending") == 0
                && self.counter("persist.dead_letters_end") == 0,
        }
    }

    /// Completed invocations per host second of the pump.
    pub fn invocations_per_s(&self) -> f64 {
        self.fold.completed as f64 / self.pump_s
    }

    /// Hits over hits + misses of record reads (%).
    pub fn hit_ratio_pct(&self) -> f64 {
        let reads = self.fold.hits + self.fold.misses;
        if reads == 0 {
            0.0
        } else {
            100.0 * self.fold.hits as f64 / reads as f64
        }
    }

    /// Exact latency percentile of completed invocations (ms, simulated).
    pub fn latency_ms(&self, q: f64) -> f64 {
        percentile(&self.fold.latencies_ns, q) as f64 / 1e6
    }
}

/// Shared state of the drain tick.
struct Tick {
    platform: PlatformHandle,
    fold: RefCell<Fold>,
    max_retries: u32,
    tracer: Option<Tracer>,
    marks: RefCell<Vec<Mark>>,
    window_end: SimTime,
    nodes: usize,
    /// Host time of every tick.
    ticks: RefCell<Vec<u64>>,
}

impl Tick {
    fn new(platform: &PlatformHandle, window_end: SimTime, tracer: Option<&Tracer>) -> Rc<Tick> {
        let cfg = platform.config();
        Rc::new(Tick {
            platform: platform.clone(),
            fold: RefCell::new(Fold::default()),
            max_retries: cfg.max_retries,
            tracer: tracer.cloned(),
            marks: RefCell::new(Vec::new()),
            window_end,
            nodes: cfg.nodes,
            ticks: RefCell::new(Vec::new()),
        })
    }

    /// Drains and folds the records finished so far; in a traced run also
    /// closes the current pump slice.
    fn drain(&self, sim: &Sim) {
        let start = clock::now_ns();
        self.ticks.borrow_mut().push(start);
        let records = self.platform.drain_records();
        self.fold.borrow_mut().fold(records, self.max_retries);
        let Some(t) = &self.tracer else { return };
        t.record(Kind::Drain, start, clock::now_ns(), None);
        let prev = self.marks.borrow().last().map(|m| m.host_ns);
        if let Some(prev) = prev {
            t.next_slice(prev, start);
        }
        if sim.now() <= self.window_end {
            let sandboxes = (0..self.nodes)
                .map(|n| self.platform.sandbox_count(n) as u64)
                .sum();
            self.marks.borrow_mut().push(Mark {
                host_ns: start,
                events: sim.events_executed(),
                sandboxes,
            });
        }
    }

    /// The last drain, at the end of the drain tail (not a slice
    /// boundary).
    fn drain_final(&self) {
        let start = clock::now_ns();
        let records = self.platform.drain_records();
        self.fold.borrow_mut().fold(records, self.max_retries);
        if let Some(t) = &self.tracer {
            t.record(Kind::Drain, start, clock::now_ns(), None);
        }
    }
}

fn start_tick(sim: &mut Sim, tick: Rc<Tick>) {
    sim.schedule_in(SLICE, move |sim| {
        tick.drain(sim);
        start_tick(sim, tick);
    });
}

/// Handles a run keeps for its end-of-run reads.
struct Handles {
    platform: PlatformHandle,
    store: Rc<RefCell<ObjectStore>>,
    telemetry: Telemetry,
    cluster: Rc<RefCell<Cluster>>,
    persistence: Rc<RefCell<ofc_core::cache::Persistence>>,
}

impl Handles {
    fn of(platform: &PlatformHandle, store: &Rc<RefCell<ObjectStore>>, ofc: &Ofc) -> Handles {
        Handles {
            platform: platform.clone(),
            store: Rc::clone(store),
            telemetry: ofc.telemetry().clone(),
            cluster: Rc::clone(&ofc.cluster),
            persistence: Rc::clone(&ofc.persistence),
        }
    }

    /// Reads every end-state counter the report and the checks use.
    fn counters(&self, m: &MetricsSnapshot) -> Vec<(&'static str, u64)> {
        let p = self.platform.counters();
        let s = self.store.borrow().counters();
        let (objects, used) = {
            let c = self.cluster.borrow();
            (c.len() as u64, c.used_bytes())
        };
        let persist = self.persistence.borrow();
        let mut out = vec![
            ("faas.submitted", p.submitted),
            ("faas.completed", p.completed),
            ("faas.cold_starts", p.cold_starts),
            ("faas.warm_starts", p.warm_starts),
            ("faas.resizes", p.resizes),
            ("faas.oom_kills", p.oom_kills),
            ("faas.retries", p.retries),
            ("faas.unschedulable", p.unschedulable),
            ("objstore.gets", s.gets),
            ("objstore.puts", s.puts),
            ("objstore.shadow_puts", s.shadow_puts),
            ("objstore.bytes_read", s.bytes_read),
            ("objstore.bytes_written", s.bytes_written),
            ("rcstore.objects_end", objects),
            ("rcstore.used_bytes_end", used),
            ("persist.pending", persist.pending_count() as u64),
            (
                "persist.dead_letters_end",
                persist.dead_letter_count() as u64,
            ),
        ];
        for name in TELEMETRY_COUNTERS {
            out.push((name, m.counter(name)));
        }
        out
    }
}

/// Counters read from `Ofc::metrics` at the end of every run.
pub const TELEMETRY_COUNTERS: [&str; 24] = [
    "sched.predicted_sizes",
    "sched.booked_fallbacks",
    "ml.retrains",
    "ml.bad_predictions",
    "monitor.raises",
    "monitor.kills",
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
    "rcstore.writes",
    "rcstore.evictions",
    "rcstore.promotions",
    "raft.commits",
    "gossip.rounds",
];

/// Runs `workload` once over `window` with `seed`; traced when `tracer`
/// is given.
pub fn run(workload: Workload, seed: u64, window: Duration, tracer: Option<&Tracer>) -> Run {
    match workload.mega_opts(seed, window) {
        Some(opts) => run_mega(workload, opts, tracer),
        None => run_paper_day(seed, window, tracer),
    }
}

/// Finishes a run after its pump: slice times, metrics snapshot, counters.
fn finish(
    workload: Workload,
    seed: u64,
    setup: Setup,
    pump_ns: (u64, u64),
    tick: &Tick,
    h: &Handles,
    events: u64,
) -> Run {
    let (pump_start, pump_end) = pump_ns;
    let mut edges = vec![pump_start];
    edges.extend(
        tick.ticks
            .borrow()
            .iter()
            .copied()
            .filter(|&t| t < pump_end),
    );
    edges.push(pump_end);
    let slices_s = edges.windows(2).map(|w| clock::secs(w[0], w[1])).collect();
    let snap_start = clock::now_ns();
    let m = h.telemetry.metrics();
    let snapshot_s = clock::secs(snap_start, clock::now_ns());
    let counters = h.counters(&m);
    let mut fold = std::mem::take(&mut *tick.fold.borrow_mut());
    fold.latencies_ns.sort_unstable();
    let digest = fold.digest;
    Run {
        workload,
        seed,
        setup,
        pump_s: clock::secs(pump_start, pump_end),
        slices_s,
        snapshot_s,
        arrivals: h.platform.counters().submitted,
        fold,
        events,
        marks: tick.marks.borrow().clone(),
        counters,
        digest,
    }
}

/// `megarun::run_mega`, step for step, with host timers between the steps
/// and, when traced, the decorated seams installed before the first event.
fn run_mega(workload: Workload, opts: MegaOpts, tracer: Option<&Tracer>) -> Run {
    let MegaOpts {
        mega: mega_cfg,
        ofc: ofc_cfg,
        nodes,
        node_mem,
        crash_drill,
        ..
    } = opts;
    let t0 = clock::now_ns();
    let catalog = Catalog::new();
    let store = Rc::new(RefCell::new(ObjectStore::new(LatencyModel::swift())));
    let platform = Platform::build(
        PlatformConfig {
            nodes,
            node_mem,
            ..PlatformConfig::default()
        },
        Registry::new(),
        Box::new(ofc_faas::baselines::NoopPlane),
    );
    let features: FeatureFn = mega_feature_fn(catalog.clone());
    let ofc = Ofc::builder(&platform)
        .store(Rc::clone(&store))
        .features(Rc::clone(&features))
        .config(ofc_cfg.clone())
        .build();
    let mut sim = Sim::new(mega_cfg.seed);
    ofc.start(&mut sim);
    let t1 = clock::now_ns();

    let load = MegaLoad::new(mega_cfg.clone());
    let _prepared = load.install(&mut sim, &platform, &store, &catalog);
    let t2 = clock::now_ns();

    let schemas: Vec<_> = (0..mega_cfg.fns_per_tenant)
        .map(|k| {
            let p = mega::profile_of_function(&mega::fn_name(k)).expect("mega profile");
            (mega::fn_name(k), p.feature_schema())
        })
        .collect();
    let mut register_calls = 0u64;
    for t in 0..mega_cfg.tenants {
        let tenant = mega::tenant_name(t);
        for (name, schema) in &schemas {
            ofc.register_function(&tenant, name, schema.clone());
            register_calls += 1;
        }
    }
    let t3 = clock::now_ns();

    let window_end = SimTime::ZERO + mega_cfg.duration;
    let tick = Tick::new(&platform, window_end, tracer);
    start_tick(&mut sim, Rc::clone(&tick));

    if crash_drill {
        let mid = mega_cfg.duration / 2;
        let cluster = Rc::clone(&ofc.cluster);
        let t = tracer.cloned();
        sim.schedule_at(SimTime::ZERO + mid, move |sim| {
            let now = sim.now();
            let start = clock::now_ns();
            let mut c = cluster.borrow_mut();
            if c.live_nodes() > 1 {
                let _ = c.crash_node(1, now);
            }
            if let Some(t) = &t {
                t.record(Kind::CrashNode, start, clock::now_ns(), None);
            }
        });
        let cluster = Rc::clone(&ofc.cluster);
        let t = tracer.cloned();
        sim.schedule_at(SimTime::ZERO + mid + Duration::from_secs(60), move |sim| {
            let start = clock::now_ns();
            cluster.borrow_mut().restart_node(1, sim.now());
            if let Some(t) = &t {
                t.record(Kind::RestartNode, start, clock::now_ns(), None);
            }
        });
    }

    if let Some(t) = tracer {
        trace::install(&platform, &ofc, &ofc_cfg, features, t);
    }
    let t4 = clock::now_ns();
    let setup = Setup {
        total_s: clock::secs(t0, t4),
        platform_s: clock::secs(t0, t1),
        install_s: clock::secs(t1, t2),
        register_s: clock::secs(t2, t3),
        register_calls,
        pretrain_s: 0.0,
    };

    sim.run_until(window_end + DRAIN_TAIL);
    tick.drain_final();
    let t5 = clock::now_ns();
    let handles = Handles::of(&platform, &store, &ofc);
    finish(
        workload,
        mega_cfg.seed,
        setup,
        (t4, t5),
        &tick,
        &handles,
        sim.events_executed(),
    )
}

/// What the `paper_day` hook hands back out of the macro driver.
struct Hooked {
    tick: Rc<Tick>,
    handles: Handles,
    setup_end_ns: u64,
}

/// The `paper_day` tenant set: `FaasLoad::paper_macro(Normal)` three
/// times over, as `cachex::run_macro` assembles it for 24 tenants.
const PAPER_COPIES: usize = 3;

/// `cachex::run_macro_hooked` on the §7.2.2 mix. The hook marks the end of
/// setup, starts the drain tick and, when traced, installs the decorated
/// seams; the pump end is taken at the final tick, before the driver's
/// own post-processing.
fn run_paper_day(seed: u64, window: Duration, tracer: Option<&Tracer>) -> Run {
    let phases = tracer.map(|_| paper_setup_phases(seed, window));
    let hooked: Rc<RefCell<Option<Hooked>>> = Rc::default();
    // (host ns, events) at the end of the drain tail.
    let end: Rc<std::cell::Cell<(u64, u64)>> = Rc::default();
    let tail_end = SimTime::ZERO + window + DRAIN_TAIL;
    let t0 = clock::now_ns();
    {
        let hooked = Rc::clone(&hooked);
        let end = Rc::clone(&end);
        cachex::run_macro_hooked(
            PlaneKind::Ofc,
            TenantProfile::Normal,
            PAPER_COPIES,
            window,
            seed,
            OfcConfig::default(),
            64 << 30,
            move |tb| {
                let ofc = tb.ofc.as_ref().expect("OFC testbed");
                let tick = Tick::new(&tb.platform, SimTime::ZERO + window, tracer);
                start_tick(&mut tb.sim, Rc::clone(&tick));
                // The end marker: the macro driver drains the records itself
                // once the pump returns, so the final drain happens here.
                let last = Rc::clone(&tick);
                tb.sim.schedule_at(tail_end, move |sim| {
                    let now = clock::now_ns();
                    let own = last.ticks.borrow().len() as u64 + 1;
                    end.set((now, sim.events_executed().saturating_sub(own)));
                    last.drain_final();
                });
                if let Some(t) = tracer {
                    let features = scenario::feature_fn(tb.catalog.clone());
                    trace::install(&tb.platform, ofc, &OfcConfig::default(), features, t);
                }
                *hooked.borrow_mut() = Some(Hooked {
                    tick,
                    handles: Handles::of(&tb.platform, &tb.store, ofc),
                    setup_end_ns: clock::now_ns(),
                });
            },
        );
    }
    let Hooked {
        tick,
        handles,
        setup_end_ns,
    } = hooked
        .borrow_mut()
        .take()
        .expect("the macro driver runs its hook");
    let total_s = clock::secs(t0, setup_end_ns);
    let setup = match phases {
        Some(p) => Setup {
            total_s,
            pretrain_s: (total_s - p.platform_s - p.install_s - p.register_s).max(0.0),
            ..p
        },
        None => Setup {
            total_s,
            ..Setup::default()
        },
    };
    let (end_ns, events) = end.get();
    finish(
        Workload::PaperDay,
        seed,
        setup,
        (setup_end_ns, end_ns),
        &tick,
        &handles,
        events,
    )
}

/// Times the steps of the `paper_day` setup that have a public seam on a
/// replica testbed: platform and OFC assembly, `FaasLoad::install` and
/// the `Ofc::register_function` loop. Pretraining has none inside the
/// macro driver; the caller charges it the rest of the measured setup.
fn paper_setup_phases(seed: u64, window: Duration) -> Setup {
    let t0 = clock::now_ns();
    let mut tb = scenario::testbed_full(
        PlaneKind::Ofc,
        WORKER_NODES,
        64 << 30,
        seed,
        OfcConfig::default(),
    );
    let t1 = clock::now_ns();
    let base = FaasLoad::paper_macro(TenantProfile::Normal);
    let mut tenants = Vec::new();
    for copy in 0..PAPER_COPIES {
        for spec in base.tenants() {
            let mut spec = spec.clone();
            if copy > 0 {
                spec.name = format!("{}-{copy}", spec.name);
            }
            tenants.push(spec);
        }
    }
    let load = FaasLoad::new(
        FaasLoadConfig {
            duration: window,
            inputs_per_tenant: 12,
            seed,
        },
        tenants,
    );
    let prepared = load.install(&mut tb.sim, &tb.platform, &tb.store, &tb.catalog);
    let t2 = clock::now_ns();
    let ofc = tb.ofc.as_ref().expect("OFC testbed");
    let mut register_calls = 0u64;
    for pt in &prepared {
        match pt.function.as_str() {
            "map_reduce" | "THIS" => {
                for sp in &ofc_workloads::pipelines::STAGE_PROFILES {
                    ofc.register_function(pt.tenant.as_ref(), sp.name, sp.feature_schema());
                    register_calls += 1;
                }
            }
            name => {
                let p = ofc_workloads::multimedia::profile(name).expect("single-stage profile");
                ofc.register_function(pt.tenant.as_ref(), p.name, p.feature_schema());
                register_calls += 1;
            }
        }
    }
    let t3 = clock::now_ns();
    Setup {
        total_s: 0.0,
        platform_s: clock::secs(t0, t1),
        install_s: clock::secs(t1, t2),
        register_s: clock::secs(t2, t3),
        register_calls,
        pretrain_s: 0.0,
    }
}
