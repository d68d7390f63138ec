//! Traced runs: decorators around the platform's public seams that time
//! every call into a layer from outside, and the in-memory span log they
//! fill.
//!
//! Each decorator forwards to the component `Ofc::build` would have
//! installed, rebuilt from public parts, so a traced run simulates exactly
//! what an untraced run does; only host time is added.

use crate::clock;
use ofc_core::agent::AgentHandle;
use ofc_core::cache::rc_key;
use ofc_core::monitor::OfcMonitor;
use ofc_core::ofc::{Ofc, OfcConfig};
use ofc_core::scheduler::{FeatureFn, OfcScheduler};
use ofc_faas::platform::PlatformHandle;
use ofc_faas::{
    ExecutionMonitor, InvocationRecord, MemoryBroker, NodeId, PressureAction, RoutingContext,
    RoutingDecision, Scheduler,
};
use ofc_simtime::Sim;
use std::cell::RefCell;
use std::io::Write;
use std::rc::Rc;
use std::time::Duration;

/// What a span measured.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// One simulated slice of the pump (the parent of the seam spans).
    Slice,
    /// `Scheduler::route`.
    Route,
    /// `ExecutionMonitor::on_complete`.
    Complete,
    /// `ExecutionMonitor::on_pressure`.
    Pressure,
    /// `MemoryBroker::reserve`.
    Reserve,
    /// `MemoryBroker::release`.
    Release,
    /// The locality oracle (`Cluster::master_of`).
    MasterOf,
    /// `Cluster::crash_node` in the failover drill.
    CrashNode,
    /// `Cluster::restart_node` in the failover drill.
    RestartNode,
    /// `PlatformHandle::drain_records` plus the benchmark's fold.
    Drain,
}

impl Kind {
    const ALL: [Kind; 10] = [
        Kind::Slice,
        Kind::Route,
        Kind::Complete,
        Kind::Pressure,
        Kind::Reserve,
        Kind::Release,
        Kind::MasterOf,
        Kind::CrashNode,
        Kind::RestartNode,
        Kind::Drain,
    ];

    /// Span name as written to the span log.
    pub fn name(self) -> &'static str {
        match self {
            Kind::Slice => "simtime.slice",
            Kind::Route => "core.scheduler.route",
            Kind::Complete => "core.monitor.on_complete",
            Kind::Pressure => "core.monitor.on_pressure",
            Kind::Reserve => "core.agent.reserve",
            Kind::Release => "core.agent.release",
            Kind::MasterOf => "rcstore.master_of",
            Kind::CrashNode => "rcstore.crash_node",
            Kind::RestartNode => "rcstore.restart_node",
            Kind::Drain => "telemetry.drain",
        }
    }
}

/// One timed call.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// What was measured.
    pub kind: Kind,
    /// Host start (ns since the process epoch).
    pub start_ns: u64,
    /// Host end.
    pub end_ns: u64,
    /// Index of the enclosing pump slice.
    pub slice: u32,
    /// Invocation id, where the seam passes one.
    pub invocation: Option<u64>,
}

/// Per-kind totals, kept alongside the spans.
#[derive(Debug, Clone, Copy, Default)]
pub struct Totals {
    /// Calls made.
    pub calls: u64,
    /// Host nanoseconds inside them.
    pub nanos: u64,
}

#[derive(Default)]
struct Log {
    spans: Vec<Span>,
    totals: [Totals; Kind::ALL.len()],
    slice: u32,
    warm_candidates: u64,
    reserve_refused: u64,
}

/// Shared span log. Cheap to clone; every decorator holds one.
#[derive(Clone, Default)]
pub struct Tracer(Rc<RefCell<Log>>);

impl Tracer {
    /// Records one finished span.
    pub fn record(&self, kind: Kind, start_ns: u64, end_ns: u64, invocation: Option<u64>) {
        let mut log = self.0.borrow_mut();
        let slice = log.slice;
        log.spans.push(Span {
            kind,
            start_ns,
            end_ns,
            slice,
            invocation,
        });
        let t = &mut log.totals[kind as usize];
        t.calls += 1;
        t.nanos += end_ns.saturating_sub(start_ns);
    }

    /// Times `f` as one span of `kind`.
    pub fn time<T>(&self, kind: Kind, invocation: Option<u64>, f: impl FnOnce() -> T) -> T {
        let start = clock::now_ns();
        let out = f();
        self.record(kind, start, clock::now_ns(), invocation);
        out
    }

    /// Closes the current pump slice (spanning `start_ns..end_ns`) and
    /// opens the next.
    pub fn next_slice(&self, start_ns: u64, end_ns: u64) {
        self.record(Kind::Slice, start_ns, end_ns, None);
        self.0.borrow_mut().slice += 1;
    }

    /// Totals of one span kind.
    pub fn totals(&self, kind: Kind) -> Totals {
        self.0.borrow().totals[kind as usize]
    }

    /// Σ warm-sandbox candidates offered to the scheduler.
    pub fn warm_candidates(&self) -> u64 {
        self.0.borrow().warm_candidates
    }

    /// Broker reservations refused.
    pub fn reserve_refused(&self) -> u64 {
        self.0.borrow().reserve_refused
    }

    /// Spans recorded so far.
    pub fn span_count(&self) -> usize {
        self.0.borrow().spans.len()
    }

    /// Writes the span log as tab-separated `name start_ns end_ns
    /// parent_slice invocation` rows.
    pub fn write_tsv(&self, path: &std::path::Path) -> std::io::Result<()> {
        let log = self.0.borrow();
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "name\tstart_ns\tend_ns\tparent_slice\tinvocation")?;
        for s in &log.spans {
            let inv = s
                .invocation
                .map_or_else(|| "-".to_string(), |i| i.to_string());
            writeln!(
                out,
                "{}\t{}\t{}\t{}\t{}",
                s.kind.name(),
                s.start_ns,
                s.end_ns,
                s.slice,
                inv
            )?;
        }
        out.flush()
    }
}

struct TimedScheduler {
    inner: OfcScheduler,
    tracer: Tracer,
}

impl Scheduler for TimedScheduler {
    fn route(&mut self, ctx: &RoutingContext) -> RoutingDecision {
        self.tracer.0.borrow_mut().warm_candidates += ctx.warm.len() as u64;
        let inner = &mut self.inner;
        self.tracer.time(Kind::Route, None, || inner.route(ctx))
    }
}

struct TimedMonitor {
    inner: OfcMonitor,
    tracer: Tracer,
}

impl ExecutionMonitor for TimedMonitor {
    fn on_pressure(
        &mut self,
        sim: &mut Sim,
        record: &InvocationRecord,
        needed: u64,
        elapsed: Duration,
    ) -> PressureAction {
        let inner = &mut self.inner;
        self.tracer.time(Kind::Pressure, Some(record.id), || {
            inner.on_pressure(sim, record, needed, elapsed)
        })
    }

    fn on_complete(&mut self, sim: &mut Sim, record: &InvocationRecord) {
        let inner = &mut self.inner;
        self.tracer.time(Kind::Complete, Some(record.id), || {
            inner.on_complete(sim, record)
        });
    }
}

struct TimedBroker {
    inner: AgentHandle,
    tracer: Tracer,
}

impl MemoryBroker for TimedBroker {
    fn reserve(
        &mut self,
        sim: &mut Sim,
        node: NodeId,
        bytes: u64,
        committed_after: u64,
        total: u64,
    ) -> Option<Duration> {
        let inner = &mut self.inner;
        let out = self.tracer.time(Kind::Reserve, None, || {
            inner.reserve(sim, node, bytes, committed_after, total)
        });
        if out.is_none() {
            self.tracer.0.borrow_mut().reserve_refused += 1;
        }
        out
    }

    fn release(
        &mut self,
        sim: &mut Sim,
        node: NodeId,
        bytes: u64,
        committed_after: u64,
        total: u64,
    ) {
        let inner = &mut self.inner;
        self.tracer.time(Kind::Release, None, || {
            inner.release(sim, node, bytes, committed_after, total)
        });
    }
}

/// Re-installs the scheduler, monitor, broker and locality oracle that
/// `Ofc::build` wired, each rebuilt from public parts and wrapped in a
/// timing decorator. Call after setup, before the first event.
pub fn install(
    platform: &PlatformHandle,
    ofc: &Ofc,
    cfg: &OfcConfig,
    features: FeatureFn,
    tracer: &Tracer,
) {
    let mut scheduler =
        OfcScheduler::with_telemetry(Rc::clone(&ofc.ml), Rc::clone(&features), ofc.telemetry());
    scheduler.benefit_gate = !cfg.disable_benefit_gate;
    scheduler.locality_routing = !cfg.disable_locality_routing;
    scheduler.set_policy(ofc.policy());
    platform.set_scheduler(Box::new(TimedScheduler {
        inner: scheduler,
        tracer: tracer.clone(),
    }));
    platform.set_monitor(Box::new(TimedMonitor {
        inner: OfcMonitor::with_telemetry(
            cfg.monitor.clone(),
            Rc::clone(&ofc.ml),
            features,
            ofc.telemetry(),
        ),
        tracer: tracer.clone(),
    }));
    platform.set_broker(Box::new(TimedBroker {
        inner: ofc.agent.clone(),
        tracer: tracer.clone(),
    }));
    let cluster = Rc::clone(&ofc.cluster);
    let t = tracer.clone();
    platform.set_locality_oracle(Rc::new(move |id| {
        t.time(Kind::MasterOf, None, || {
            cluster.borrow().master_of(&rc_key(id))
        })
    }));
}
