//! Instrumentation-invariance suite: the observability layer must be
//! **provably non-perturbing**. For every mapper, every topology family,
//! and thread counts {1, 4}, a run with recording ON must produce a
//! bit-identical result to the same run with recording OFF — and the
//! counters it emits must be internally consistent and thread-invariant.
//!
//! The recorder is process-global, and Rust's test harness runs tests in
//! parallel threads of one process. An armed session records the probes
//! of *every* thread, not only the thread that armed it. So every test in
//! this binary that arms the recorder **or runs instrumented code** (any
//! mapper, the `par` pool, netsim) holds [`OBS_LOCK`] for its whole body;
//! an unlocked instrumented test bleeds its counters into whichever
//! session happens to be armed at the time.

use proptest::prelude::*;
use std::sync::Mutex;
use topomap::core::obs;
use topomap::netsim::config::RoutingMode;
use topomap::netsim::trace::{stencil_trace, TraceOp};
use topomap::prelude::*;
use topomap::taskgraph::gen;

static OBS_LOCK: Mutex<()> = Mutex::new(());

fn obs_guard() -> std::sync::MutexGuard<'static, ()> {
    OBS_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// Run `f` with the recorder on and hand back its result plus the report.
/// Callers must hold [`OBS_LOCK`].
fn recorded<R>(f: impl FnOnce() -> R) -> (R, obs::Report) {
    obs::start();
    let r = f();
    (r, obs::finish())
}

/// A `Parallelism` that takes the threaded path even on tiny inputs.
fn eager(threads: usize) -> Parallelism {
    Parallelism {
        threads: Threads::Fixed(threads),
        min_work: 1,
    }
}

fn arb_task_graph() -> impl Strategy<Value = TaskGraph> {
    (4usize..=16, 0.5f64..4.0, any::<u64>())
        .prop_map(|(n, deg, seed)| gen::random_graph(n, deg.min(n as f64 - 1.0), 1.0, 1000.0, seed))
}

/// One topology of each family: 2-D torus, hypercube, ring
/// (GraphTopology), and a distance-cached torus (CachedTopology).
fn topology_for(idx: usize, min_nodes: usize) -> Box<dyn Topology> {
    match idx {
        0 => {
            let side = (min_nodes as f64).sqrt().ceil() as usize;
            Box::new(Torus::torus_2d(side, side))
        }
        1 => {
            let dims = (min_nodes as f64).log2().ceil() as u32;
            Box::new(Hypercube::new(dims.max(1)))
        }
        2 => Box::new(GraphTopology::ring(min_nodes)),
        _ => {
            let side = (min_nodes as f64).sqrt().ceil() as usize;
            Box::new(CachedTopology::new(Torus::torus_2d(side, side)))
        }
    }
}

/// One routed topology per family for the ledger-conservation suite (the
/// conservation law needs `RoutedTopology` — real links — not just a
/// distance metric).
fn routed_for(idx: usize, min_nodes: usize) -> Box<dyn RoutedTopology> {
    match idx {
        0 => {
            let side = (min_nodes as f64).sqrt().ceil() as usize;
            Box::new(Torus::torus_2d(side, side))
        }
        1 => {
            let dims = (min_nodes as f64).log2().ceil() as u32;
            Box::new(Hypercube::new(dims.max(1)))
        }
        2 => Box::new(GraphTopology::ring(min_nodes)),
        _ => Box::new(Dragonfly::new(4, min_nodes.div_ceil(4))),
    }
}

/// Analytic hop-bytes of a trace under a mapping: each `Send` crosses
/// exactly `distance(src_proc, dst_proc)` links under minimal routing,
/// charging its full payload on every link of the path.
fn trace_hop_bytes(tr: &Trace, topo: &dyn RoutedTopology, m: &Mapping) -> u64 {
    let mut total = 0u64;
    for (t, prog) in tr.programs.iter().enumerate() {
        for op in prog {
            if let TraceOp::Send { to, bytes } = *op {
                total += bytes * topo.distance(m.proc_of(t), m.proc_of(to)) as u64;
            }
        }
    }
    total
}

const ORDERS: [EstimationOrder; 3] = [
    EstimationOrder::First,
    EstimationOrder::Second,
    EstimationOrder::Third,
];

fn counter(r: &obs::Report, name: &str) -> u64 {
    r.counter(name).unwrap_or(0)
}

/// The TopoLB/estimation counter identities for the incremental kernels:
/// one assign per task; one row event per task-graph edge (an edge fires
/// exactly once, when its first endpoint is placed); every row event is
/// folded in full (and argmin-hit refolds only add), so the full-scan
/// count dominates the row events; and exactly one estimation kernel
/// (general f64 or uniform-integer) is selected per run.
fn check_topolb_counters(r: &obs::Report, g: &TaskGraph, order: EstimationOrder) {
    let n = g.num_tasks() as u64;
    assert_eq!(counter(r, "topolb.placements"), n);
    assert_eq!(counter(r, "estimation.assigns"), n);
    let edges = g.num_edges() as u64;
    assert_eq!(
        counter(r, "estimation.row_events"),
        edges,
        "order {order:?}"
    );
    let full = counter(r, "estimation.fest_full_scan");
    assert!(
        full >= edges,
        "full {full} < edges {edges}, order {order:?}"
    );
    if order == EstimationOrder::Third {
        // Third order refolds the whole frontier every step; the
        // incremental subtraction path never runs.
        assert_eq!(
            counter(r, "estimation.fest_incremental"),
            0,
            "third order always rescans in full"
        );
    }
    let gen_runs = counter(r, "estimation.kernel_general");
    let uni_runs = counter(r, "estimation.kernel_uniform_int");
    assert_eq!(gen_runs + uni_runs, 1, "exactly one kernel per run");
    if order == EstimationOrder::Third {
        assert_eq!(uni_runs, 0, "third order never takes the integer kernel");
    }
    assert_eq!(counter(r, &format!("topolb.order.{}", order.label())), 1);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// TopoLB: recording ON is bit-identical to OFF at 1 and 4 threads,
    /// the estimation counters obey their closed forms, and every
    /// algorithm counter is identical across thread counts.
    #[test]
    fn topolb_recording_is_invisible(
        g in arb_task_graph(),
        topo_idx in 0usize..4,
        order_idx in 0usize..3,
    ) {
        let _l = obs_guard();
        let topo = topology_for(topo_idx, 25);
        let order = ORDERS[order_idx];

        let mut reports = Vec::new();
        for threads in [1usize, 4] {
            let mapper = TopoLb::with_parallelism(order, eager(threads));
            obs::disable();
            let off = mapper.map(&g, topo.as_ref());
            let (on, report) = recorded(|| mapper.map(&g, topo.as_ref()));
            prop_assert_eq!(&off, &on, "ON differs from OFF at {} threads", threads);
            check_topolb_counters(&report, &g, order);
            reports.push(report);
        }
        // Thread-count invariance of the algorithm counters (the par.*
        // and *_ns counters legitimately differ).
        for name in [
            "topolb.placements",
            "estimation.assigns",
            "estimation.row_events",
            "estimation.fest_full_scan",
            "estimation.fest_incremental",
            "estimation.kernel_general",
            "estimation.kernel_uniform_int",
        ] {
            prop_assert_eq!(
                reports[0].counter(name), reports[1].counter(name),
                "counter {} depends on thread count", name
            );
        }
    }

    /// RefineTopoLB: ON == OFF, accepted + rejected == evaluated, the
    /// delta-HB trajectory has one sample per accepted exchange, and the
    /// refine counters are thread-invariant.
    #[test]
    fn refine_recording_is_invisible(
        g in arb_task_graph(),
        topo_idx in 0usize..4,
    ) {
        let _l = obs_guard();
        let topo = topology_for(topo_idx, 25);

        let mut reports = Vec::new();
        for threads in [1usize, 4] {
            let mapper = RefineTopoLb::with_parallelism(
                TopoLb::with_parallelism(EstimationOrder::Second, eager(threads)),
                eager(threads),
            );
            obs::disable();
            let off = mapper.map(&g, topo.as_ref());
            let (on, report) = recorded(|| mapper.map(&g, topo.as_ref()));
            prop_assert_eq!(&off, &on, "ON differs from OFF at {} threads", threads);

            let acc = counter(&report, "refine.swaps_accepted");
            let rej = counter(&report, "refine.swaps_rejected");
            prop_assert_eq!(counter(&report, "refine.candidates_evaluated"), acc + rej);
            let trajectory = report.series("refine.delta_hb").map_or(0, |s| s.count);
            prop_assert_eq!(trajectory, acc, "one delta sample per acceptance");
            // Every accepted exchange strictly improves hop-bytes.
            if let Some(s) = report.series("refine.delta_hb") {
                prop_assert!(s.values.iter().all(|&d| d < 0.0), "{:?}", s.values);
            }
            reports.push(report);
        }
        for name in [
            "refine.candidates_evaluated",
            "refine.swaps_accepted",
            "refine.swaps_rejected",
            "refine.passes",
        ] {
            prop_assert_eq!(
                reports[0].counter(name), reports[1].counter(name),
                "counter {} depends on thread count", name
            );
        }
    }

    /// TopoCentLB: ON == OFF; the heap ledger is ordered
    /// stale <= pops <= pushes and places every task.
    #[test]
    fn topocentlb_recording_is_invisible(
        g in arb_task_graph(),
        topo_idx in 0usize..4,
    ) {
        let _l = obs_guard();
        let topo = topology_for(topo_idx, 25);
        obs::disable();
        let off = TopoCentLb.map(&g, topo.as_ref());
        let (on, report) = recorded(|| TopoCentLb.map(&g, topo.as_ref()));
        prop_assert_eq!(&off, &on);
        prop_assert_eq!(counter(&report, "topocentlb.placements"), g.num_tasks() as u64);
        let pushes = counter(&report, "topocentlb.heap_pushes");
        let pops = counter(&report, "topocentlb.heap_pops");
        let stale = counter(&report, "topocentlb.stale_pops");
        prop_assert!(stale <= pops, "stale {stale} > pops {pops}");
        prop_assert!(pops <= pushes, "pops {pops} > pushes {pushes}");
    }

    /// The stochastic mappers: ON == OFF with the same seed, and the
    /// proposal/fitness ledgers balance exactly.
    #[test]
    fn stochastic_recording_is_invisible(
        g in arb_task_graph(),
        topo_idx in 0usize..4,
        seed in any::<u64>(),
    ) {
        let _l = obs_guard();
        let topo = topology_for(topo_idx, 25);

        let sa = SimulatedAnnealingMap { par: eager(4), ..SimulatedAnnealingMap::quick(seed) };
        obs::disable();
        let off = sa.map(&g, topo.as_ref());
        let (on, report) = recorded(|| sa.map(&g, topo.as_ref()));
        prop_assert_eq!(&off, &on, "SA perturbed by recording");
        if let Some(proposals) = report.counter("anneal.proposals") {
            // (Edgeless graphs return before the search loop and emit
            // nothing — the mapping equality above still covers them.)
            let acc = counter(&report, "anneal.accepted");
            let rej = counter(&report, "anneal.rejected");
            let voided = counter(&report, "anneal.voided");
            prop_assert_eq!(acc + rej + voided, proposals, "proposal ledger leak");
            prop_assert_eq!(
                proposals,
                counter(&report, "anneal.temp_steps") * sa.moves_per_temp as u64
            );
            let hb_samples = report.series("anneal.hb").map_or(0, |s| s.count);
            prop_assert_eq!(hb_samples, counter(&report, "anneal.temp_steps"));
        }

        let ga = GeneticMap { par: eager(4), generations: 8, ..GeneticMap::quick(seed) };
        obs::disable();
        let off = ga.map(&g, topo.as_ref());
        let (on, report) = recorded(|| ga.map(&g, topo.as_ref()));
        prop_assert_eq!(&off, &on, "GA perturbed by recording");
        prop_assert_eq!(
            counter(&report, "genetic.fitness_evaluations"),
            counter(&report, "genetic.initial_pop") + counter(&report, "genetic.children_bred"),
            "every genome scored exactly once"
        );
        prop_assert_eq!(counter(&report, "genetic.generations"), 8);
        let best = report.series("genetic.best_hb").map_or(0, |s| s.count);
        prop_assert_eq!(best, 8, "one best-fitness sample per generation");
    }

    /// The baseline mappers carry no instrumentation but must still be
    /// byte-identical under recording (they share the metric kernels).
    #[test]
    fn baseline_mappers_recording_is_invisible(
        g in arb_task_graph(),
        topo_idx in 0usize..4,
        seed in any::<u64>(),
    ) {
        let _l = obs_guard();
        let topo = topology_for(topo_idx, 25);
        for mapper in [
            Box::new(RandomMap::new(seed)) as Box<dyn Mapper>,
            Box::new(IdentityMap),
        ] {
            obs::disable();
            let off = mapper.map(&g, topo.as_ref());
            let (on, _) = recorded(|| mapper.map(&g, topo.as_ref()));
            prop_assert_eq!(&off, &on, "{} perturbed by recording", mapper.name());
        }
    }

    /// Netsim: recording must not shift a single simulated nanosecond,
    /// and the per-link byte heatmap must sum to the independently
    /// accumulated bytes x hops ledger.
    #[test]
    fn netsim_recording_is_invisible(
        rx in 2usize..=4,
        ry in 2usize..=4,
        iters in 1usize..=3,
        seed in any::<u64>(),
    ) {
        let _l = obs_guard();
        let g = gen::stencil2d(rx, ry, 2048.0, false);
        let topo = Torus::torus_2d(rx, ry);
        let m = RandomMap::new(seed).map(&g, &topo);
        let tr = stencil_trace(&g, iters, 1_000);
        let cfg = NetworkConfig::default();

        obs::disable();
        let off = Simulation::run(&topo, &cfg, &tr, &m);
        let (on, report) = recorded(|| Simulation::run(&topo, &cfg, &tr, &m));
        prop_assert_eq!(&off, &on, "simulation perturbed by recording");

        prop_assert!(counter(&report, "netsim.events") > 0);
        prop_assert_eq!(
            counter(&report, "netsim.messages.network") + counter(&report, "netsim.messages.local"),
            off.network_messages + off.local_messages
        );
        // Two independent ledgers for realized hop-bytes: per-delivery
        // (bytes x hops at delivery time) vs per-link (bytes charged on
        // each link crossed). They must agree exactly.
        let link_bytes: f64 = report
            .series("netsim.link_bytes")
            .map_or(0.0, |s| s.values.iter().sum());
        prop_assert_eq!(link_bytes as u64, counter(&report, "netsim.bytes_hops"));
        // The heatmap has one row per directed link of the machine.
        let links = report.series("netsim.link_bytes").map_or(0, |s| s.count);
        let busy = report.series("netsim.link_busy_ns").map_or(0, |s| s.count);
        prop_assert_eq!(links, busy, "heatmap series must be parallel arrays");
    }

    /// Ledger conservation, the netsim analogue of Kirchhoff's law: over
    /// arbitrary small topologies × random mappings, the per-link byte
    /// ledger of a deterministic run sums to exactly Σ bytes × distance
    /// over the trace's `Send`s — no bytes invented, none lost, every
    /// message charged on a shortest path. Minimal-adaptive routing may
    /// spread load differently but must never exceed that total (adaptive
    /// stays minimal).
    #[test]
    fn netsim_ledger_conserves_hop_bytes(
        g in arb_task_graph(),
        topo_idx in 0usize..4,
        seed in any::<u64>(),
        iters in 1usize..=3,
    ) {
        let _l = obs_guard();
        let topo = routed_for(topo_idx, g.num_tasks().max(9));
        let m = RandomMap::new(seed).map(&g, topo.as_ref());
        let tr = stencil_trace(&g, iters, 1_000);
        let analytic = trace_hop_bytes(&tr, topo.as_ref(), &m);

        let det = NetworkConfig::default();
        let rep = Simulation::run_with_links(topo.as_ref(), &det, &tr, &m);
        let ledger: u64 = rep.acct.bytes_slice().iter().sum();
        prop_assert_eq!(
            ledger, analytic,
            "deterministic routing must charge bytes x distance exactly on {}",
            topo.name()
        );
        prop_assert_eq!(ledger, rep.acct.total_bytes_hops(), "internal ledgers disagree");
        prop_assert_eq!(rep.stats.bytes_delivered, tr.total_send_bytes());
        // The ledger-keeping entry point reports the same statistics as
        // the plain one.
        prop_assert_eq!(&Simulation::run(topo.as_ref(), &det, &tr, &m), &rep.stats);

        let ada = NetworkConfig {
            routing: RoutingMode::MinimalAdaptive,
            ..NetworkConfig::default()
        };
        let arep = Simulation::run_with_links(topo.as_ref(), &ada, &tr, &m);
        let aledger: u64 = arep.acct.bytes_slice().iter().sum();
        prop_assert!(
            aledger <= analytic,
            "adaptive routing left the minimal envelope on {}: {} > {}",
            topo.name(), aledger, analytic
        );
        prop_assert_eq!(arep.stats.bytes_delivered, rep.stats.bytes_delivered);
    }
}

/// A recording session that spans several mapper runs accumulates — the
/// bench harness profiles whole experiment grids this way.
#[test]
fn counters_accumulate_across_runs_in_one_session() {
    let _l = obs_guard();
    let g = gen::stencil2d(4, 4, 100.0, false);
    let topo = Torus::torus_2d(4, 4);
    let mapper = TopoLb::default();
    let (_, report) = recorded(|| {
        mapper.map(&g, &topo);
        mapper.map(&g, &topo);
        mapper.map(&g, &topo);
    });
    assert_eq!(report.counter("topolb.placements"), Some(48));
    assert_eq!(report.counter("estimation.assigns"), Some(48));
}

/// Toggling the recorder mid-run must never corrupt a later session:
/// stale span guards from a previous generation are inert.
#[test]
fn stale_guards_from_a_previous_session_are_inert() {
    let _l = obs_guard();
    let g = gen::ring(8, 100.0);
    let topo = Torus::torus_2d(3, 3);

    obs::start();
    let _leaked = obs::span("leaked.span");
    // A fresh session begins while the guard above is still alive.
    let (_, report) = recorded(|| TopoLb::default().map(&g, &topo));
    assert!(report.find_span("leaked.span").is_none());
    assert!(report.find_span("topolb.map").is_some());
}
