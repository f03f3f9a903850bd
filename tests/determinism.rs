//! Same-seed determinism across the whole zoo: the refactored engine
//! (calendar queue, zero-alloc dispatch, direct delivery, windowed FIFO
//! link state, timer generations) must give byte-identical reports for
//! identical `(SystemId, Scenario, seed)` inputs — the safety net that lets the
//! hot path keep evolving without silently changing what is simulated.

use eunomia::{run, RunReport, Scenario, SystemId};

/// Every deterministic field of a report, bit-exact. `engine.wall_ns` is
/// real elapsed time and is deliberately excluded.
fn fingerprint(r: &RunReport, n_dcs: u16) -> impl PartialEq + std::fmt::Debug {
    let vis: Vec<Vec<u64>> = (0..n_dcs)
        .flat_map(|a| (0..n_dcs).map(move |b| (a, b)))
        .map(|(a, b)| r.metrics.visibility_extras(a, b, 0, u64::MAX))
        .collect();
    (
        r.system.clone(),
        r.throughput.to_bits(),
        r.total_ops,
        r.p50_latency_ms.to_bits(),
        r.p99_latency_ms.to_bits(),
        r.window,
        (
            r.engine.events,
            r.engine.messages_routed,
            r.engine.timers_set,
            r.engine.direct_deliveries,
            r.engine.messages_deferred,
            r.engine.retransmits,
            r.engine.heap_peak,
            r.engine.bucket_peak,
            r.engine.overflow_migrations,
            r.engine.arena_high_water,
        ),
        r.stale_reads,
        vis,
    )
}

/// `small_test` at seed 1234 with every client driven by a 200 Hz
/// Poisson arrival process instead of the closed loop.
fn poisson_open_loop() -> Scenario {
    use eunomia::{ArrivalSpec, OpenLoopConfig};
    Scenario::small_test().seed(1234).with(|cfg| {
        cfg.open_loop = Some(OpenLoopConfig {
            arrivals: ArrivalSpec::Poisson { rate_hz: 200.0 },
            queue_limit: 16,
        });
    })
}

#[test]
fn identical_runs_for_all_six_systems() {
    let scenario = Scenario::small_test().seed(1234);
    let n_dcs = scenario.cfg().n_dcs as u16;
    for id in SystemId::all() {
        let a = run(id, &scenario);
        let b = run(id, &scenario);
        assert!(a.total_ops > 0, "{id}: empty run proves nothing");
        assert_eq!(
            fingerprint(&a, n_dcs),
            fingerprint(&b, n_dcs),
            "{id}: same (system, scenario, seed) must reproduce bit-identically"
        );
    }
}

#[test]
fn identical_open_loop_runs_for_all_six_systems() {
    // Open-loop mode adds an arrival process, a backlog queue and the
    // LoadStats plumbing to every client; all of it must stay on the
    // deterministic path. The fingerprint is extended with the load
    // counters so a drift in the arrival machinery itself (not just its
    // downstream effects) is caught.
    let scenario = poisson_open_loop();
    let n_dcs = scenario.cfg().n_dcs as u16;
    let load_print = |r: &RunReport| {
        let l = r.load.as_ref().expect("open-loop run carries LoadStats");
        (
            l.offered,
            l.completed,
            l.dropped,
            l.queue_peak,
            l.latency.count(),
            l.queue_wait.count(),
        )
    };
    for id in SystemId::all() {
        let a = run(id, &scenario);
        let b = run(id, &scenario);
        assert!(a.total_ops > 0, "{id}: empty run proves nothing");
        assert!(load_print(&a).0 > 0, "{id}: no arrivals were offered");
        assert_eq!(
            fingerprint(&a, n_dcs),
            fingerprint(&b, n_dcs),
            "{id}: same-seed open-loop runs must reproduce bit-identically"
        );
        assert_eq!(
            load_print(&a),
            load_print(&b),
            "{id}: load counters drifted"
        );
    }
}

#[test]
fn identical_runs_on_a_huge_preset() {
    // The huge presets are where the calendar queue actually works for a
    // living: 24-DC fan-out keeps tens of thousands of far-future
    // arrivals in the overflow tier, so this cell certifies that epoch
    // rollover, overflow migration and the windowed FIFO link state all
    // sit on the deterministic path (the fingerprint includes
    // bucket_peak / overflow_migrations / arena_high_water). Trimmed to
    // 2.5 simulated seconds so the debug-mode suite stays fast; the
    // preset's topology and workload are untouched.
    let scenario = Scenario::huge_twenty_four_dc().seed(77).with(|cfg| {
        cfg.duration = eunomia::sim::units::ms(2500);
        cfg.warmup = eunomia::sim::units::ms(1000);
        cfg.cooldown = eunomia::sim::units::ms(500);
    });
    let n_dcs = scenario.cfg().n_dcs as u16;
    let a = run(SystemId::EunomiaKv, &scenario);
    let b = run(SystemId::EunomiaKv, &scenario);
    assert!(a.total_ops > 0, "empty run proves nothing");
    assert!(
        a.engine.overflow_migrations > 0,
        "a huge run must exercise the overflow tier, or this cell certifies nothing"
    );
    assert_eq!(
        fingerprint(&a, n_dcs),
        fingerprint(&b, n_dcs),
        "same-seed huge-24dc runs must reproduce bit-identically"
    );
}

#[test]
fn different_seeds_differ() {
    // Guards against the fingerprint being insensitive (e.g. everything
    // zero) — a different seed must actually change the trace.
    let a = run(SystemId::EunomiaKv, &Scenario::small_test().seed(1));
    let b = run(SystemId::EunomiaKv, &Scenario::small_test().seed(2));
    assert_ne!(
        (a.total_ops, a.engine.events),
        (b.total_ops, b.engine.events),
        "distinct seeds should produce distinct traces under jitter"
    );
}

#[test]
fn model_checking_is_deterministic() {
    // The MC search is replay-based DFS over a deterministic engine with
    // a pinned fingerprint hash, so for a fixed scenario every counter —
    // not just the verdict — must be bit-identical across runs. CI gates
    // on the explored-state counts (BENCH_mc.json); this is the property
    // that makes that gate meaningful.
    use eunomia::{mc_run, McScenario};
    for id in [SystemId::EunomiaKv, SystemId::Cure] {
        let sc = McScenario::certify(id);
        let a = mc_run(id, &sc);
        let b = mc_run(id, &sc);
        assert_eq!(a.stats, b.stats, "{id}: exploration counters drifted");
        assert_eq!(a.verdict, b.verdict, "{id}");
        assert!(a.verdict.is_certified(), "{id}: {:?}", a.verdict);
    }
    // A violating search must also reproduce its counterexample exactly
    // (same counters, same trace), or replay-based debugging is fiction.
    let sc = McScenario::violation_demo();
    let a = mc_run(SystemId::Eventual, &sc);
    let b = mc_run(SystemId::Eventual, &sc);
    assert_eq!(a.stats, b.stats);
    assert_eq!(a.verdict, b.verdict);
    assert!(!a.verdict.is_certified());
}

#[test]
fn engine_stats_are_populated_and_consistent() {
    let r = run(SystemId::EunomiaKv, &Scenario::small_test());
    let e = r.engine;
    assert!(e.events > 1_000, "events: {}", e.events);
    assert!(e.messages_routed > 1_000, "messages: {}", e.messages_routed);
    assert!(e.timers_set > 0);
    assert!(e.heap_peak > 0);
    assert!(e.wall_ns > 0, "wall time must be recorded");
    assert!(e.events_per_sec() > 0.0);
    assert!(
        e.direct_deliveries <= e.events,
        "direct deliveries ({}) are a subset of handler invocations ({})",
        e.direct_deliveries,
        e.events
    );
}

/// One pinned run: system, then `total_ops`, `engine.events`,
/// `engine.messages_routed`, `engine.timers_set`, p50 bits, p99 bits.
type Golden = (&'static str, [u64; 6]);

/// Recorded at commit 9b52082, before the three client loops were merged
/// into one. Re-pin only together with a change that is meant to alter
/// the protocol, the engine's event order or an RNG stream.
#[rustfmt::skip]
const GOLDEN_CLOSED: [Golden; 6] = [
    ("Eventual",   [17294,  43218, 43231,     0, 0x3ff083dab5c39bcc, 0x3ffde26809d49518]),
    ("EunomiaKV",  [17012, 129373, 95363, 34053, 0x3ff0c6f694467382, 0x3ffe689fc6da4485]),
    ("GentleRain", [14668,  51672, 44274,  7422, 0x3ff2599dcb5781c7, 0x4002dfd60e94ee39]),
    ("Cure",       [14454,  51109, 43721,  7407, 0x3ff2dfd5885d3133, 0x4002dfd60e94ee39]),
    ("S-Seq",      [13888,  72724, 62729, 10000, 0x3ff68b5bb384fd2a, 0x4008a43b2dd377e2]),
    ("A-Seq",      [16694,  85058, 75076, 10000, 0x3ff0c6f694467382, 0x3fff750f40e5a35d]),
];

/// Same, for [`poisson_open_loop`].
#[rustfmt::skip]
const GOLDEN_OPEN: [Golden; 6] = [
    ("Eventual",   [3890,  13603,  9707,  3894, 0x3ff040bed740c415, 0x4002dfd60e94ee39]),
    ("EunomiaKV",  [3890, 102573, 60202, 42394, 0x3ff083dab5c39bcc, 0x4002dfd60e94ee39]),
    ("GentleRain", [3890,  29948, 18257, 11699, 0x3ff2599dcb5781c7, 0x400605247cb70ac4]),
    ("Cure",       [3890,  29909, 18230, 11687, 0x3ff2599dcb5781c7, 0x40068b5c39bcba30]),
    ("S-Seq",      [3890,  31309, 17411, 13894, 0x3ff68b5bb384fd2a, 0x4009b0aaa7ded6bb]),
    ("A-Seq",      [3890,  31309, 17411, 13894, 0x3ff083dab5c39bcc, 0x4002dfd60e94ee39]),
];

#[test]
fn golden_fingerprints_for_all_six_systems() {
    // The tests above compare a run with itself, so they cannot see a
    // refactor that changes what is simulated in the same way twice.
    for (scenario, want) in [
        (Scenario::small_test().seed(1234), GOLDEN_CLOSED),
        (poisson_open_loop(), GOLDEN_OPEN),
    ] {
        for (id, (system, pinned)) in SystemId::all().into_iter().zip(want) {
            let r = run(id, &scenario);
            let got = [
                r.total_ops,
                r.engine.events,
                r.engine.messages_routed,
                r.engine.timers_set,
                r.p50_latency_ms.to_bits(),
                r.p99_latency_ms.to_bits(),
            ];
            assert_eq!(r.system, system);
            assert_eq!(
                got, pinned,
                "{id}: the run no longer reproduces the pinned trace"
            );
        }
    }
}
