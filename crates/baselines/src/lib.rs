#![warn(missing_docs)]

//! Baseline systems the paper compares Eunomia against, built on the same
//! substrate (`eunomia-kv` storage, `eunomia-sim` network, the cost model
//! and metrics of `eunomia-geo`) — mirroring the paper's methodology,
//! where GentleRain and Cure "are implemented using the codebase of
//! EunomiaKV" (§7.2).
//!
//! * [`gs`] — **GentleRain** (scalar global stable time, Du et al.,
//!   SoCC '14) and **Cure** (vector global stable vector, Akkoorath et
//!   al., ICDCS '16): sequencer-free designs that make remote updates
//!   visible through a background *global* (cross-datacenter)
//!   stabilization procedure.
//! * [`seq`] — **S-Seq** (a synchronous sequencer per datacenter in the
//!   client critical path, as in SwiftCloud/ChainReaction) and **A-Seq**
//!   (the paper's bogus asynchronous variant that does the same work off
//!   the critical path but fails to capture causality; §2).
//!
//! All four run under the shared [`eunomia_geo::ClusterConfig`] and report
//! through [`eunomia_geo::harness::RunReport`], so every figure harness
//! compares like with like.
//!
//! There is no separate entry point for baselines: [`install`] registers
//! them into `eunomia-geo`'s system registry, after which
//! `eunomia_geo::run(SystemId, &Scenario)` drives all six systems
//! uniformly. The `eunomia` facade and `eunomia_bench::BenchArgs::parse`
//! call [`install`] automatically.

pub mod gs;
pub mod msg;
pub mod seq;

use eunomia_geo::harness::RunReport;
use eunomia_geo::mc::{drive, McReport, McScenario};
use eunomia_geo::{register_mc_runner, register_runner, ClusterConfig, SystemId};
use eunomia_sim::McTrace;
use std::sync::Once;

fn run_baseline(id: SystemId, cfg: &ClusterConfig) -> RunReport {
    match id {
        SystemId::GentleRain => gs::run(gs::StabilizationMode::Scalar, cfg.clone()),
        SystemId::Cure => gs::run(gs::StabilizationMode::Vector, cfg.clone()),
        SystemId::SSeq => seq::run(seq::SeqMode::Synchronous, cfg.clone()),
        SystemId::ASeq => seq::run(seq::SeqMode::Asynchronous, cfg.clone()),
        native => unreachable!("{native} is assembled by eunomia-geo"),
    }
}

fn mc_baseline(id: SystemId, sc: &McScenario, trace: Option<&McTrace>) -> McReport {
    let cfg = sc.cfg.clone();
    let build = move || {
        let (sim, metrics, _) = match id {
            SystemId::GentleRain => gs::build(gs::StabilizationMode::Scalar, cfg.clone()),
            SystemId::Cure => gs::build(gs::StabilizationMode::Vector, cfg.clone()),
            SystemId::SSeq => seq::build(seq::SeqMode::Synchronous, cfg.clone()),
            SystemId::ASeq => seq::build(seq::SeqMode::Asynchronous, cfg.clone()),
            native => unreachable!("{native} is assembled by eunomia-geo"),
        };
        (sim, metrics)
    };
    drive(id.label(), sc, build, trace)
}

/// Registers GentleRain, Cure, S-Seq and A-Seq in `eunomia-geo`'s system
/// registry so `eunomia_geo::run` can dispatch to them. Idempotent and
/// cheap; call it once at startup (the `eunomia` facade's `run` and
/// `eunomia_bench::BenchArgs::parse` already do).
pub fn install() {
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        for id in [
            SystemId::GentleRain,
            SystemId::Cure,
            SystemId::SSeq,
            SystemId::ASeq,
        ] {
            register_runner(id, run_baseline);
            register_mc_runner(id, mc_baseline);
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use eunomia_geo::Scenario;

    #[test]
    fn install_makes_every_system_runnable_through_geo() {
        install();
        install(); // idempotent
        let sc = Scenario::small_test();
        for id in SystemId::all() {
            let report = eunomia_geo::run(id, &sc);
            assert!(report.total_ops > 100, "{id}: {} ops", report.total_ops);
            assert_eq!(report.system, id.label());
        }
    }
}
