//! The one check that needs the baselines: the paper's ordering between
//! systems must survive. (`eunomia-baselines` gets no workload of its
//! own; this is where it is exercised.) The per-workload checks live
//! with the workloads, in `geo.rs` and `svc.rs`.

use eunomia_geo::{run, Scenario, SystemId};

/// Simulated seconds of each comparison run.
const SECONDS: u64 = 20;

/// EunomiaKV must complete at least as many client ops/s as S-Seq (its
/// sequencer sits in the client's critical path) and make remote updates
/// visible sooner at p99 than GentleRain (whose global stabilization
/// waits for the farthest datacenter).
pub fn baseline_ordering(seed: u64) -> Result<(), String> {
    eunomia_baselines::install();
    let scenario = Scenario::paper_three_dc().seconds(SECONDS).seed(seed);
    let report = |id| run(id, &scenario);
    let visibility_p99 = |r: &eunomia_geo::RunReport| {
        r.visibility_percentile_ms(0, 1, 99.0)
            .ok_or_else(|| format!("{} recorded no dc0->dc1 visibility samples", r.system))
    };
    let eunomia = report(SystemId::EunomiaKv);
    let sseq = report(SystemId::SSeq);
    let gentle = report(SystemId::GentleRain);
    println!(
        "check: {SECONDS} sim-s paper-3dc, seed {seed}: EunomiaKV {:.0} ops/s, S-Seq {:.0} ops/s; \
         visibility p99 EunomiaKV {:.2} ms, GentleRain {:.2} ms",
        eunomia.throughput,
        sseq.throughput,
        visibility_p99(&eunomia)?,
        visibility_p99(&gentle)?,
    );
    if eunomia.throughput < sseq.throughput {
        return Err(format!(
            "EunomiaKV ({:.0} ops/s) fell below S-Seq ({:.0} ops/s)",
            eunomia.throughput, sseq.throughput
        ));
    }
    if visibility_p99(&eunomia)? >= visibility_p99(&gentle)? {
        return Err(format!(
            "EunomiaKV visibility p99 ({:.2} ms) is not below GentleRain's ({:.2} ms)",
            visibility_p99(&eunomia)?,
            visibility_p99(&gentle)?
        ));
    }
    Ok(())
}
