//! Measurements several workloads share: a solo walker stepped sweep by
//! sweep, the `core` and `linalg` probes of the traced run, and the
//! repeated, timed set-up.

use crate::reference;
use crate::report::Outcome;
use crate::stats::median;
use crate::Ctx;
use dqmc::{
    greens_from_udt, phases, stratify, BMatrixFactory, Crowd, RunToken, SimParams, Simulation, Spin,
};
use sched::SweepReport;
use std::time::Instant;

/// Runs `build` `reps` times, hands every instance but the last to
/// `discard`, and returns the last with the median set-up time.
pub fn timed_setup<T>(
    reps: usize,
    mut build: impl FnMut(usize) -> T,
    mut discard: impl FnMut(T),
) -> (T, f64) {
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for i in 0..reps {
        if let Some(prev) = last.take() {
            discard(prev);
        }
        let t = Instant::now();
        last = Some(build(i));
        times.push(t.elapsed().as_secs_f64());
    }
    eprintln!("setup times (s): {times:?}");
    (last.expect("at least one set-up"), median(&times))
}

/// Wall seconds per sweep of each Table I phase so far.
pub fn phase_seconds(sim: &Simulation) -> [f64; 5] {
    let rep = sim.phase_report();
    let mut out = [0.0; 5];
    for (i, name) in phases::ALL.iter().enumerate() {
        out[i] = rep
            .rows
            .iter()
            .find(|(p, _, _)| p == name)
            .map_or(0.0, |(_, s, _)| *s);
    }
    out
}

/// A solo walker stepped one sweep at a time, a few sweeps in every round
/// of a workload, so that its samples span the whole run: reports
/// `sweep_ms.p50` and, when traced, the core phase metrics and the
/// `linalg`/`core` probes at the walker's size.
pub struct SoloWalker {
    sim: Simulation,
    before: ([f64; 5], (usize, usize)),
    times: Vec<f64>,
}

impl SoloWalker {
    pub fn new(params: SimParams) -> SoloWalker {
        let sim = Simulation::new(params.with_sweeps(0, 1_000_000_000));
        let before = (phase_seconds(&sim), sim.cache_stats());
        SoloWalker {
            sim,
            before,
            times: Vec::new(),
        }
    }

    /// Steps the walker `sweeps` times, one sweep per sample.
    pub fn sweeps(&mut self, ctx: &Ctx, sweeps: usize) {
        for _ in 0..sweeps {
            let t = Instant::now();
            let sim = &mut self.sim;
            ctx.tracer
                .span("core.sweep", self.times.len() as u64, || sim.step(1));
            self.times.push(t.elapsed().as_secs_f64() * 1e3);
        }
    }

    pub fn finish(mut self, ctx: &Ctx, out: &mut Outcome) {
        out.e2e.insert("sweep_ms.p50", median(&self.times));
        if ctx.tracer.enabled() {
            core_phase_metrics(&self.sim, self.before, self.times.len(), out);
            layer_probes(ctx, &mut self.sim, out);
        }
    }
}

/// The `sched` and `gpusim` counts of one `SweepReport`.
pub fn sched_counts(report: &SweepReport, out: &mut Outcome) {
    let l = &mut out.layer;
    l.insert("sched.jobs", report.total_jobs as f64);
    l.insert("sched.preemptions", report.preemptions as f64);
    l.insert("sched.retries", report.retries as f64);
    l.insert(
        "sched.quanta",
        (report.device_quanta + report.host_quanta) as f64,
    );
    l.insert("gpusim.leases_granted", report.leases_granted as f64);
    l.insert("gpusim.lease_misses", report.lease_misses as f64);
}

/// The traced run's parking probe: one `Crowd::checkpoint_bytes` +
/// `resume_bytes` round trip of a crowd of `params` parked after one
/// quantum of `quantum` sweeps.
pub fn park_layer_probe(ctx: &Ctx, params: Vec<SimParams>, quantum: usize, out: &mut Outcome) {
    let mut crowd = Crowd::new(params.clone());
    crowd
        .try_step(quantum, &RunToken::new())
        .expect("one quantum of the probe crowd runs");
    let mut bytes = 0;
    let park_ms = reference::time_spans(&ctx.tracer, "sched.park", 20, || {
        let image = crowd.checkpoint_bytes();
        bytes = image.len();
        std::hint::black_box(Crowd::resume_bytes(&image, &params).is_ok());
    });
    out.layer.insert("sched.park_ms", park_ms);
    out.layer.insert("sched.park_bytes", bytes as f64);
}

/// Per-sweep Table I phase times and cluster reuse over the sweeps run
/// since `before` was taken.
pub fn core_phase_metrics(
    sim: &Simulation,
    before: ([f64; 5], (usize, usize)),
    sweeps: usize,
    out: &mut Outcome,
) {
    let now = phase_seconds(sim);
    let names = [
        "core.delayed_update_ms",
        "core.stratification_ms",
        "core.clustering_ms",
        "core.wrapping_ms",
        "core.measurement_ms",
    ];
    for (i, name) in names.iter().enumerate() {
        out.layer
            .insert(name, (now[i] - before.0[i]) * 1e3 / sweeps as f64);
    }
    let (rebuilds, hits) = sim.cache_stats();
    let (r0, h0) = before.1;
    let (dr, dh) = ((rebuilds - r0) as f64, (hits - h0) as f64);
    out.layer
        .insert("core.cluster_reuse_ratio", dh / (dr + dh).max(1.0));
    out.layer.insert("core.acceptance", sim.acceptance_rate());
}

/// The traced run's `linalg` and `core` probes at the walker's size: kernel
/// rates, one Green's-function evaluation (`stratify` + `greens_from_udt`
/// on the walker's current cluster products) and one `b_mul_left`.
pub fn layer_probes(ctx: &Ctx, sim: &mut Simulation, out: &mut Outcome) {
    let n = sim.params().model.nsites();
    let (gemm, qr, batched) = reference::kernel_rates(&ctx.tracer, n, ctx.seed);
    out.layer.insert("linalg.gemm_gflops", gemm);
    out.layer.insert("linalg.qr_gflops", qr);
    out.layer.insert("linalg.batched_gemm_gflops", batched);

    let params = sim.params().clone();
    let l = params.model.slices - 1;
    let core = sim.core_mut();
    let factors = core
        .cache
        .factors_after_slice(&core.fac, &core.h, l, Spin::Up);
    let g_ms = reference::time_spans(&ctx.tracer, "core.greens_eval", 5, || {
        std::hint::black_box(greens_from_udt(&stratify(&factors, params.algo)));
    });
    out.layer.insert("core.greens_eval_ms", g_ms);

    let fac = if params.checkerboard {
        BMatrixFactory::new_checkerboard(&params.model)
    } else {
        BMatrixFactory::new(&params.model)
    };
    let m = reference::random_matrix(n, &mut reference::SplitMix::new(ctx.seed));
    let h = core.h.clone();
    let b_ms = reference::time_spans(&ctx.tracer, "core.b_mul", 9, || {
        std::hint::black_box(fac.b_mul_left(&h, 0, Spin::Up, &m));
    });
    out.layer.insert("core.b_mul_ms", b_ms);
}
