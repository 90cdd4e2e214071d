//! `chain_large`: one walker on a 16×16 lattice (N = 256) at U = 4 and
//! half filling, L = 16 time slices, checkerboard kinetic operator, static
//! measurements, host backend, stepped sweep by sweep. Its time goes into
//! kernels and sweep phases; it never calls `sched`, `serve` or `fleet`.

use crate::common::{core_phase_metrics, layer_probes, phase_seconds, timed_setup};
use crate::report::{Checks, Outcome};
use crate::stats::{median, percentile};
use crate::{reference, Ctx};
use dqmc::greens::relative_difference;
use dqmc::{greens_from_udt, stratify, ModelParams, SimParams, Simulation, Spin, StratAlgo};
use lattice::Lattice;
use std::time::Instant;

const SIDE: usize = 16;
const SLICES: usize = 16;
const U: f64 = 4.0;
const DTAU: f64 = 0.125;
/// Thermalisation sweeps done during set-up.
const THERMALISE: usize = 2;
/// Set-up repetitions whose median is `setup_s`.
const SETUPS: usize = 5;
/// Each round steps the walker, then evaluates G from its configuration
/// with the cluster products rebuilt and recycled.
const SWEEPS_PER_ROUND: usize = 4;
const COLD_PER_ROUND: usize = 2;
const WARM_PER_ROUND: usize = 12;
/// The p90 of warm latency needs at least this many samples.
const MIN_WARM: usize = 100;

fn params(seed: u64) -> SimParams {
    let model = ModelParams::new(Lattice::square(SIDE, SIDE, 1.0), U, 0.0, DTAU, SLICES);
    SimParams::new(model)
        .with_checkerboard(true)
        .with_sweeps(THERMALISE, 1_000_000)
        .with_bin_size(1)
        .with_seed(seed)
}

pub fn run(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::new();
    let (mut sim, setup_s) = timed_setup(
        SETUPS,
        |_| {
            let mut sim = Simulation::new(params(ctx.seed));
            sim.step(THERMALISE);
            sim
        },
        drop,
    );
    out.e2e.insert("setup_s", setup_s);

    let before = (phase_seconds(&sim), sim.cache_stats());
    let mut sweeps = Vec::new();
    let mut probe = GreensProbe::default();
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < ctx.seconds || probe.warm.len() < MIN_WARM {
        for _ in 0..SWEEPS_PER_ROUND {
            let t = Instant::now();
            ctx.tracer
                .span("core.sweep", sweeps.len() as u64, || sim.step(1));
            sweeps.push(t.elapsed().as_secs_f64() * 1e3);
        }
        probe.round(ctx, &mut sim);
    }
    let loop_s = start.elapsed().as_secs_f64();
    out.attempted = sweeps.len() as u64;
    out.e2e.insert("sweep_ms.p50", median(&sweeps));
    // The walker's progress over the whole measured loop, its Green's-
    // function evaluations included: one clock over the loop, not the
    // sweep samples.
    out.e2e
        .insert("chain_sweeps_per_s", sweeps.len() as f64 / loop_s);
    out.layer.insert("trace.main_op_ms.p50", median(&sweeps));
    if ctx.tracer.enabled() {
        core_phase_metrics(&sim, before, sweeps.len(), &mut out);
    }
    probe.finish(&mut out);

    // The same chain placed on the simulated device for one sweep: the
    // modeled cost of this workload's unit of work.
    let backend = gpusim::DeviceBackend::with_spec(gpusim::DeviceSpec::tesla_c2050())
        .with_bitexact_wrap(true);
    let mut on_device = Simulation::new(params(ctx.seed)).with_backend(Box::new(backend));
    ctx.tracer.span("gpusim.sweep", 0, || on_device.step(1));
    out.e2e.insert("device_s", on_device.device_seconds());

    physics_checks(&mut sim, &mut out.checks);
    reference::check_kernels(SIDE * SIDE, ctx.seed, &mut out.checks);
    if ctx.tracer.enabled() {
        layer_probes(ctx, &mut sim, &mut out);
    }
    out
}

/// Green's-function evaluation of the walker's configuration with the
/// cluster products rebuilt (cold) and recycled from the cluster cache
/// (warm). The cache is restored after each round, so the walker's own
/// sweeps never see the probe.
#[derive(Default)]
struct GreensProbe {
    cold: Vec<f64>,
    warm: Vec<f64>,
}

impl GreensProbe {
    fn round(&mut self, ctx: &Ctx, sim: &mut Simulation) {
        let algo = sim.params().algo;
        let core = sim.core_mut();
        let saved = core.cache.clone();
        for i in 0..COLD_PER_ROUND + WARM_PER_ROUND {
            let is_cold = i < COLD_PER_ROUND;
            if is_cold {
                core.cache.invalidate_all();
            }
            let (name, samples) = if is_cold {
                ("core.greens_cold", &mut self.cold)
            } else {
                ("core.greens_warm", &mut self.warm)
            };
            let t = Instant::now();
            ctx.tracer.span(name, samples.len() as u64, || {
                let factors =
                    core.cache
                        .factors_after_slice(&core.fac, &core.h, SLICES - 1, Spin::Up);
                std::hint::black_box(greens_from_udt(&stratify(&factors, algo)));
            });
            samples.push(t.elapsed().as_secs_f64() * 1e3);
        }
        core.cache = saved;
    }

    fn finish(&self, out: &mut Outcome) {
        out.e2e.insert("cold_ms.p50", median(&self.cold));
        out.e2e.insert("warm_ms.p50", median(&self.warm));
        out.e2e.insert("warm_ms.p90", percentile(&self.warm, 90.0));
        let ms: f64 = self.cold.iter().chain(&self.warm).sum();
        out.e2e.insert(
            "req_per_s",
            (self.cold.len() + self.warm.len()) as f64 / (ms * 1e-3),
        );
    }
}

/// Properties the method must have on this input, whatever the seed.
fn physics_checks(sim: &mut Simulation, checks: &mut Checks) {
    let obs = sim.observables();
    let (rho, _) = obs.density();
    checks.check(
        "chain: <n> = 1 at half filling",
        (rho - 1.0).abs() < 1e-10,
        format!("<n> = {rho}"),
    );
    let (sign, _) = obs.avg_sign();
    checks.check(
        "chain: <sign> = 1 on a bipartite lattice",
        (sign - 1.0).abs() < 1e-12,
        format!("<sign> = {sign}"),
    );
    let (docc, _) = obs.double_occupancy();
    checks.check(
        "chain: double occupancy in (0, 0.25)",
        docc > 0.0 && docc < 0.25,
        format!("<n_up n_dn> = {docc}"),
    );
    let tol = sim.params().recovery.wrap_tolerance;
    let wrap = sim.max_wrap_error();
    checks.check(
        "chain: wrap error within the accuracy monitor's tolerance",
        wrap <= tol,
        format!("max wrap error {wrap:.3e}, tolerance {tol:.1e}"),
    );

    // Fig. 2 property: Algorithm 2 (QRP) and Algorithm 3 (pre-pivoting)
    // give the same G on the walker's current configuration.
    let core = sim.core_mut();
    for spin in Spin::BOTH {
        let factors = core
            .cache
            .factors_after_slice(&core.fac, &core.h, SLICES - 1, spin);
        let g2 = greens_from_udt(&stratify(&factors, StratAlgo::Qrp));
        let g3 = greens_from_udt(&stratify(&factors, StratAlgo::PrePivot));
        let diff = relative_difference(&g2.g, &g3.g);
        checks.check(
            &format!("chain: Alg. 2 vs Alg. 3 G agree ({spin:?})"),
            diff < 1e-8,
            format!("relative difference {diff:.3e}"),
        );
    }
}
