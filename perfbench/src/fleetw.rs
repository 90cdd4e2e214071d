//! `fleet_campaign`: one small 4×4 grid run through `fleet::run_fleet`
//! with 2 child processes, repeated. It is the only workload that pays
//! process spawn, the manifest and report codecs, heartbeat supervision
//! and the merge. Each round runs the whole grid from scratch
//! (`chain_sweeps_per_s`), one point of it from scratch on one child
//! (`cold_ms.p50`), the whole grid over complete shard reports
//! (`warm_ms.*`), and steps a solo walker a few sweeps (`sweep_ms.p50`).

use crate::common::{sched_counts, timed_setup, SoloWalker};
use crate::report::Outcome;
use crate::stats::{median, percentile};
use crate::{reference, Ctx};
use fleet::{ChildCommand, FleetConfig, ShardReport};
use sched::{EventLog, GridSpec, SchedConfig, SweepReport};
use std::path::{Path, PathBuf};
use std::time::Instant;

const SIDE: usize = 4;
const PROCS: usize = 2;
/// Set-up repetitions whose median is `setup_s`.
const SETUPS: usize = 7;
/// The grid point a one-point fleet run computes: u = 4, β = 1.
const ONE_POINT: usize = 3;
/// Fleet runs over complete shard reports (warm) per round, after the
/// round's whole-grid and one-point runs from scratch.
const WARM_PER_ROUND: usize = 3;
/// Solo walker sweeps per round, after the round's fleet runs.
const WALKER_PER_ROUND: usize = 300;
/// The p90 of warm latency needs at least this many samples.
const MIN_WARM: usize = 100;

fn grid_text(seed: u64) -> String {
    format!(
        "lx = {SIDE}\nly = {SIDE}\nu = 2.0, 4.0\nbeta = 0.5, 1.0\nchains = 2\nwarmup = 5\n\
         sweeps = 15\nbin_size = 5\nseed = {seed}\nworkers = 1\ndevices = 1\n"
    )
}

fn fleet_config(dir: &Path, keep_files: bool) -> FleetConfig {
    let child = ChildCommand::current_exe("shard-child").expect("locate own executable");
    let mut cfg = FleetConfig::new(PROCS, child, dir.to_path_buf());
    cfg.keep_files = keep_files;
    cfg
}

/// Set-up: the in-process reference run of the grid, the first fleet
/// spawn, and a fleet run that leaves its complete shard reports in
/// `warm_dir` for the warm runs.
struct Prepared {
    text: String,
    spec: GridSpec,
    reference: String,
    report: SweepReport,
    inproc_s: f64,
    warm_dir: PathBuf,
}

fn prepare(ctx: &Ctx, k: usize) -> Prepared {
    let text = grid_text(ctx.seed);
    let spec = GridSpec::parse(&text).expect("fleet grid parses");
    let t = Instant::now();
    let report = sched::run_sweep(&spec, &SchedConfig::from_spec(&spec), &EventLog::new());
    let inproc_s = t.elapsed().as_secs_f64();
    let first = fleet::run_fleet(
        &text,
        &fleet_config(&ctx.workdir.join(format!("setup-{k}")), false),
    )
    .expect("first fleet run");
    assert_eq!(
        first.observables,
        report.observables_json(),
        "fleet output differs from the in-process run"
    );
    let warm_dir = ctx.workdir.join(format!("fleet-warm-{k}"));
    fleet::run_fleet(&text, &fleet_config(&warm_dir, true))
        .expect("fleet run that keeps its reports");
    Prepared {
        text,
        reference: report.observables_json(),
        spec,
        report,
        inproc_s,
        warm_dir,
    }
}

pub fn run(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::new();
    let mut inproc = Vec::new();
    let (prep, setup_s) = timed_setup(
        SETUPS,
        |k| {
            let p = prepare(ctx, k);
            inproc.push(p.inproc_s);
            p
        },
        drop,
    );
    out.e2e.insert("setup_s", setup_s);
    let sweeps_per_campaign =
        prep.spec.points().len() * prep.spec.chains * (prep.spec.warmup + prep.spec.sweeps);

    let cfg = fleet_config(&ctx.workdir.join("fleet"), false);
    let one_cfg = fleet_config(&ctx.workdir.join("fleet-one"), false);
    // Warm runs go over shard reports that are already complete: each
    // child resumes its report, finds nothing to do and exits.
    let warm_cfg = fleet_config(&prep.warm_dir, true);
    let want_one = reference::point_fragment(&prep.reference, ONE_POINT)
        .expect("the reference holds every point")
        .to_string();
    let mut walker = SoloWalker::new(prep.spec.chain_params(&prep.spec.points()[ONE_POINT], 0));
    let (mut whole, mut one, mut warm) = (Vec::new(), Vec::new(), Vec::new());
    let (mut mismatched, mut respawns, mut kills) = (0u32, 0u32, 0u32);
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < ctx.seconds || warm.len() < MIN_WARM {
        for slot in 0..2 + WARM_PER_ROUND {
            let (name, samples, points, cfg) = match slot {
                0 => ("fleet.run_fleet", &mut whole, None, &cfg),
                1 => (
                    "fleet.run_fleet_one",
                    &mut one,
                    Some(&[ONE_POINT][..]),
                    &one_cfg,
                ),
                _ => ("fleet.run_fleet_warm", &mut warm, None, &warm_cfg),
            };
            let t = Instant::now();
            let run = ctx.tracer.span(name, out.attempted, || {
                fleet::run_fleet_subset(&prep.text, points, cfg)
            });
            let ms = t.elapsed().as_secs_f64() * 1e3;
            out.attempted += 1;
            match run {
                Ok(o) => {
                    samples.push(ms);
                    let same = match points {
                        None => o.observables == prep.reference,
                        Some(_) => {
                            reference::point_fragment(&o.observables, ONE_POINT)
                                == Some(want_one.as_str())
                        }
                    };
                    mismatched += u32::from(!same);
                    respawns += o.respawns;
                    kills += o.kills;
                }
                Err(e) => {
                    out.failed += 1;
                    eprintln!("fleet campaign failed: {e}");
                }
            }
        }
        walker.sweeps(ctx, WALKER_PER_ROUND);
    }
    out.e2e.insert(
        "chain_sweeps_per_s",
        sweeps_per_campaign as f64 / (median(&whole) * 1e-3),
    );
    out.e2e.insert("cold_ms.p50", median(&one));
    out.e2e.insert("warm_ms.p50", median(&warm));
    out.e2e.insert("warm_ms.p90", percentile(&warm, 90.0));
    let all_ms: f64 = whole.iter().chain(&one).chain(&warm).sum();
    out.e2e.insert(
        "req_per_s",
        (whole.len() + one.len() + warm.len()) as f64 / (all_ms * 1e-3),
    );
    out.e2e.insert("device_s", prep.report.device_seconds);
    out.layer.insert("trace.main_op_ms.p50", median(&whole));

    out.checks.check(
        "fleet: merged output is byte-identical to the in-process run",
        mismatched == 0,
        format!(
            "{} whole-grid + {} one-point + {} warm fleet runs, {mismatched} differ",
            whole.len(),
            one.len(),
            warm.len()
        ),
    );
    out.checks.check(
        "fleet: no respawns or kills in a fault-free run",
        respawns == 0 && kills == 0,
        format!("respawns {respawns}, kills {kills}"),
    );
    reference::check_kernels(SIDE * SIDE, ctx.seed, &mut out.checks);
    walker.finish(ctx, &mut out);

    if ctx.tracer.enabled() {
        merge_probe(ctx, &prep.warm_dir, &mut out);
        sched_counts(&prep.report, &mut out);
        let l = &mut out.layer;
        l.insert("fleet.inproc_s", median(&inproc));
        l.insert("fleet.respawns", f64::from(respawns));
        l.insert("fleet.kills", f64::from(kills));
    }
    out
}

/// `merge_reports` over the shard reports a fleet run left, and their size.
fn merge_probe(ctx: &Ctx, dir: &Path, out: &mut Outcome) {
    let mut reports = Vec::new();
    let mut bytes = 0u64;
    for shard in 0..PROCS {
        let path = dir.join(format!("shard-{shard}.dqsr"));
        bytes += std::fs::metadata(&path).map_or(0, |m| m.len());
        reports.push(ShardReport::read(&path).expect("shard report reads"));
    }
    let merge_ms = reference::time_spans(&ctx.tracer, "fleet.merge", 20, || {
        std::hint::black_box(fleet::merge_reports(&reports).expect("reports merge"));
    });
    out.layer.insert("fleet.merge_ms", merge_ms);
    out.layer.insert("fleet.report_bytes", bytes as f64);
}
