//! Layered benchmark of the DQMC workspace.
//!
//! ```text
//! perfbench --workload <chain_large|serve_mixed|fleet_campaign>
//!           --seed <n> --seconds <s> --trace <0|1> --workdir <dir> [--trace-out <file>]
//! ```
//!
//! Each workload sets itself up (timed as `setup_s`), runs its operations
//! for `--seconds`, checks the program's outputs against values computed
//! here, and prints one JSON result line last. With `--trace 1` the run
//! also records spans around every call into a layer, writes them as
//! Chrome trace-event JSON to `--trace-out`, and reports the per-layer
//! metrics instead of the end-to-end ones. `perfbench/run.py` builds this
//! binary and is the command to run; see `perfbench/README.md`.

mod chain;
mod common;
mod fleetw;
mod reference;
mod report;
mod served;
mod stats;
mod trace;

use std::path::PathBuf;
use std::time::Instant;

/// What every workload gets: its inputs' seed, its measuring time, the
/// tracer and a scratch directory it may write in.
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    pub tracer: trace::Tracer,
    pub workdir: PathBuf,
}

const WORKLOADS: [&str; 3] = ["chain_large", "serve_mixed", "fleet_campaign"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    workdir: PathBuf,
    trace_out: Option<PathBuf>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut workdir = None;
    let mut trace_out = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, got {other}")),
                })
            }
            "--workdir" => workdir = Some(PathBuf::from(value)),
            "--trace-out" => trace_out = Some(PathBuf::from(value)),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds must be in (0, 600], got {seconds}"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.unwrap_or(false),
        workdir: workdir.ok_or("--workdir is required")?,
        trace_out,
    })
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    // Fleet children re-enter this binary as `perfbench shard-child ...`.
    if argv.first().map(String::as_str) == Some("shard-child") {
        std::process::exit(fleet::child_main(&argv[1..]));
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&args.workdir) {
        eprintln!("perfbench: workdir {}: {e}", args.workdir.display());
        std::process::exit(2);
    }

    // The host reference comes first, before the workload warms anything.
    let host_ref = stats::host_ref_gflops();
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        tracer: trace::Tracer::new(args.trace),
        workdir: args.workdir.clone(),
    };
    let started = Instant::now();
    let mut out = match args.workload.as_str() {
        "chain_large" => chain::run(&ctx),
        "serve_mixed" => served::run(&ctx),
        "fleet_campaign" => fleetw::run(&ctx),
        _ => unreachable!("workload names are validated in parse_args"),
    };
    let wall = started.elapsed().as_secs_f64();
    out.e2e.insert("peak_rss_mb", stats::peak_rss_mb());
    println!(
        "# workload {} seed {} wall {wall:.3} s",
        args.workload, args.seed
    );
    println!("# host.ref_gflops {host_ref}");
    if let Some(m) = out.layer.get("trace.main_op_ms.p50") {
        println!("# main_op_ms.p50 {m}");
    }
    println!(
        "# checks passed {} failed {}",
        out.checks.passed(),
        out.checks.failed()
    );

    if args.trace {
        let tracer = &ctx.tracer;
        let cost_ns = trace::span_cost_ns();
        let spans = tracer.span_count() as f64;
        out.layer.insert("host.ref_gflops", host_ref);
        out.layer.insert("trace.spans", spans);
        out.layer.insert("trace.span_cost_ns", cost_ns);
        out.layer
            .insert("trace.overhead_pct", 100.0 * spans * cost_ns * 1e-9 / wall);
        println!("# self time by span (ms): name count total self");
        for (name, s) in tracer.summary() {
            println!(
                "#   {name:<28} {:>6} {:>12.3} {:>12.3}",
                s.count, s.total_ms, s.self_ms
            );
        }
        println!("# self time by layer (ms)");
        for (layer, ms) in tracer.layer_self_ms() {
            println!("#   {layer:<10} {ms:>12.3}");
        }
        if let Some(path) = &args.trace_out {
            let doc = tracer.chrome_json(&args.workload, args.seed);
            let written = path
                .parent()
                .map_or(Ok(()), std::fs::create_dir_all)
                .and_then(|()| std::fs::write(path, doc));
            match written {
                Ok(()) => println!("# trace written to {}", path.display()),
                Err(e) => {
                    out.checks
                        .check("trace written", false, format!("{}: {e}", path.display()))
                }
            }
        }
    }
    for (name, v) in &out.e2e {
        println!("# e2e {name} {v}");
    }
    println!("{}", report::result_line(&mut out, args.trace));
}
