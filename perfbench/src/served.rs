//! `serve_mixed`: a resident server bound in-process on `127.0.0.1:0` with
//! a result cache, driven by one closed-loop `serve::Client` (one
//! connection). Requests come in rounds of four small grids: one fresh
//! grid (cold: computed, then written back to the cache) and three
//! repeats of grids computed during set-up (warm: cache reads, no jobs),
//! in a seeded order. Compute stays small, so per-request overhead shows.
//! Each round then runs its cold grid again in-process
//! (`chain_sweeps_per_s`, and the served bytes are checked against it) and
//! steps a solo walker a few sweeps (`sweep_ms.p50`).

use crate::common::{park_layer_probe, sched_counts, timed_setup, SoloWalker};
use crate::reference::{self, SplitMix};
use crate::report::Outcome;
use crate::stats::{median, percentile};
use crate::Ctx;
use dqmc::Simulation;
use sched::{EventLog, GridSpec, SchedConfig, ServiceConfig, SweepReport};
use serve::{Client, Lookup, ResultCache, Server, ServerConfig};
use std::path::PathBuf;
use std::thread::JoinHandle;
use std::time::Instant;

const SIDE: usize = 4;
const BETA: f64 = 0.5;
/// Grids computed in set-up that warm requests repeat.
const REPEATS: usize = 4;
/// Warm requests per round, after the round's one cold request.
const WARM_PER_ROUND: usize = 3;
/// The p90 of warm latency needs at least this many warm requests.
const MIN_WARM: usize = 100;
/// Solo walker sweeps per round, after the round's requests and its
/// in-process run.
const WALKER_PER_ROUND: usize = 200;
/// Set-up repetitions whose median is `setup_s`.
const SETUPS: usize = 5;
const TENANT: &str = "perfbench";

/// The server's execution resources: 2 workers, 2 simulated devices, a
/// 10-sweep quantum.
fn service_config() -> ServiceConfig {
    ServiceConfig {
        workers: 2,
        devices: 2,
        quantum: 10,
        ..ServiceConfig::default()
    }
}

/// A 4×4 grid with a U = 0 point (index 0) and a U = 4 point (index 1);
/// `grid_seed` makes it a distinct cache key.
fn grid_text(grid_seed: u64) -> String {
    format!(
        "lx = {SIDE}\nly = {SIDE}\nu = 0.0, 4.0\nbeta = {BETA}\nchains = 1\nwarmup = 5\n\
         sweeps = 15\nbin_size = 5\nseed = {grid_seed}\n"
    )
}

fn grid_seed(seed: u64, n: u64) -> u64 {
    let mut r = SplitMix::new(seed.wrapping_mul(0x1000_0001).wrapping_add(n));
    r.next_u64() >> 16
}

struct Running {
    client: Client,
    thread: JoinHandle<std::io::Result<()>>,
    cache_dir: PathBuf,
    /// (grid text, observables of its cold reply) for every repeat grid.
    repeats: Vec<(String, String)>,
    free_walker: Simulation,
}

fn start(ctx: &Ctx, k: usize) -> Running {
    let cache_dir = ctx.workdir.join(format!("cache-{k}"));
    let _ = std::fs::remove_dir_all(&cache_dir);
    let cfg = ServerConfig {
        service: service_config(),
        cache_dir: Some(cache_dir.clone()),
        ..ServerConfig::default()
    };
    let server = Server::bind("127.0.0.1:0", &cfg).expect("bind the in-process server");
    let addr = server.local_addr().to_string();
    let thread = std::thread::spawn(move || server.run());
    let mut client = Client::connect(&addr).expect("connect to the in-process server");
    let repeats = (0..REPEATS as u64)
        .map(|r| {
            let grid = grid_text(grid_seed(ctx.seed, r));
            let reply = client
                .submit(TENANT, 0, &grid)
                .expect("set-up grid is served");
            (grid, reply.observables)
        })
        .collect();
    let spec = GridSpec::parse(&grid_text(grid_seed(ctx.seed, 0))).expect("grid parses");
    let mut free_walker = Simulation::new(spec.chain_params(&spec.points()[0], 0));
    free_walker.run();
    Running {
        client,
        thread,
        cache_dir,
        repeats,
        free_walker,
    }
}

fn stop(mut r: Running) {
    let _ = r.client.shutdown();
    match r.thread.join() {
        Ok(Ok(())) => {}
        Ok(Err(e)) => eprintln!("server ended with {e}"),
        Err(_) => eprintln!("server thread panicked"),
    }
}

pub fn run(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::new();
    let (mut srv, setup_s) = timed_setup(SETUPS, |k| start(ctx, k), stop);
    out.e2e.insert("setup_s", setup_s);
    let before = srv.client.stats().expect("stats before the loop");

    let sc = service_config();
    let cfg = SchedConfig {
        workers: sc.workers,
        devices: sc.devices,
        quantum: sc.quantum,
        ..SchedConfig::default()
    };
    let shape = GridSpec::parse(&srv.repeats[0].0).expect("grid parses");
    let mut walker = SoloWalker::new(shape.chain_params(&shape.points()[1], 0));
    let mut order = SplitMix::new(ctx.seed ^ 0x5E4E);
    let (mut cold, mut warm, mut inproc) = (Vec::new(), Vec::new(), Vec::new());
    let (mut bad_cold, mut bad_warm, mut differ) = (Vec::new(), Vec::new(), Vec::new());
    let mut first: Option<(String, SweepReport)> = None;
    let start_loop = Instant::now();
    let mut req = 0u64;
    while start_loop.elapsed().as_secs_f64() < ctx.seconds || warm.len() < MIN_WARM {
        sync_connection(&mut srv.client);
        let mut round_cold: Option<(String, String)> = None;
        for slot in 0..=WARM_PER_ROUND {
            let is_cold = slot == 0;
            let (grid, expect) = if is_cold {
                (grid_text(grid_seed(ctx.seed, 1_000_000 + req)), None)
            } else {
                let (g, obs) = &srv.repeats[order.below(REPEATS)];
                (g.clone(), Some(obs))
            };
            let t = Instant::now();
            let reply = ctx
                .tracer
                .span("serve.submit", req, || srv.client.submit(TENANT, 0, &grid));
            let ms = t.elapsed().as_secs_f64() * 1e3;
            req += 1;
            out.attempted += 1;
            let reply = match reply {
                Ok(r) => r,
                Err(e) => {
                    out.failed += 1;
                    eprintln!("request {req} failed: {e}");
                    continue;
                }
            };
            match expect {
                None => {
                    cold.push(ms);
                    let free = reference::point_fragment(&reply.observables, 0).unwrap_or("");
                    let kin = reference::json_value(free, "kinetic");
                    let want = reference::band_kinetic(SIDE, 1.0, BETA);
                    if reply.jobs_run == 0
                        || reply.computed_points != 2
                        || !kin.is_some_and(|k| (k - want).abs() < 1e-9)
                    {
                        bad_cold.push(req);
                    }
                    round_cold = Some((grid, reply.observables));
                }
                Some(obs) => {
                    warm.push(ms);
                    if reply.jobs_run != 0 || reply.observables != *obs {
                        bad_warm.push(req);
                    }
                }
            }
        }
        // The round's cold grid again, in-process with the server's
        // resources: the same bytes, and the compute without the service.
        if let Some((grid, served)) = round_cold {
            let spec = GridSpec::parse(&grid).expect("grid parses");
            let t = Instant::now();
            let report = ctx.tracer.span("serve.compute", req, || {
                sched::run_sweep(&spec, &cfg, &EventLog::new())
            });
            inproc.push(t.elapsed().as_secs_f64() * 1e3);
            if report.observables_json() != served {
                differ.push(req);
            }
            first.get_or_insert((grid, report));
        }
        walker.sweeps(ctx, WALKER_PER_ROUND);
    }
    let after = srv.client.stats().expect("stats after the loop");

    out.e2e.insert("cold_ms.p50", median(&cold));
    out.e2e.insert("warm_ms.p50", median(&warm));
    out.e2e.insert("warm_ms.p90", percentile(&warm, 90.0));
    // Closed loop: requests per second of time spent in requests.
    let request_ms: f64 = cold.iter().chain(&warm).sum();
    out.e2e.insert(
        "req_per_s",
        (cold.len() + warm.len()) as f64 / (request_ms * 1e-3),
    );
    // Chain sweeps of one cold grid per second of its median in-process run.
    let sweeps_per_grid = shape.points().len() * shape.chains * (shape.warmup + shape.sweeps);
    out.e2e.insert(
        "chain_sweeps_per_s",
        sweeps_per_grid as f64 / (median(&inproc) * 1e-3),
    );
    out.layer.insert("trace.main_op_ms.p50", median(&warm));

    out.checks.check(
        "serve: every cold reply computed both points; its U=0 kinetic energy equals the band sum",
        bad_cold.is_empty(),
        format!("{} cold requests, bad: {bad_cold:?}", cold.len()),
    );
    out.checks.check(
        "serve: every warm reply is byte-identical to its cold reply, with jobs_run = 0",
        bad_warm.is_empty(),
        format!("{} warm requests, bad: {bad_warm:?}", warm.len()),
    );
    out.checks.check(
        "serve: every cold reply equals the same grid run in-process",
        differ.is_empty(),
        format!(
            "{} in-process runs, differing after request: {differ:?}",
            inproc.len()
        ),
    );
    let (hits, misses) = (
        after.cache_hits - before.cache_hits,
        after.cache_misses - before.cache_misses,
    );
    out.checks.check(
        "serve: cache hits and misses match the repeat share",
        hits == 2 * warm.len() as u64 && misses == 2 * cold.len() as u64,
        format!(
            "hits {hits} misses {misses} for {} warm / {} cold",
            warm.len(),
            cold.len()
        ),
    );
    for (_, obs) in &srv.repeats {
        let frag = reference::point_fragment(obs, 0).unwrap_or("");
        reference::check_free_point(frag, SIDE, 1.0, BETA, "serve", &mut out.checks);
    }
    reference::check_free_nk(&srv.free_walker, "serve", &mut out.checks);
    reference::check_kernels(SIDE * SIDE, ctx.seed, &mut out.checks);

    let (grid, report) = first.expect("at least one cold request");
    out.e2e.insert("device_s", report.device_seconds);
    if ctx.tracer.enabled() {
        let spec = GridSpec::parse(&grid).expect("grid parses");
        serve_probes(ctx, &mut srv, &spec, &mut out);
        let params = vec![spec.chain_params(&spec.points()[1], 0)];
        park_layer_probe(ctx, params, service_config().quantum, &mut out);
        sched_counts(&report, &mut out);
        let l = &mut out.layer;
        l.insert("serve.compute_ms", median(&inproc));
        l.insert("serve.cache_hits", hits as f64);
        l.insert("serve.cache_misses", misses as f64);
    }
    stop(srv);
    walker.finish(ctx, &mut out);
    out
}

/// One untimed stats round trip before a round's requests. After the pause
/// the previous round's in-process run and walker sweeps make, the kernel
/// acknowledges the connection's next segments at once instead of
/// delaying the acknowledgement as it does on a busy request/response
/// connection; this exchange puts the connection back into that busy
/// state, so the timed requests see what a client that keeps sending sees.
fn sync_connection(client: &mut Client) {
    client.stats().expect("stats round trip");
}

/// The traced run's `serve` probes: a cache lookup, a cache store (one
/// fsynced atomic write) and a stats round trip.
fn serve_probes(ctx: &Ctx, srv: &mut Running, cold_spec: &GridSpec, out: &mut Outcome) {
    let spec = GridSpec::parse(&srv.repeats[0].0).expect("grid parses");
    let key = serve::point_key(&spec, &spec.points()[0]);
    let cache = ResultCache::open(&srv.cache_dir).expect("open the server's cache");
    let mut summary = None;
    let lookup_ms = reference::time_spans(&ctx.tracer, "serve.cache_lookup", 20, || {
        if let Lookup::Hit(s) = cache.lookup(key) {
            summary = Some(s);
        }
    });
    let summary = summary.expect("a repeat grid's point is cached");
    let scratch = ResultCache::open(&ctx.workdir.join("store-probe")).expect("scratch cache");
    let cold_key = serve::point_key(cold_spec, &cold_spec.points()[0]);
    let store_ms = reference::time_spans(&ctx.tracer, "serve.cache_store", 20, || {
        scratch
            .store(cold_key, &summary)
            .expect("store to the scratch cache");
    });
    let client = &mut srv.client;
    let rtt_ms = reference::time_spans(&ctx.tracer, "serve.stats", 20, || {
        client.stats().expect("stats round trip");
    });
    out.layer.insert("serve.cache_lookup_ms", lookup_ms);
    out.layer.insert("serve.cache_store_ms", store_ms);
    out.layer.insert("serve.stats_rtt_ms", rtt_ms);
}
