//! What one run reports: the correctness checks, the operation counts and
//! the metrics, printed as the run's last line of standard output.

use std::collections::BTreeMap;

/// End-to-end metrics: every workload reports all of them.
pub const END_TO_END: [(&str, &str); 9] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("sweep_ms.p50", "ms"),
    ("chain_sweeps_per_s", "1/s"),
    ("device_s", "s_modeled"),
    ("cold_ms.p50", "ms"),
    ("warm_ms.p50", "ms"),
    ("warm_ms.p90", "ms"),
    ("req_per_s", "1/s"),
];

/// Per-layer metrics of the traced run. A workload that never calls a
/// layer reports that layer's figures as 0.
pub const PER_LAYER: [(&str, &str); 36] = [
    ("linalg.gemm_gflops", "GFLOP/s"),
    ("linalg.qr_gflops", "GFLOP/s"),
    ("linalg.batched_gemm_gflops", "GFLOP/s"),
    ("core.delayed_update_ms", "ms"),
    ("core.stratification_ms", "ms"),
    ("core.clustering_ms", "ms"),
    ("core.wrapping_ms", "ms"),
    ("core.measurement_ms", "ms"),
    ("core.greens_eval_ms", "ms"),
    ("core.b_mul_ms", "ms"),
    ("core.cluster_reuse_ratio", "ratio"),
    ("core.acceptance", "ratio"),
    ("gpusim.leases_granted", "count"),
    ("gpusim.lease_misses", "count"),
    ("sched.jobs", "count"),
    ("sched.quanta", "count"),
    ("sched.preemptions", "count"),
    ("sched.retries", "count"),
    ("sched.park_ms", "ms"),
    ("sched.park_bytes", "bytes"),
    ("serve.cache_lookup_ms", "ms"),
    ("serve.stats_rtt_ms", "ms"),
    ("serve.cache_store_ms", "ms"),
    ("serve.compute_ms", "ms"),
    ("serve.cache_hits", "count"),
    ("serve.cache_misses", "count"),
    ("fleet.inproc_s", "s"),
    ("fleet.merge_ms", "ms"),
    ("fleet.report_bytes", "bytes"),
    ("fleet.respawns", "count"),
    ("fleet.kills", "count"),
    ("host.ref_gflops", "GFLOP/s"),
    ("trace.spans", "count"),
    ("trace.span_cost_ns", "ns"),
    ("trace.overhead_pct", "%"),
    ("trace.main_op_ms.p50", "ms"),
];

/// Correctness checks made during a run. Any failure makes the run
/// incorrect; every check is listed on standard error.
#[derive(Default)]
pub struct Checks {
    failures: Vec<String>,
    passed: usize,
}

impl Checks {
    pub fn check(&mut self, name: &str, ok: bool, detail: String) {
        if ok {
            self.passed += 1;
            eprintln!("check ok   {name}: {detail}");
        } else {
            eprintln!("check FAIL {name}: {detail}");
            self.failures.push(format!("{name}: {detail}"));
        }
    }

    pub fn all_passed(&self) -> bool {
        self.failures.is_empty()
    }

    pub fn passed(&self) -> usize {
        self.passed
    }

    pub fn failed(&self) -> usize {
        self.failures.len()
    }
}

/// Everything a workload hands back.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// End-to-end values by name.
    pub e2e: BTreeMap<&'static str, f64>,
    /// Per-layer values by name (traced run only).
    pub layer: BTreeMap<&'static str, f64>,
    pub checks: Checks,
}

impl Outcome {
    pub fn new() -> Outcome {
        Outcome {
            attempted: 0,
            failed: 0,
            e2e: BTreeMap::new(),
            layer: BTreeMap::new(),
            checks: Checks::default(),
        }
    }
}

/// The result line: `correct`, `attempted`, `failed` and the metrics of the
/// run's mode. A metric the workload left out, or one that is not finite,
/// makes the run incorrect rather than printing a made-up value.
pub fn result_line(out: &mut Outcome, traced: bool) -> String {
    let (names, values): (&[(&str, &str)], &BTreeMap<&str, f64>) = if traced {
        (&PER_LAYER, &out.layer)
    } else {
        (&END_TO_END, &out.e2e)
    };
    let mut parts = Vec::new();
    let mut missing = Vec::new();
    for (name, unit) in names {
        let v = match values.get(name) {
            Some(v) if v.is_finite() => *v,
            Some(v) => {
                missing.push(format!("{name}={v}"));
                0.0
            }
            None if traced => 0.0,
            None => {
                missing.push(format!("{name} not measured"));
                0.0
            }
        };
        parts.push(format!(
            // `{:?}` keeps every digit measured and always reads as a JSON number.
            "\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}"
        ));
    }
    for m in missing {
        out.checks.check("metric measured", false, m);
    }
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.checks.all_passed(),
        out.attempted,
        out.failed,
        parts.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The metric lists here and in BENCHMARK.json must name the same
    /// metrics with the same units, in the same order.
    #[test]
    fn metric_lists_match_benchmark_json() {
        let json = include_str!("../../BENCHMARK.json");
        let section = |key: &str| -> Vec<(String, String)> {
            let start = json.find(&format!("\"{key}\"")).expect("section present");
            let body = &json[start..json[start..].find(']').expect("section closes") + start];
            body.split("{\"name\": \"")
                .skip(1)
                .map(|entry| {
                    let name = entry.split('"').next().expect("name").to_string();
                    let unit = entry
                        .split("\"unit\": \"")
                        .nth(1)
                        .and_then(|u| u.split('"').next())
                        .expect("unit")
                        .to_string();
                    (name, unit)
                })
                .collect()
        };
        let own = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(section("end_to_end"), own(&END_TO_END));
        assert_eq!(section("per_layer"), own(&PER_LAYER));
    }
}
