//! The metric names, units and directions — the single source `BENCHMARK.json`
//! is generated from (`spec` subcommand) and the runner prints against.

use crate::workloads::SPECS;
use std::fmt::Write;

/// Which way is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller values are better.
    Lower,
    /// Larger values are better.
    Higher,
}

use Better::{Higher, Lower};

/// One metric's definition.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    /// Name as printed.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
}

const fn m(name: &'static str, unit: &'static str, better: Better) -> Metric {
    Metric { name, unit, better }
}

/// How long one run measures (`run_seconds`).
pub const RUN_SECONDS: u64 = 10;

/// End-to-end metrics with the share of the parent's median each may worsen
/// by. Reported per workload, from the untraced run.
///
/// ISSUE 11 asked for 10% on the two timing metrics and on memory, and 25% on
/// set-up. `BENCHMARK.json` carries one bound per metric for all workloads,
/// and the driver refuses a benchmark whose own quartile spread over ten runs
/// exceeds the bound on any workload, or whose medians over two successive
/// sets of ten differ by more. So each bound is the ISSUE's figure unless the
/// worst workload, measured on the shared 2-vCPU box that defined the
/// benchmark, forbids it:
///
/// - memory does not drift with the machine's speed and never spread by more
///   than 1.5%: 10%;
/// - the timing metrics do. Six A/A passes over one day had worst spreads of
///   7.7, 4.6, 10.5, 5.3, 8.0 and 12.7% (`pp_inproc_threadless`, `pp_udp`
///   and `bulk_udp`; the other workloads stayed within 1–5%), and between
///   two passes of unchanged estimators forty minutes apart the medians of
///   `pp_inproc` and `pp_inproc_threadless` moved by 9% and that of
///   `bulk_udp` by 25% (15.7 ms to 19.7 ms). No estimator inside a 10 s run
///   sees through a machine that is a tenth slower for minutes; a 10% or 15%
///   bound would refuse unchanged code here, so all three get the format's
///   largest, 25%.
///
/// The bound stops regressions larger than the box's drift. A claim of a
/// gain, or of no change within a few percent, is made on alternating pairs
/// of parent and change (choosing-metrics §8), which cancel the drift.
pub const END_TO_END: [(Metric, f64); 4] = [
    (m("setup_s", "s", Lower), 0.25),
    (m("op_p50_us", "us", Lower), 0.25),
    (m("ops_per_s", "1/s", Higher), 0.25),
    (m("peak_rss_mib", "MiB", Lower), 0.10),
];

/// ISSUE 11 gates `setup_s` at "25% or 0.1 s", whichever is more. The file
/// format has no place for the absolute part, so it lives here: `aa` applies
/// it, and a reviewer reading a `setup_s` regression should too. The driver
/// applies the 25% alone, which is why warm-up is a full block (see
/// [`Spec::block_ops`](crate::workloads::Spec)): at about 0.12 s of set-up,
/// 25% is a shift of 30 ms, not of 4 ms.
pub const SETUP_FLOOR_S: f64 = 0.1;

/// Per-layer metrics, grouped by the crate they describe. None is gated.
pub const PER_LAYER: [Metric; 70] = [
    // wire, types: direct calls.
    m("wire.header_encode_ns", "ns", Lower),
    m("wire.header_decode_ns", "ns", Lower),
    m("wire.crc32c_gib_s", "GiB/s", Higher),
    m("types.region_alloc_ns", "ns", Lower),
    // net: ladder and counts.
    m("net.rtt_p50_us", "us", Lower),
    m("net.xfer_mib_s", "MiB/s", Higher),
    m("net.packets_per_op", "count", Lower),
    // netudp: ladder and counts.
    m("netudp.rtt_p50_us", "us", Lower),
    m("netudp.xfer_mib_s", "MiB/s", Higher),
    m("netudp.raw_socket_rtt_p50_us", "us", Lower),
    m("netudp.raw_socket_mib_s", "MiB/s", Higher),
    m("netudp.syscalls_per_mib", "count", Lower),
    m("netudp.avg_send_batch", "count", Higher),
    m("netudp.avg_recv_batch", "count", Higher),
    m("netudp.frame_overhead_ratio", "ratio", Lower),
    m("netudp.wouldblock_retries", "count", Lower),
    m("netudp.send_errors", "count", Lower),
    m("netudp.checksum_rejects", "count", Lower),
    // transport: ladder and counts.
    m("transport.rtt_p50_us", "us", Lower),
    m("transport.udp_rtt_p50_us", "us", Lower),
    m("transport.xfer_mib_s", "MiB/s", Higher),
    m("transport.udp_xfer_mib_s", "MiB/s", Higher),
    m("transport.self_rtt_us", "us", Lower),
    m("transport.udp_self_rtt_us", "us", Lower),
    m("transport.data_packets_per_op", "count", Lower),
    m("transport.acks_per_op", "count", Lower),
    m("transport.acks_coalesced_ratio", "ratio", Higher),
    m("transport.retransmit_ratio", "ratio", Lower),
    m("transport.ooo_buffered_per_op", "count", Lower),
    m("transport.credit_stalls", "count", Lower),
    m("transport.peers_stalled", "count", Lower),
    // portals: ladder and counts.
    m("portals.rtt_p50_us", "us", Lower),
    m("portals.rtt_p50_us.threadless", "us", Lower),
    m("portals.udp_rtt_p50_us", "us", Lower),
    m("portals.put_mib_s", "MiB/s", Higher),
    m("portals.get_mib_s", "MiB/s", Higher),
    m("portals.udp_put_mib_s", "MiB/s", Higher),
    m("portals.self_rtt_us", "us", Lower),
    m("portals.copies_per_message", "ratio", Lower),
    m("portals.dropped_total", "count", Lower),
    m("portals.events_overwritten", "count", Lower),
    m("portals.triggered_fired_per_op", "count", Lower),
    // mpi: spans, ladder differences and counts.
    m("mpi.send_us", "us", Lower),
    m("mpi.recv_us", "us", Lower),
    m("mpi.isend_us", "us", Lower),
    m("mpi.irecv_post_us", "us", Lower),
    m("mpi.wait_us", "us", Lower),
    m("mpi.expected_burst_us", "us", Lower),
    m("mpi.unexpected_burst_us", "us", Lower),
    m("mpi.osc.put_us", "us", Lower),
    m("mpi.osc.sync_us", "us", Lower),
    m("mpi.osc.fetch_add_us", "us", Lower),
    m("mpi.self_rtt_us", "us", Lower),
    m("mpi.udp_self_rtt_us", "us", Lower),
    m("mpi.vs_portals_put_ratio", "ratio", Higher),
    m("mpi.eager_decisions_per_op", "count", Lower),
    m("mpi.rdvz_decisions_per_op", "count", Lower),
    m("mpi.region_pool_hit_ratio", "ratio", Higher),
    // runtime: spans.
    m("runtime.allreduce_us", "us", Lower),
    m("runtime.launch_s", "s", Lower),
    m("runtime.rendezvous_s", "s", Lower),
    // obs and the harness's own tracing.
    m("obs.ring_overhead_pct", "%", Lower),
    m("obs.span_overhead_pct", "%", Lower),
    // The workload's processes as the kernel saw them.
    m("proc.ctx_switches_per_op", "count", Lower),
    m("proc.sys_cpu_share", "ratio", Lower),
    m("proc.cpu_us_per_op", "us", Lower),
    m("proc.idle_share", "ratio", Lower),
    // Tail of the op time: diagnostic, too noisy to gate.
    m("tail.op_p99_us", "us", Lower),
    m("tail.op_p999_us", "us", Lower),
    m("tail.op_max_us", "us", Lower),
];

fn better(b: Better) -> &'static str {
    match b {
        Lower => "lower",
        Higher => "higher",
    }
}

/// The contents of `BENCHMARK.json`.
pub fn benchmark_json() -> String {
    let mut s = String::from("{\n");
    s.push_str(
        "  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", \
         \"--manifest-path\", \"benchmark/Cargo.toml\", \"--\"],\n",
    );
    s.push_str("  \"paths\": [\"benchmark\"],\n");
    let _ = writeln!(s, "  \"run_seconds\": {RUN_SECONDS},");
    s.push_str("  \"workloads\": [\n");
    for (i, w) in SPECS.iter().enumerate() {
        let comma = if i + 1 < SPECS.len() { "," } else { "" };
        let _ = writeln!(
            s,
            "    {{\"name\": \"{}\", \"why\": \"{}\"}}{comma}",
            w.name, w.why
        );
    }
    s.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, (metric, bound)) in END_TO_END.iter().enumerate() {
        let comma = if i + 1 < END_TO_END.len() { "," } else { "" };
        let _ = writeln!(
            s,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {bound}}}{comma}",
            metric.name,
            metric.unit,
            better(metric.better)
        );
    }
    s.push_str("  ],\n  \"per_layer\": [\n");
    for (i, metric) in PER_LAYER.iter().enumerate() {
        let comma = if i + 1 < PER_LAYER.len() { "," } else { "" };
        let _ = writeln!(
            s,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}{comma}",
            metric.name,
            metric.unit,
            better(metric.better)
        );
    }
    s.push_str("  ]\n}\n");
    s
}

/// The result line: one JSON object, printed last on standard output.
pub fn result_json(correct: bool, attempted: u64, failed: u64, values: &[(Metric, f64)]) -> String {
    let metrics: Vec<String> = values
        .iter()
        .map(|(metric, v)| {
            // Rust prints the shortest digits that read back as the same
            // number: every digit measured, and valid JSON as long as the
            // value is finite.
            let v = if v.is_finite() { *v } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                metric.name, metric.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{}}}}}",
        metrics.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn legal_name(s: &str) -> bool {
        s.len() <= 64
            && s.starts_with(|c: char| c.is_ascii_alphanumeric())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn names_and_units_fit_the_benchmark_contract() {
        let mut seen = BTreeSet::new();
        let all = END_TO_END.iter().map(|(m, _)| m).chain(&PER_LAYER);
        for metric in all {
            assert!(legal_name(metric.name), "{}", metric.name);
            assert!(seen.insert(metric.name), "{} used twice", metric.name);
            assert!(
                !metric.unit.is_empty()
                    && metric.unit.len() <= 16
                    && metric
                        .unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "{}",
                metric.unit
            );
        }
        for w in &SPECS {
            assert!(legal_name(w.name) && seen.insert(w.name), "{}", w.name);
            assert!(
                w.why.len() <= 200 && !w.why.contains(['\n', '"']),
                "{}",
                w.name
            );
        }
        assert!(END_TO_END.iter().all(|(_, bound)| *bound <= 0.25));
        assert_eq!(END_TO_END[0].0.name, "setup_s");
    }

    #[test]
    fn committed_benchmark_json_is_the_generated_one() {
        let committed = include_str!("../../BENCHMARK.json");
        assert_eq!(
            committed,
            benchmark_json(),
            "regenerate with `cargo run --manifest-path benchmark/Cargo.toml -- spec`"
        );
    }

    #[test]
    fn result_line_is_one_json_object() {
        let line = result_json(
            true,
            10,
            0,
            &[(END_TO_END[1].0, 83.25), (END_TO_END[2].0, f64::NAN)],
        );
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": \
             {\"op_p50_us\": {\"value\": 83.25, \"unit\": \"us\"}, \
             \"ops_per_s\": {\"value\": 0, \"unit\": \"1/s\"}}}"
        );
    }
}
