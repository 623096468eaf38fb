//! The metric tables. `BENCHMARK.json` repeats them for the driver; a
//! self-test keeps the two in step.

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
}

/// Reported by every workload in an untraced run.
pub const END_TO_END: &[EndToEnd] = &[
    EndToEnd {
        name: "setup_s",
        unit: "s",
    },
    EndToEnd {
        name: "op_ms_p50",
        unit: "ms",
    },
    EndToEnd {
        name: "throughput_ops",
        unit: "1/s",
    },
    EndToEnd {
        name: "hops_per_byte",
        unit: "hops",
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
    },
];

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    /// Names of the spans whose summed self time is this metric; empty
    /// for metrics that are not read off spans.
    pub spans: &'static [&'static str],
}

const fn timed(name: &'static str, spans: &'static [&'static str]) -> PerLayer {
    PerLayer {
        name,
        unit: "ms",
        spans,
    }
}

const fn other(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        spans: &[],
    }
}

/// Reported by every workload in a traced run; a layer the workload does
/// not cross reads 0.
pub const PER_LAYER: &[PerLayer] = &[
    timed("core.topolb.map_ms", &["core.topolb.map"]),
    timed("core.topocentlb.map_ms", &["core.topocentlb.map"]),
    other("core.topolb.ns_per_cell", "ns/cell"),
    other("topology.torus.distance_ns", "ns/call"),
    other("core.par.auto_ms", "ms"),
    other("core.par.auto_over_t1", "ratio"),
    timed(
        "core.refine.sweep_ms",
        &["core.refine.sweep", "core.refine.zero_accept"],
    ),
    timed("core.refine.zero_accept_ms", &["core.refine.zero_accept"]),
    other("core.refine.accepted", "count"),
    timed("core.hierarchy.map_ms", &["core.hierarchy.map"]),
    timed("core.geom.sfc_ms", &["core.geom.sfc"]),
    timed("core.geom.rcb_ms", &["core.geom.rcb"]),
    timed(
        "partition.multilevel.partition_ms",
        &["partition.multilevel.partition"],
    ),
    timed("partition.coalesce_ms", &["partition.coalesce"]),
    other("partition.multilevel.edge_cut", "bytes"),
    other("partition.multilevel.imbalance", "ratio"),
    timed("core.metrics.hop_bytes_ms", &["core.metrics.hop_bytes"]),
    other("serve.net.ping_rtt_ms", "ms"),
    other("serve.net.ping_rtt_unix_ms", "ms"),
    other("serve.proto.request_bytes", "bytes"),
    timed(
        "serve.proto.encode_request_ms",
        &["serve.proto.encode_request"],
    ),
    timed(
        "serve.proto.decode_request_ms",
        &["serve.proto.decode_request"],
    ),
    timed(
        "serve.proto.encode_response_ms",
        &["serve.proto.encode_response"],
    ),
    timed(
        "serve.proto.decode_response_ms",
        &["serve.proto.decode_response"],
    ),
    other("serve.proto.decode_mb_per_s", "MB/s"),
    timed(
        "lb.database.to_task_graph_ms",
        &["lb.database.to_task_graph"],
    ),
    other("serve.oracle.build_ms", "ms"),
    other("serve.oracle.hit_rate", "ratio"),
    other("serve.server.kernel_ms", "ms"),
    other("serve.direct.total_ms", "ms"),
    other("serve.residual_ms", "ms"),
    other("serve.client.rtt_ms_p90", "ms"),
    other("serve.server.busy_share", "ratio"),
    timed("netsim.sim.run_ms", &["netsim.sim.run"]),
    other("netsim.sim.msgs_per_s", "msg/s"),
    other("netsim.sim.completion_ms", "ms"),
    timed("core.contention.refine_ms", &["core.contention.refine"]),
    other("core.contention.sims_run", "count"),
    other("core.contention.improvement_pct", "%"),
    other("bench.trace.overhead_pct", "%"),
    other("bench.process.cpu_ms_per_op", "ms"),
];

pub const WORKLOADS: &[&str] = &[
    "place_uniform",
    "place_weighted",
    "refine",
    "scale",
    "serve_small",
    "serve_large",
    "simulate",
];
