"""Per-layer metrics of the traced run, and what each should move.

Layers are the package's modules.  `<module>.<function>.calls` and
`<module>.<function>.self_s` come from spans around that function; the
other names are counts read at call boundaries (see `spans._HOOKS`) or
whole-run ratios.  `moves` records, before any optimisation, the
end-to-end metric and workload a change to that layer should move.
`dapp` is not listed in BENCHMARK.json (`run.UNLISTED`), so a move named
on `dapp` shows only in runs of that workload by hand.
"""

from __future__ import annotations

PER_LAYER: list[tuple[str, str, str]] = [
    ("cli.main.self_s", "s", "latency_p50_ms on minor and pm-sparse; 37% of dapp's time"),
    ("io.parse_graph_file.self_s", "s", "setup_s on every workload"),
    ("bigraph.max_matching.calls", "count", "throughput_qps on minor and dapp"),
    ("bigraph.max_matching.self_s", "s", "throughput_qps on minor and dapp; latency_p50_ms on pm-sparse"),
    ("bigraph.is_extendable.calls", "count", "throughput_qps on minor and dapp"),
    ("bigraph.admissible_edges.calls", "count", "latency_p50_ms on pm-sparse"),
    ("bigraph.admissible_edges.self_s", "s", "latency_p50_ms on pm-sparse; throughput_qps on minor"),
    ("direction.m_direction.self_s", "s", "nothing: below 1% everywhere, a control"),
    ("digraph.strong_components.calls", "count", "latency_tail_ms and throughput_qps on pm-dense"),
    ("decomp.dtw_exact_small.calls", "count", "throughput_qps on pm-dense"),
    ("decomp.dtw_exact_small.self_s", "s", "latency_tail_ms and throughput_qps on pm-dense; less on pm-sparse, dapp"),
    ("decomp.pmw_exact_small.self_s", "s", "latency_p50_ms on pm-sparse (pm width, n <= 10)"),
    ("decomp.cop_number_max", "count", "nothing unless the search changes; a higher value means a costlier search"),
    ("decomp.validate_dtd.calls", "count", "latency_p50_ms on pm-sparse and dapp"),
    ("decomp.validate_dtd.self_s", "s", "latency_p50_ms on pm-sparse and dapp"),
    ("decomp.prepare_dtd.self_s", "s", "latency_p50_ms on pm-sparse and dapp"),
    ("decomp.dtd_to_nice_pmd.self_s", "s", "latency_p50_ms on pm-sparse and dapp"),
    ("decomp.nice_pmd_check.self_s", "s", "latency_p50_ms on pm-sparse and dapp"),
    ("decomp.pmd_width.self_s", "s", "latency_p50_ms on pm-sparse and dapp"),
    ("decomp.width_max", "count", "must not rise: a wider decomposition slows pm-dense latency_tail_ms"),
    ("decomp.width_sum", "count", "must not rise: a wider decomposition slows pm-dense latency_tail_ms"),
    ("counting.count_pm_decomp.self_s", "s", "latency_tail_ms and peak_rss_mb on pm-dense"),
    ("counting.table_entries", "count", "latency_tail_ms and peak_rss_mb on pm-dense"),
    ("counting.boundary_sets", "count", "latency_tail_ms on pm-dense"),
    ("porosity.matching_porosity.calls", "count", "latency_p50_ms and throughput_qps on pm-sparse and dapp"),
    ("porosity.matching_porosity.self_s", "s", "latency_p50_ms and throughput_qps on pm-sparse, dapp; less on pm-dense"),
    ("linkage._solve_full.self_s", "s", "latency_tail_ms and throughput_qps on minor; latency_tail_ms on dapp"),
    ("linkage.make_proxies.calls", "count", "latency_tail_ms on dapp; throughput_qps on minor"),
    ("linkage.make_context.calls", "count", "latency_tail_ms on dapp; throughput_qps on minor"),
    ("linkage.dp_instances_per_question", "count", "latency_tail_ms on dapp; throughput_qps on minor"),
    ("minors.matching_minor_check.self_s", "s", "latency_tail_ms and throughput_qps on minor only"),
    ("isomorphism.bipartite_automorphisms.self_s", "s", "latency_tail_ms and throughput_qps on minor only"),
    ("trace.overhead_fraction", "fraction", "nothing: traced over untraced wall time, minus 1"),
    ("oracle_ratio", "ratio", "reported, not gated: oracle time over production time; above 1 is a crossover"),
]

SPAN_SUFFIXES = (".calls", ".self_s")


def span_targets() -> list[str]:
    """Every `module.function` the tracer wraps."""
    return sorted(
        {
            name[: -len(suffix)]
            for name, _, _ in PER_LAYER
            for suffix in SPAN_SUFFIXES
            if name.endswith(suffix)
        }
    )
