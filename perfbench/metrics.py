"""Metric names, units, and how each per-layer metric comes from a traced pass.

A per-layer metric named ``<span>.s`` is the total duration of the spans
of that name in one pass, less the calibration bursts inside them and
scaled to the reference host speed (``run.py``), so it reads 0 on a
workload that does not run the layer.  Counts are computed from the op
inputs or read from the package (``workloads.COUNTERS``); ratios combine
the two.
"""

from collections import defaultdict

# end-to-end times are scaled to the reference host speed (run.py)
END_TO_END = {
    "setup_s": "s",  # spawn of the pass interpreter until `import rmfmoments` returns
    "wall_s": "s",  # the op list after set-up, tracing off
    "peak_rss_mb": "MB",  # peak resident memory of the pass process
    "ok_frac": "ratio",  # ops whose output checked out / ops attempted
}

SPAN_SECONDS = [
    "arith.primes_up_to",
    "arith.euler",
    "exact_counts.energy_k3",
    "exact_counts.energy_k2_map",
    "exact_counts.energy_k2_totient",
    "exact_counts.energy_sigma",
    "exact_counts.sign_enum",
    "exact_counts.tuple_count",
    "exact_counts.char_average",
    "exact_counts.congruence_count",
    "rmt.unitary_int",
    "rmt.unitary_float",
    "rmt.so_int",
    "polytopes.beta4",
    "polytopes.gamma3",
    "simulate.steinhaus_t1",
    "simulate.steinhaus_t2",
    "simulate.rademacher",
    "simulate.helson",
    "analytic.cs_bound",
]

COUNTERS = {
    "arith.primes_up_to.primes": "count",
    "arith.euler.truncation_prime": "count",
    "exact_counts.energy_k3.products": "count",
    "exact_counts.sign_enum.patterns": "count",
    "rmt.unitary_int.state_mb": "MB",
    "rmt.unitary_float.state_mb": "MB",
    "rmt.so_int.state_mb": "MB",
    "polytopes.margin_states": "count",
    "simulate.rademacher.useful_ratio": "ratio",
}
COUNTERS.update({f"acceptance.c{n:02d}.s": "s" for n in range(1, 15)})

DERIVED = {
    "exact_counts.energy_k3.alloc_peak_mb": "MB",
    "rmt.haar_n8.s_per_sample": "s",
    "rmt.haar_n64.s_per_sample": "s",
    "rmt.haar.scaling_eff": "ratio",
    "simulate.steinhaus.scaling_eff": "ratio",
    "simulate.steinhaus.trials_per_s": "1/s",
    "cli.verify.overhead_s": "s",
}

RUN_LEVEL = {
    "trace.overhead_s": "s",  # traced wall_s minus untraced wall_s, same run
    "host.wall_raw_s": "s",  # wall_s before scaling to the reference host speed
    "host.speed": "ratio",  # reference burst time / a pass's mean burst time
    "host.calib_py.s": "s",  # fixed pure-Python kernel, timed at run start
    "host.calib_np.s": "s",  # fixed numpy sort, timed at run start
}

PER_LAYER = {f"{name}.s": "s" for name in SPAN_SECONDS}
PER_LAYER.update(COUNTERS)
PER_LAYER.update(DERIVED)
PER_LAYER.update(RUN_LEVEL)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(record: dict) -> dict[str, float]:
    """Per-layer metrics of one traced pass (run-level ones excluded)."""
    seconds: dict[str, float] = defaultdict(float)
    alloc: dict[str, float] = defaultdict(float)
    for span in record["spans"]:
        seconds[span["name"]] += span["end"] - span["start"] - span.get("burst_s", 0.0)
        alloc[span["name"]] = max(alloc[span["name"]], span.get("alloc_peak_mb", 0.0))
    c = record["counters"]
    m = {f"{name}.s": seconds[name] for name in SPAN_SECONDS}
    m.update({name: float(c.get(name, 0)) for name in COUNTERS})
    m["exact_counts.energy_k3.alloc_peak_mb"] = alloc["exact_counts.energy_k3"]
    h1, h2 = seconds["rmt.haar_n8_t1"], seconds["rmt.haar_n8_t2"]
    s1, s2 = seconds["simulate.steinhaus_t1"], seconds["simulate.steinhaus_t2"]
    m["rmt.haar_n8.s_per_sample"] = _ratio(h1, c.get("rmt.haar_n8.samples", 0))
    m["rmt.haar_n64.s_per_sample"] = _ratio(seconds["rmt.haar_n64"], c.get("rmt.haar_n64.samples", 0))
    # t1 / (2 t2): 1 when two threads halve the time, 0.5 when they gain nothing
    m["rmt.haar.scaling_eff"] = _ratio(h1, 2 * h2)
    m["simulate.steinhaus.scaling_eff"] = _ratio(s1, 2 * s2)
    m["simulate.steinhaus.trials_per_s"] = _ratio(c.get("simulate.steinhaus.trials", 0), s1)
    criteria = sum(c.get(f"acceptance.c{n:02d}.s", 0.0) for n in range(1, 15))
    m["cli.verify.overhead_s"] = seconds["cli.verify"] - criteria if "cli.verify" in seconds else 0.0
    # times read at the reference host speed, like wall_s; the pass's mean
    # burst is coarser than wall_s's per-op scaling but needs no per-span bursts
    speed = record["speed"]
    units = {name: PER_LAYER[name] for name in m}
    return {name: v * speed if units[name] == "s" else v / speed if units[name] == "1/s" else v
            for name, v in m.items()}
