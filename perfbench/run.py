"""Benchmark of rmfmoments: two workloads, timed from outside the package.

    python3 perfbench/run.py --workload exact --seed 60493 --seconds 60 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  One run spends about ``--seconds`` on back-to-back passes of
the workload, each in a fresh interpreter (the package caches results
per process, so a second pass in one process would time cache hits).
Passes run one at a time; a pass uses at most two threads (BLAS is
single-threaded, see ``CHILD_ENV``).

Timings are scaled to a reference host speed.  On a shared 2-vCPU KVM
guest the same work takes up to 80% longer for seconds to minutes at a
time (other guests share the cores), far more than a regression worth
catching, and fixed work slows alike.  So every process times a fixed
calibration burst (``worker.Calibration``): a pass before each op, a
set-up probe right after its import.  Each op's time is counted in
bursts, and ``wall_s`` is that count times ``REF_BURST_S``: seconds on a
host where the burst takes ``REF_BURST_S``.  Each set-up time is scaled
by the burst of its own process.  On a steady host both read about the
plain times; the raw times are kept in the output file and as
``host.wall_raw_s``.

``--trace 0`` reports the end-to-end metrics, medians over the passes.
``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics, medians over the traced passes; the traced passes put
a span around every public call, with its CPU seconds and, for ops whose
memory is numpy arrays, the tracemalloc peak.  Spans are kept in memory
and written to ``.perfbench_out/`` when the run ends.

Every op's output is checked (``workloads.py``).  The last line of
standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines before it print the machine block
and every metric by name with its unit.
"""

import argparse
import itertools
import json
import os
import platform
import statistics
import subprocess
import sys
import time

from metrics import END_TO_END, PER_LAYER, layer_metrics

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
WORKLOADS = ("exact", "sampled")
MIN_UNTRACED = 3
# interpreters that only import the package, spawned before each pass so
# the set-up median rests on more samples, spread over the run
SETUP_PROBES = 2
# The load model is one process with at most two threads, the most an op
# asks for (threads=2).  BLAS pools default to one thread per core and spin
# while they wait, so a threads=2 Haar op would run four threads on two
# cores; one competing process then slowed a monte-carlo pass from ~5 s
# to 36 s (measured).  Every child therefore gets single-threaded BLAS.
CHILD_ENV = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
             "MKL_NUM_THREADS": "1"}
# the calibration burst's time on an unloaded 2-vCPU KVM guest (Python
# 3.11, numpy 2.4); the unit that scaled timings are expressed in
REF_BURST_S = 0.065
# a run must end within 180 s; no pass starts after this and every child
# is killed at the hard limit
SOFT_LIMIT_S = 140.0
HARD_LIMIT_S = 170.0


class RunError(Exception):
    pass


def now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def spawn(argv: list[str], deadline: float) -> tuple[dict, float, float]:
    """Run the worker to completion; returns its record, spawn and exit times."""
    started = now()
    proc = subprocess.Popen(
        [sys.executable, WORKER, *argv],
        cwd=ROOT,
        env=CHILD_ENV,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - started))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RunError(f"worker {' '.join(argv)} passed the {HARD_LIMIT_S:.0f} s limit")
    ended = now()
    if proc.returncode != 0:
        raise RunError(f"worker {' '.join(argv)} exited {proc.returncode}: {err.strip()[-2000:]}")
    return json.loads(out.strip().splitlines()[-1]), started, ended


def run_passes(workload: str, seed: int, seconds: int, trace: bool, t_run: float):
    """Passes until the next would end past ``seconds``; returns them and the set-up times."""
    kinds = itertools.cycle([False, True]) if trace else itertools.repeat(False)
    longest = {False: 0.0, True: 0.0}
    records: list[dict] = []
    setups: list[float] = []
    for pass_id, traced in enumerate(kinds):
        untraced = sum(not r["traced"] for r in records)
        enough = untraced >= 1 and len(records) > untraced if trace else untraced >= MIN_UNTRACED
        elapsed = now() - t_run
        if enough and (elapsed + longest[traced] > seconds or elapsed > SOFT_LIMIT_S):
            break
        if elapsed > SOFT_LIMIT_S:
            raise RunError(f"the minimum passes did not fit in {SOFT_LIMIT_S:.0f} s")
        pass_start = now()
        # (set-up seconds, the burst that followed in the same process)
        raw_setups = []
        for _ in range(SETUP_PROBES):
            probe, started, _ = spawn(["setup"], t_run + HARD_LIMIT_S)
            raw_setups.append((probe["ready"] - started, probe["burst_s"]))
        argv = ["pass", workload, str(seed), str(int(traced)), str(pass_id)]
        rec, started, ended = spawn(argv, t_run + HARD_LIMIT_S)
        raw_setups.append((rec["ready"] - started, rec["burst_s"][0]))
        rec["speed"] = REF_BURST_S / statistics.fmean(rec["burst_s"])
        rec["traced"] = traced
        rec["raw_setup_s"] = raw_setups
        rec["raw_wall_s"] = sum(rec["op_s"])
        rec["wall_s"] = REF_BURST_S * sum(rec["op_bursts"])
        setups.extend(t * REF_BURST_S / burst for t, burst in raw_setups)
        longest[traced] = max(longest[traced], ended - pass_start)
        records.append(rec)
    return records, setups


def median_of(records: list[dict], key: str) -> float:
    return statistics.median(r[key] for r in records)


def op_list_s(records: list[dict]) -> float:
    """Sum over the ops of each op's median scaled time across the passes.

    An op that ran while the host changed speed is off in its own pass
    only; the median per op drops it where a median per pass would keep
    the whole pass.
    """
    per_op = zip(*(r["op_bursts"] for r in records))
    return REF_BURST_S * sum(statistics.median(op) for op in per_op)


def main() -> int:
    parser = argparse.ArgumentParser(description="rmfmoments benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=60493)
    parser.add_argument("--seconds", type=int, default=60)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not 0 <= args.seed < 2**64:
        parser.error("--seed must fit in 64 bits")
    if args.seconds < 1:
        parser.error("--seconds must be positive")
    if not os.path.isfile(os.path.join(ROOT, "src", "rmfmoments", "__init__.py")):
        print(f"no package source at {os.path.join(ROOT, 'src', 'rmfmoments')}", file=sys.stderr)
        return 2

    t_run = now()
    try:
        calib, _, _ = spawn(["calibrate"], t_run + HARD_LIMIT_S)
        records, setups = run_passes(args.workload, args.seed, args.seconds, bool(args.trace), t_run)
    except RunError as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 1

    machine = {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": calib["numpy"],
        "caches": calib["caches"],
        "calib_py_s": calib["calib_py_s"],
        "calib_np_s": calib["calib_np_s"],
    }
    untraced = [r for r in records if not r["traced"]]
    traced = [r for r in records if r["traced"]]
    outcomes = [o for r in records for o in r["outcomes"]]
    attempted = len(outcomes)
    failed = sum(not o["ok"] for o in outcomes)
    # a Monte Carlo gate has a measured false-fail rate (gates.json) and a
    # known defect fails at the parent too: both count in `failed` only
    correct = attempted > 0 and all(o["ok"] or o["gate"] or o["known_defect"] for o in outcomes)

    e2e = {
        "setup_s": statistics.median(setups),
        "wall_s": op_list_s(untraced),
        "peak_rss_mb": median_of(untraced, "peak_rss_mb"),
        "ok_frac": (attempted - failed) / attempted if attempted else 0.0,
    }
    layers = {}
    if traced:
        per_pass = [layer_metrics(r) for r in traced]
        layers = {name: statistics.median(m[name] for m in per_pass) for name in per_pass[0]}
        layers["trace.overhead_s"] = op_list_s(traced) - e2e["wall_s"]
        layers["host.wall_raw_s"] = median_of(untraced, "raw_wall_s")
        layers["host.speed"] = median_of(records, "speed")
        layers["host.calib_py.s"] = calib["calib_py_s"]
        layers["host.calib_np.s"] = calib["calib_np_s"]

    os.makedirs(OUT_DIR, exist_ok=True)
    out_path = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(out_path, "w") as fh:
        json.dump({"workload": args.workload, "seed": args.seed, "machine": machine,
                   "end_to_end": e2e, "per_layer": layers, "passes": records}, fh)

    print("machine: " + json.dumps(machine))
    print(f"{args.workload}: {len(untraced)} untraced and {len(traced)} traced passes, "
          f"seed {args.seed}, {failed}/{attempted} ops failed")
    seen = set()
    for o in outcomes:
        if not o["ok"] and o["id"] not in seen:
            seen.add(o["id"])
            tag = " (known defect)" if o["known_defect"] else " (Monte Carlo gate)" if o["gate"] else ""
            print(f"  failed {o['id']}{tag}: {o['detail']}")
    for name, value in list(e2e.items()) + list(layers.items()):
        unit = END_TO_END.get(name) or PER_LAYER[name]
        print(f"  {name:40s} {value:14.6g} {unit}")
    print(f"spans and passes written to {os.path.relpath(out_path, ROOT)}")

    chosen = layers if args.trace else e2e
    units = PER_LAYER if args.trace else END_TO_END
    metrics = {name: {"value": chosen[name], "unit": units[name]} for name in units}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
