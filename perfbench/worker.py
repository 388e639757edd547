"""One measured pass of a workload, in a fresh interpreter.

    python3 perfbench/worker.py pass <workload> <seed> <traced 0|1> <pass id>
    python3 perfbench/worker.py calibrate
    python3 perfbench/worker.py setup

The package caches results for the life of a process (``functools.cache``
on the DP coefficients and margin counts, ``lru_cache`` on the Euler
products, a module-global prime table), so each pass runs in its own
interpreter and pays every cache fill, as a command-line user does.

Prints one JSON line.  ``ready`` is the CLOCK_MONOTONIC reading when
``import rmfmoments`` returned; the parent subtracts its spawn time from
it to get the set-up time.  ``setup`` does only that import and then
one calibration burst, to scale its set-up time by.

A pass runs a calibration burst (``Calibration``) before every op, before
every criterion of ``verify`` and after the last op.  It reports each op's
seconds and its duration in bursts: every stretch of op time between two
bursts divided by their mean, which changes far less with the host's
speed than seconds do (see ``run.py``).  Burst time is counted in neither.
"""

import os
import sys
import time


def now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


class Calibration:
    """A fixed burst of work that uses no part of the package.

    Half interpreter loop, half numpy sort of an 8 MiB array, about the
    mix of the workloads.  The sort runs in preallocated buffers, so a
    burst allocates nothing and does not depend on the pass's heap.
    """

    PY_N = 400_000
    NP_N = 1 << 20
    NP_SORTS = 3

    def __init__(self):
        import numpy as np

        self.data = np.random.default_rng(0).random(self.NP_N)
        self.buf = np.empty_like(self.data)

    def burst(self) -> tuple[float, float]:
        """Seconds of the interpreter part and of the numpy part."""
        t0 = now()
        sum(i * i % 7 for i in range(self.PY_N))
        t1 = now()
        for _ in range(self.NP_SORTS):
            self.buf[:] = self.data
            self.buf.sort()
        return t1 - t0, now() - t1


ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def _pass(workload: str, seed: int, traced: bool, pass_id: int) -> dict:
    sys.path.insert(0, SRC)
    import rmfmoments

    ready = now()
    if not os.path.abspath(rmfmoments.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"imported {rmfmoments.__file__}, not the package under {SRC}")

    import contextlib
    import resource
    import tracemalloc

    import workloads

    spans: list[dict] = []
    open_spans: list[int] = []

    @contextlib.contextmanager
    def span(name: str, alloc: bool = False):
        rec = {"name": name, "pass": pass_id, "parent": open_spans[-1] if open_spans else None}
        open_spans.append(len(spans))
        spans.append(rec)
        if alloc:
            tracemalloc.start()
        cpu = time.process_time()
        rec["start"] = now()
        try:
            yield
        finally:
            rec["end"] = now()
            rec["cpu_s"] = time.process_time() - cpu
            if alloc:
                rec["alloc_peak_mb"] = tracemalloc.get_traced_memory()[1] / 2**20
                tracemalloc.stop()
            open_spans.pop()

    calibration = Calibration()
    bursts = [sum(calibration.burst())]
    # op time between bursts: segment i runs from burst i to burst i + 1
    segments: list[float] = []
    mark = now()

    def calibrate():
        nonlocal mark
        t = now()
        segments.append(t - mark)
        bursts.append(sum(calibration.burst()))
        mark = now()
        for i in open_spans:  # a span's duration leaves out the bursts inside it
            spans[i]["burst_s"] = spans[i].get("burst_s", 0.0) + mark - t

    ops = workloads.WORKLOADS[workload]
    if any(op.id == "verify" for op in ops):
        from rmfmoments import acceptance

        run_criterion = acceptance.run_criterion

        # verify is one call of several seconds; a burst before each
        # criterion tracks the host speed inside it
        def calibrated_criterion(number, seed=seed):
            calibrate()
            with span(f"acceptance.c{number:02d}") if traced else contextlib.nullcontext():
                return run_criterion(number, seed)

        # run_all looks the name up in its module on every call
        acceptance.run_criterion = calibrated_criterion

    results: dict = {}
    errors: dict = {}
    firsts = []  # the first segment of each op
    with span("pass") if traced else contextlib.nullcontext():
        for i, op in enumerate(ops):
            if i:
                calibrate()
            firsts.append(len(segments))
            with span(op.span, op.alloc) if traced else contextlib.nullcontext():
                try:
                    results[op.id] = op.call(seed)
                except Exception as exc:  # a raising op is a failed op, the pass goes on
                    errors[op.id] = f"raised {type(exc).__name__}: {exc}"
        calibrate()
    firsts.append(len(segments))
    ranges = [range(a, b) for a, b in zip(firsts, firsts[1:])]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return {
        "ready": ready,
        "op_s": [sum(segments[i] for i in r) for r in ranges],
        # each segment in units of the mean of the bursts around it
        "op_bursts": [sum(2 * segments[i] / (bursts[i] + bursts[i + 1]) for i in r) for r in ranges],
        "burst_s": bursts,
        "peak_rss_mb": peak_rss_mb,
        "outcomes": workloads.outcomes(ops, results, errors),
        "counters": workloads.counters(ops, results),
        "spans": spans,
    }


def _cache_sizes() -> dict:
    # hardware description from sysfs; absent on some hosts
    sizes = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    try:
        for entry in sorted(os.listdir(base)):
            with open(os.path.join(base, entry, "level")) as fh:
                level = fh.read().strip()
            with open(os.path.join(base, entry, "type")) as fh:
                kind = fh.read().strip()
            with open(os.path.join(base, entry, "size")) as fh:
                size = fh.read().strip()
            if kind != "Instruction":
                sizes[f"L{level}"] = size
    except OSError:
        pass
    return sizes


def _calibrate() -> dict:
    """The calibration burst, timed at the start of every run."""
    import statistics

    import numpy as np

    calibration = Calibration()
    reps = [calibration.burst() for _ in range(5)]
    timings = {"py": statistics.median(r[0] for r in reps),
               "np": statistics.median(r[1] for r in reps)}
    # compile the package's bytecode once, outside any measured pass
    sys.path.insert(0, SRC)
    import rmfmoments  # noqa: F401

    return {
        "calib_py_s": timings["py"],
        "calib_np_s": timings["np"],
        "numpy": np.__version__,
        "caches": _cache_sizes(),
    }


def main(argv: list[str]) -> int:
    import json

    if argv[:1] == ["setup"]:
        sys.path.insert(0, SRC)
        import rmfmoments  # noqa: F401

        record = {"ready": now(), "burst_s": sum(Calibration().burst())}
    elif argv[:1] == ["calibrate"]:
        record = _calibrate()
    elif argv[:1] == ["pass"] and len(argv) == 5:
        record = _pass(argv[1], int(argv[2]), argv[3] == "1", int(argv[4]))
    else:
        print(__doc__, file=sys.stderr)
        return 2
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
