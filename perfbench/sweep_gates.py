"""Measure the false-fail rate of every Monte Carlo gate over a seed sweep.

    OPENBLAS_NUM_THREADS=1 python3 perfbench/sweep_gates.py [--first 1] [--seeds 200]

Runs each gated op of the monte-carlo group (in the sampled workload)
once per seed, in one process (the gated ops share no cache that would
change their draws), and writes ``perfbench/gates.json``: per gate the
seed count, the failures at GATE_Z, the rate, and the worst z-score
seen.  Single-threaded BLAS matches the benchmark's passes.
"""

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import workloads  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--first", type=int, default=1)
    parser.add_argument("--seeds", type=int, default=200)
    parser.add_argument("--out", default=os.path.join(HERE, "gates.json"))
    args = parser.parse_args()

    gated = [op for op in workloads.MONTE_CARLO if op.zscores]
    stats: dict[str, dict] = {}
    for seed in range(args.first, args.first + args.seeds):
        for op in gated:
            value = op.call(seed)
            zs = op.zscores(value)
            if hasattr(op.zscores, "sample_zscores"):
                zs.update(op.zscores.sample_zscores(value))
            for name, z in zs.items():
                s = stats.setdefault(
                    f"{op.id}: {name}",
                    {"one_sided": op.one_sided, "seeds": 0, "fails": 0, "worst_z": None, "worst_seed": None},
                )
                tail = z if op.one_sided else abs(z)
                s["seeds"] += 1
                s["fails"] += tail > workloads.GATE_Z
                worst = s["worst_z"]
                if worst is None or tail > (worst if op.one_sided else abs(worst)):
                    s["worst_z"], s["worst_seed"] = z, seed
        print(f"seed {seed}: " + ", ".join(f"{k} worst {v['worst_z']:.2f}" for k, v in stats.items()),
              file=sys.stderr, flush=True)
    for s in stats.values():
        s["false_fail_rate"] = s["fails"] / s["seeds"]
    record = {
        "gate_z": workloads.GATE_Z,
        "seeds": [args.first, args.first + args.seeds - 1],
        # BLAS threading can move the last bits of a QR, never a verdict
        "openblas_num_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "gates": stats,
    }
    with open(args.out, "w") as fh:
        json.dump(record, fh, indent=2)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
