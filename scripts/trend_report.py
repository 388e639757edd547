"""Ratio table: the exact Steinhaus 2k-th moment against its asymptotic leading term.

Prints exact/rhs over a geometric x grid, to show how fast the ratio
approaches 1.  The unitary and SO analogues are `rmfmoments rmt --mode
ratio-table`; this count side has no CLI equivalent.

    PYTHONPATH=src python scripts/trend_report.py --k 2 --x-list 100,1000,10000
"""

import argparse

from rmfmoments.analytic import steinhaus_asymptotic_rhs
from rmfmoments.exact_counts import steinhaus_energy


def counts_rows(k: int, xs: list[int]) -> list[tuple[float, float]]:
    out = []
    for x in xs:
        exact = steinhaus_energy(k, x).value
        rhs = steinhaus_asymptotic_rhs(k, 0.0, float(x)).value_at(float(x))
        out.append((float(x), exact / rhs))
    return out


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--k", type=int, default=2)
    ap.add_argument("--x-list", default="100,1000,10000")
    args = ap.parse_args()

    rows = counts_rows(args.k, [int(v) for v in args.x_list.split(",") if v])
    print(f"{'x':>8} {'exact/rhs':>12}")
    for x, ratio in rows:
        print(f"{int(x):>8} {ratio:>12.5f}")


if __name__ == "__main__":
    main()
