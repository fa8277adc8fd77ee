#!/usr/bin/env python3
"""Covering-sum brackets and Moran estimates against the shift exact values.

For each (shift, tau) pair, prints the predicted value h/(1+tau), the bracket
the covering sums produce, and the finite-stage Moran lower estimate - a
quick desk check that the three roads agree.  Exits 1 if a bracket misses
the predicted value.

Usage: python3 scripts/oracle_brackets.py [--depth 40] [--stages 12]
"""

import argparse
import sys

from shrinktarget.oracle import (
    LimsupCylinderScheme,
    bracket_critical_exponent,
    moran_dimension,
)
from shrinktarget.rates import SymbolSequence
from shrinktarget.symbolic import full_shift, golden_mean_shift, mixing_gap, sft_entropy

ZEROS = SymbolSequence(head=(), cycle=(0,))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--depth", type=int, default=40)
    parser.add_argument("--stages", type=int, default=12)
    parser.add_argument("--grid-step", type=float, default=0.01)
    args = parser.parse_args(argv)

    cases = [
        ("full 2-shift", full_shift(2)),
        ("full 3-shift", full_shift(3)),
        ("golden mean", golden_mean_shift()),
    ]
    print(f"{'shift':<14} {'tau':>5} {'predicted':>10} {'bracket':>18} {'moran':>8}")
    misses = 0
    for name, shift in cases:
        h = sft_entropy(shift)
        gap = mixing_gap(shift)
        for tau in (0.3, 0.5, 1.0):
            scheme = LimsupCylinderScheme(shift, tau, ZEROS)
            n_pts = int((h + 0.1 - args.grid_step) / args.grid_step) + 1
            grid = [args.grid_step * (k + 1) for k in range(n_pts)]
            lo, hi = bracket_critical_exponent(scheme, grid, args.depth)
            est = moran_dimension(shift, tau, args.stages, gap)
            predicted = h / (1.0 + tau)
            ok = "ok" if lo <= predicted < hi else "MISS"
            misses += ok == "MISS"
            print(
                f"{name:<14} {tau:>5.2f} {predicted:>10.6f} "
                f"[{lo:>7.4f}, {hi:>7.4f}] {est:>8.4f}  {ok}"
            )
    return 1 if misses else 0


if __name__ == "__main__":
    sys.exit(main())
