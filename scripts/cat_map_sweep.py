#!/usr/bin/env python3
"""Dimension-vs-tau curves for integer torus matrices.

Sweeps the shrinking exponent over a grid and writes one CSV row per tau with
the entropy/dimension values the exact theorems (or, failing those, the
sandwich bounds) give - the rows of the CLI ``sweep`` task.  Default
systems: the cat map and a pair of expanding matrices.

Usage: python3 scripts/cat_map_sweep.py [--step 0.05] [--out sweep_out]
"""

import argparse
import sys
from pathlib import Path

from shrinktarget.cli import _SWEEP_COLUMNS, render_csv, sweep_rows, system_facts
from shrinktarget.systems import IntegerMatrixSystem

SYSTEMS = {
    "cat_map": ((2, 1), (1, 1)),
    "doubling": ((2,),),
    "diag_2_3": ((2, 0), (0, 3)),
}


def sweep(entries, step):
    facts = system_facts(IntegerMatrixSystem(entries), "matrix")
    taus = [k * step for k in range(int(1.5 * facts.h_top / step) + 2)]
    return sweep_rows(facts, taus)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--step", type=float, default=0.05)
    parser.add_argument("--out", default="sweep_out")
    args = parser.parse_args(argv)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for name, entries in SYSTEMS.items():
        rows = sweep(entries, args.step)
        path = out / f"{name}.csv"
        path.write_bytes(render_csv(rows, _SWEEP_COLUMNS).encode())
        print(f"wrote {path} ({len(rows)} rows)", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
