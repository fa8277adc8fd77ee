#!/usr/bin/env python3
"""Build and print an explicit witness point for a shrinking target set.

Glues free words and pinned target prefixes along the golden mean shift so
the orbit enters the ball of radius exp(-0.3 n) around the all-zeros point at
every planned hit time, then re-verifies each hit from the raw metric.
Exits 1 if a planned hit fails to verify.

Usage: python3 scripts/witness_demo.py [--blocks 5] [--tau 0.3]
"""

import argparse
import sys

from shrinktarget.oracle import construct_witness, plan_witness, verify_witness
from shrinktarget.rates import AllTimes, Exponential, SymbolSequence
from shrinktarget.symbolic import golden_mean_shift, mixing_gap


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--blocks", type=int, default=5)
    parser.add_argument("--tau", type=float, default=0.3)
    parser.add_argument("--eta", type=float, default=0.05)
    args = parser.parse_args(argv)

    shift = golden_mean_shift()
    phi = Exponential(args.tau)
    # periodic target 001001...: pinned stretches stand out against the
    # lexicographically-least (all-zero) filler
    z = SymbolSequence(head=(), cycle=(0, 0, 1))

    plan = plan_witness(shift, phi, z, AllTimes(), args.blocks, args.eta, mixing_gap(shift))
    cert = construct_witness(plan, shift, z)

    print(f"prefix ({len(cert.prefix)} symbols):")
    text = "".join(str(c) for c in cert.prefix)
    for i in range(0, len(text), 72):
        print("  " + text[i : i + 72])
    print(f"\n{'hit':>6} {'achieved':>9} {'required':>9} verified")
    for hit in cert.hits:
        print(
            f"{hit.time:>6} {hit.achieved_exponent:>9} "
            f"{hit.required_exponent:>9} {hit.verified}"
        )
    print(f"\nall_verified: {cert.all_verified}")
    print(f"independently confirmed planned hits: {verify_witness(cert, phi, z, AllTimes())}")
    return 0 if cert.all_verified else 1


if __name__ == "__main__":
    sys.exit(main())
