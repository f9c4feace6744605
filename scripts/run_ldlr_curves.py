#!/usr/bin/env python3
"""Low-degree likelihood ratio norm curves.

For each degree bound ell, traces the exact norm against the signal-to-noise
ratio eps^2 d / k^2 on an n-vertex instance.  The qualitative picture: flat
near 1 at low SNR, growing with SNR, faster for larger ell.

Usage: python scripts/run_ldlr_curves.py [--n 8] [--d 4] [--k 2]
       [--ells 1,2,3] [--points 9] [--out curves.csv]
"""

import argparse
import math
import sys

from sbmlab.ldlr import exact_ldlr_norm
from sbmlab.model import SbmParams


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--n", type=int, default=8)
    ap.add_argument("--d", type=float, default=4.0)
    ap.add_argument("--k", type=int, default=2)
    ap.add_argument("--ells", default="1,2,3")
    ap.add_argument("--points", type=int, default=9)
    ap.add_argument("--out", default=None)
    args = ap.parse_args()

    ells = [int(tok) for tok in args.ells.split(",")]
    rows = []
    try:  # every ell is computed before the first row is written
        for ell in ells:
            for i in range(args.points):
                eps = i / (args.points - 1)
                norm = exact_ldlr_norm(SbmParams(args.n, args.d, eps=eps, k=args.k), ell).norm
                snr = eps**2 * args.d / args.k**2
                rows.append(f"{args.n},{args.d!r},{args.k},{ell},{eps!r},{snr!r},{norm!r}\n")
    except ValueError as exc:
        print(f"run_ldlr_curves: {exc}", file=sys.stderr)
        sys.exit(1)
    fh = open(args.out, "w") if args.out else sys.stdout
    fh.write("n,d,k,ell,eps,snr,norm\n")
    fh.writelines(rows)
    if args.out:
        fh.close()
        print(f"wrote {args.out}", file=sys.stderr)


if __name__ == "__main__":
    main()
