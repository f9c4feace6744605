#!/usr/bin/env python3
"""Phase diagram around the critical signal-to-noise ratio.

Sweeps an SNR grid straddling snr = 1 with the calibrated testing pipeline
and writes one CSV row per grid point (power, size, separation score).

Usage: python scripts/run_phase_sweep.py [--n 2000] [--d 60] [--trials 40]
       [--seed 7] [--method spectral] [--out phase.csv]
"""

import argparse
import sys

from sbmlab.harness import ExperimentConfig, parse_snr_grid, sweep_phase, write_sweep_csv
from sbmlab.model import SbmParams
from sbmlab.recover import METHODS

GRID = [0.25, 0.5, 1.0, 2.0, 4.0]


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--n", type=int, default=2000)
    ap.add_argument("--d", type=float, default=60.0)
    ap.add_argument("--k", type=int, default=2)
    ap.add_argument("--eta", type=float, default=0.1)
    ap.add_argument("--delta", type=float, default=0.1)
    ap.add_argument("--trials", type=int, default=40)
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--method", default="spectral", choices=METHODS)
    ap.add_argument("--grid", default=",".join(str(x) for x in GRID))
    ap.add_argument("--out", default=None)
    args = ap.parse_args()

    try:
        cfg = ExperimentConfig(
            params=SbmParams(args.n, args.d, eps=0.5, k=args.k, eta=args.eta, delta=args.delta),
            trials=args.trials,
            seed=args.seed,
            recovery_method=args.method,
        )
        points = sweep_phase(cfg, parse_snr_grid(args.grid))
    except ValueError as exc:
        print(f"run_phase_sweep: {exc}", file=sys.stderr)
        sys.exit(1)
    if args.out:
        with open(args.out, "w") as fh:
            write_sweep_csv(points, cfg.trials, fh)
        print(f"wrote {args.out}", file=sys.stderr)
    else:
        write_sweep_csv(points, cfg.trials, sys.stdout)


if __name__ == "__main__":
    main()
