#!/usr/bin/env python3
"""Paired-noise comparison of the recursive detector against exhaustive MAP.

For each SNR point, both detectors see the same noise realizations and
their coupled-sum decisions are compared trial by trial.  Also reports the
recursive detector's measured scalar-operation counts against the closed
forms.  Runs on the r=1 chain (3x6, 64 hypotheses) so the exhaustive
search stays cheap.

    python3 scripts/oracle_agreement.py --trials 2000
"""

import argparse
import sys

import numpy as np

from kronnoma import (
    BPSK,
    DetectionConfig,
    FactorChain,
    PatternMatrix,
    find_combiners,
    run_monte_carlo,
)
from kronnoma.cli import RunConfig, _attach_negative_values, _float_list, db_to_linear

P3 = PatternMatrix(np.array([[1, 1, 0], [1, 0, 1], [0, 1, 1]]))


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--trials", type=int, default=2000)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument(
        "--snr-db", default="0,5,10,15,20",
        help="comma list of dB points, ascending",
    )
    return ap.parse_args(_attach_negative_values(sys.argv[1:] if argv is None else list(argv)))


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        # the table needs at least one trial per point; the grid and the seed
        # follow the rules of `kronnoma simulate`
        if args.trials < 1:
            raise ValueError("trial count must be at least 1")
        run = RunConfig("simulate", snr_db_grid=_float_list(args.snr_db), trials=args.trials,
                        seed=args.seed)
        snrs = [db_to_linear(db) for db in run.snr_db_grid]
        chain = FactorChain(PatternMatrix(np.array([[1, 1]])), P3, 1)
        cfg = DetectionConfig(chain, find_combiners(P3), BPSK)
        points = run_monte_carlo(cfg, snrs, run.trials, run.seed, with_oracle=True)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"{'snr_db':>8} {'coupled_ser':>12} {'agreement':>10} {'adds':>8} {'muls':>8}")
    for db, pt in zip(run.snr_db_grid, points):
        print(
            f"{db:8.1f} {pt.coupled_ser:12.5f} "
            f"{pt.oracle_agreement:10.4f} {pt.measured_adds:8d} {pt.measured_muls:8d}"
        )
    print(
        f"bounds per grid point: adds<={points[0].bound_adds} "
        f"muls<={points[0].bound_muls}"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
