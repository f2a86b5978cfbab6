#!/usr/bin/env python3
"""Paired-noise comparison of the recursive detector against exhaustive MAP.

For each SNR point, both detectors see the same noise realizations and
their coupled-sum decisions are compared trial by trial.  Also reports the
recursive detector's measured scalar-operation counts against the closed
forms.  Runs on the r=1 chain (3x6, 64 hypotheses) so the exhaustive
search stays cheap.

    python3 scripts/oracle_agreement.py --trials 2000
"""

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
from kronnoma.cli import Option, RunConfig, _float_list, db_to_linear, parse_flags

P3 = PatternMatrix(np.array([[1, 1, 0], [1, 0, 1], [0, 1, 1]]))


# a later flag overrides an earlier one (parse_flags's last_wins), so a
# caller can put its defaults first
_OPTIONS = [
    Option("oracle_agreement", "--trials", "trials", int, "2000", False, "trials per point"),
    Option("oracle_agreement", "--seed", "seed", int, "0", False, "seed of the trial streams"),
    Option("oracle_agreement", "--snr-db", "snr_db", str, "0,5,10,15,20", False,
           "comma list of dB points, ascending"),
]


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    usage = f"usage: oracle_agreement.py [options]\n\n{__doc__.splitlines()[0]}"
    try:
        args = parse_flags(_OPTIONS, argv, usage, last_wins=True)
        if args is None:
            return 0
        # the table needs at least one trial per point; the grid and the seed
        # follow the rules of `kronnoma simulate`
        if args["trials"] < 1:
            raise ValueError("trial count must be at least 1")
        run = RunConfig("simulate", snr_db_grid=_float_list(args["snr_db"]), trials=args["trials"],
                        seed=args["seed"])
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
