#!/usr/bin/env python3
"""Benchmark of kronnoma's simulate, MAP-oracle and search paths.

    python3 bench/run.py --workload simulate_27x54 --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  Makes the workload's inputs from --seed,
then runs whole rounds of the workload, each in a fresh worker process
(bench/worker.py), until --seconds have passed.  Every round's outputs are
checked independently of the program (bench/checks.py), and rounds on the
same inputs must produce identical outputs.  Times are reported at the
reference speed of bench/speed.py's calibration loop, which brackets every
program call.  The last line of standard output is one JSON object: with
--trace 0 the end-to-end metrics (medians over rounds), with --trace 1 the
per-layer metrics of the traced rounds, which alternate with untraced ones
to measure the tracing overhead.
Round records, inputs and span files go to .bench_out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# optimal 3x3 square factor (column values 3, 5, 6), combining gains 4/3 each
P3 = [[1, 1, 0], [1, 0, 1], [0, 1, 1]]
F12 = [[1, 1]]
ROUND_TIMEOUT_S = 60  # a round takes seconds; this only stops a hung one
KEEP = {"inputs.json", "result.json", "spans.csv.gz"}


def program_seed(workload: str, seed: int) -> int:
    """64-bit seed handed to the program, derived from the benchmark seed."""
    digest = hashlib.sha256(f"{workload}/{seed}".encode()).digest()
    return int.from_bytes(digest[:8], "little")


def simulate_inputs(seed: int) -> dict:
    return {"F": F12, "P": P3, "r": 3, "snr_db": [0.0, 2.0, 4.0], "trials": 100,
            "seed": program_seed("simulate_27x54", seed)}


def oracle_inputs(seed: int) -> dict:
    return {"F": F12, "P": P3, "r": 2, "snr_db": [0.0, 10.0, 20.0], "trials": 8,
            "seed": program_seed("oracle_9x18", seed)}


def search_inputs(seed: int) -> dict:
    # three distinct scoring SNRs on a 0.5 dB grid over 0..20 dB
    ref = sorted(random.Random(program_seed("search_mp4", seed)).sample(range(41), 3))
    return {"mp": 4, "ref_snr_db": [v / 2 for v in ref],
            "rate": {"F": F12, "r": 2, "snr_db_min": 0.0, "snr_db_max": 30.0, "snr_db_step": 1.0}}


WORKLOADS = {
    # name: (inputs from the seed, program calls per round)
    "simulate_27x54": (simulate_inputs, 2),
    "oracle_9x18": (oracle_inputs, 1),
    "search_mp4": (search_inputs, 6),
}


def matrix_json(rows: list[list[int]]) -> dict:
    return {"rows": len(rows), "cols": len(rows[0]), "data": [v for row in rows for v in row]}


def run_round(run_dir: Path, index: int, inp: dict, traced: bool, calls: int) -> dict:
    d = run_dir / f"round{index:03d}"
    d.mkdir()
    (d / "inputs.json").write_text(json.dumps(dict(inp, traced=traced), indent=1))
    spawned = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), str(d)],
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True, timeout=ROUND_TIMEOUT_S,
        )
        code, err = proc.returncode, proc.stderr
    except subprocess.TimeoutExpired:  # run() has killed and reaped the worker
        code, err = "timeout", ""
    result_file = d / "result.json"
    if code != 0 or not result_file.exists():
        sys.stderr.write(f"round {index} failed (exit {code}):\n{err[-4000:]}\n")
        return {"crashed": True, "traced": traced, "attempted": calls, "failed": calls}
    res = json.loads(result_file.read_text())
    res["setup_raw_s"] = res["ready"] - spawned
    res["setup_s"] = res["setup_raw_s"] * res["setup_scale"]
    res["traced"] = traced
    if not res["problems"]:
        for f in d.iterdir():
            if f.name not in KEEP:
                f.unlink()
    return res


def per_layer(rounds: list[dict]) -> dict:
    traced = [r for r in rounds if r["traced"]]
    plain = [r for r in rounds if not r["traced"]]
    metrics = {}
    for name in traced[0]["layers"]:
        values = [r["layers"][name] for r in traced]
        if name.endswith(".self_s"):
            metrics[name] = {"value": statistics.median(values), "unit": "s"}
        else:  # counts repeat exactly; median_low keeps them whole
            metrics[name] = {"value": statistics.median_low(values), "unit": "count"}
    ops = traced[0]["ops"]
    for key in ("map", "sic"):
        adds, muls = ops.get(key, (0, 0))
        metrics[f"detector.adds_per_detection.{key}"] = {"value": adds, "unit": "count"}
        metrics[f"detector.muls_per_detection.{key}"] = {"value": muls, "unit": "count"}
    overhead = statistics.median(r["wall_s"] for r in traced) - statistics.median(r["wall_s"] for r in plain)
    metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    metrics["bench.wall_raw_s"] = {"value": statistics.median(r["wall_raw_s"] for r in plain), "unit": "s"}
    metrics["bench.calibration_s"] = {"value": statistics.median(r["calibration_s"] for r in rounds), "unit": "s"}
    return metrics


def end_to_end(rounds: list[dict]) -> dict:
    units = {"setup_s": "s", "wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MiB"}
    return {name: {"value": statistics.median(r[name] for r in rounds), "unit": unit}
            for name, unit in units.items()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "kronnoma" / "__init__.py").is_file():
        print("error: run from the root of a kronnoma checkout (no src/kronnoma here)", file=sys.stderr)
        return 2

    make_inputs, calls_per_round = WORKLOADS[args.workload]
    inp = dict(make_inputs(args.seed), workload=args.workload)
    run_dir = ROOT / ".bench_out" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    if "P" in inp:
        chain = {"F": matrix_json(inp["F"]), "P": matrix_json(inp["P"]), "r": inp["r"]}
        (run_dir / "chain.json").write_text(json.dumps(chain, indent=1))

    # whole rounds only; a traced run needs at least one round of each kind
    min_rounds = 2 if args.trace else 1
    rounds = []
    deadline = time.monotonic() + args.seconds
    while len(rounds) < min_rounds or time.monotonic() < deadline:
        traced = args.trace == 1 and len(rounds) % 2 == 1
        rounds.append(run_round(run_dir, len(rounds), inp, traced, calls_per_round))

    attempted = sum(r["attempted"] for r in rounds)
    failed = sum(r["failed"] for r in rounds)
    good = [r for r in rounds if not r["failed"]]
    problems = [p for r in good for p in r["problems"]]
    digests = {r["digest"] for r in good}
    if len(digests) > 1:
        problems.append(f"rounds on the same inputs gave {len(digests)} different outputs")
    for p in problems[:20]:
        print(f"check failed: {p}", file=sys.stderr)
    if args.trace and (not any(r["traced"] for r in good) or all(r["traced"] for r in good)):
        print("error: no traced and untraced round pair completed", file=sys.stderr)
        return 1
    if not good:
        print("error: no round completed", file=sys.stderr)
        return 1

    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": per_layer(good) if args.trace else end_to_end(good),
    }
    (run_dir / "result.json").write_text(json.dumps(dict(result, rounds=rounds), indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
