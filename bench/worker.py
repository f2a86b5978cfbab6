#!/usr/bin/env python3
"""One round of a benchmark workload, in a fresh process.

    python3 bench/worker.py ROUND_DIR

Reads ROUND_DIR/inputs.json (written by bench/run.py), imports kronnoma
from the checkout's src/ and loads the inputs (the set-up), runs the
workload's fixed work once (timed, traced when asked), checks the outputs
with bench/checks.py and writes ROUND_DIR/result.json.  Each program call
is timed on its own, between two runs of the calibration loop of
bench/speed.py, and reported both as measured and (for the workloads whose
work the loop tracks) at the reference speed; set-up always at the latter.
"""

from __future__ import annotations

import hashlib
import json
import resource
import statistics
import sys
import time
from fractions import Fraction
from pathlib import Path

import numpy as np

import checks
import speed
from tracer import Tracer, layer_summary

ROOT = Path(__file__).resolve().parents[1]


def _cpu_seconds() -> float:
    """User plus system time of this process and its waited-for children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _cli(argv: list[str]) -> int:
    from kronnoma import cli

    return cli.main(argv)  # looked up on the module, so a traced main is used


class Simulate:
    """`kronnoma simulate` with the default detector, then with --detector sic."""

    detectors = ("recursive", "sic")
    scaled = True  # interpreter-bound: times at the reference speed

    def load(self, inp: dict, d: Path):
        import kronnoma.cli  # noqa: F401  (the import is the set-up)

    def calls(self, inp: dict, d: Path, state):
        grid = ",".join(f"{db:g}" for db in inp["snr_db"])
        for det in self.detectors:
            argv = ["simulate", "--chain", str(d.parent / "chain.json"), "--snr-db", grid,
                    "--trials", str(inp["trials"]), "--seed", str(inp["seed"]),
                    "--detector", det, "--csv-out", str(d / f"{det}.csv")]
            yield lambda argv=argv: _cli(argv)

    def collect(self, inp, d) -> dict:
        return {det: (d / f"{det}.csv").read_text() for det in self.detectors}

    def check(self, inp, out) -> list[str]:
        return checks.check_simulate(out["recursive"], out["sic"], inp)

    def ops(self, out) -> dict:
        found = {}
        for det, key in (("recursive", "map"), ("sic", "sic")):
            header, rows = checks.parse_csv(out[det])
            found[key] = [int(rows[0][header.index("measured_adds")]), int(rows[0][header.index("measured_muls")])]
        return found


class Oracle:
    """Paired Monte Carlo: recursive detector and brute-force MAP oracle."""

    # BLAS-bound: the calibration loop does not track the oracle's matmuls
    # (scaling doubled the run-to-run spread of wall_s), so its call times
    # are reported as measured
    scaled = False

    def load(self, inp: dict, d: Path):
        from kronnoma import BPSK, DetectionConfig, find_combiners, load_chain

        chain = load_chain(str(d.parent / "chain.json"))
        return DetectionConfig(chain, find_combiners(chain.P), BPSK)

    def calls(self, inp, d, cfg):
        from kronnoma import simkit

        snrs = [10.0 ** (db / 10.0) for db in inp["snr_db"]]

        def paired():
            self.points = simkit.run_monte_carlo(
                cfg, snrs, inp["trials"], inp["seed"], with_oracle=True, keep_records=True
            )
            return 0

        yield paired

    def collect(self, inp, d) -> dict:
        points = []
        for pt in self.points:
            recs = pt.records
            points.append({
                "tx": np.array([r.transmitted for r in recs]),
                "rx": np.array([r.received for r in recs]),
                "recursive": np.array([r.decisions["recursive"] for r in recs]),
                "oracle": np.array([r.decisions["oracle"] for r in recs]),
                "agreement": pt.oracle_agreement,
                "coupled_ser": pt.coupled_ser,
                "adds": pt.measured_adds,
                "muls": pt.measured_muls,
            })
        return {"points": points}

    def check(self, inp, out) -> list[str]:
        return checks.check_oracle(out, inp)

    def ops(self, out) -> dict:
        pt = out["points"][0]
        return {"map": [int(pt["adds"]), int(pt["muls"])]}


class Search:
    """`kronnoma search --mp m` at each scoring SNR, each followed by the
    `kronnoma rate` sweep with all baselines for the top design."""

    scaled = True

    def load(self, inp: dict, d: Path):
        import kronnoma.cli  # noqa: F401

    def calls(self, inp, d, state):
        rate = inp["rate"]
        for i, db in enumerate(inp["ref_snr_db"]):
            designs = d / f"search{i}.json"
            yield lambda db=db, designs=designs: _cli(
                ["search", "--mp", str(inp["mp"]), "--ref-snr-db", f"{db:g}", "--json-out", str(designs)])
            # the next call's chain file, written between the timed calls
            top = json.loads(designs.read_text())[0]
            chain = {"F": {"rows": 1, "cols": 2, "data": [1, 1]}, "P": top["P"], "r": rate["r"]}
            (d / f"chain{i}.json").write_text(json.dumps(chain))
            yield lambda i=i, designs=designs: _cli(
                ["rate", "--chain", str(d / f"chain{i}.json"), "--gains", str(designs),
                 "--snr-db-min", f"{rate['snr_db_min']:g}",
                 "--snr-db-max", f"{rate['snr_db_max']:g}",
                 "--snr-db-step", f"{rate['snr_db_step']:g}",
                 "--baselines", "pdma,oma,example4",
                 "--csv-out", str(d / f"rate{i}.csv")])

    def collect(self, inp, d) -> dict:
        n = len(inp["ref_snr_db"])
        return {
            "search": [(d / f"search{i}.json").read_text() for i in range(n)],
            "rate": [(d / f"rate{i}.csv").read_text() for i in range(n)],
        }

    def check(self, inp, out) -> list[str]:
        feasible = checks.feasible_factors(inp["mp"])
        problems = []
        for db, text, rate_csv in zip(inp["ref_snr_db"], out["search"], out["rate"]):
            designs = json.loads(text)
            problems += [f"search {db} dB: {p}" for p in checks.check_search(designs, inp["mp"], db, feasible)]
            top = designs[0]
            m = top["P"]["rows"]
            rate_inp = dict(inp["rate"], P=[top["P"]["data"][i * m:(i + 1) * m] for i in range(m)])
            gains = [Fraction(g) for g in top["gains"]]
            problems += [f"search {db} dB: {p}" for p in checks.check_rate(rate_csv, rate_inp, gains)]
        return problems

    def ops(self, out) -> dict:
        return {}


WORKLOADS = {"simulate_27x54": Simulate, "oracle_9x18": Oracle, "search_mp4": Search}


def _digest(out) -> str:
    """Hash of every output; rounds on the same inputs must agree."""
    h = hashlib.sha256()

    def feed(v):
        if isinstance(v, dict):
            for k in sorted(v):
                h.update(k.encode())
                feed(v[k])
        elif isinstance(v, (list, tuple)):
            for item in v:
                feed(item)
        elif isinstance(v, np.ndarray):
            h.update(np.ascontiguousarray(v).tobytes())
        else:
            h.update(repr(v).encode())

    feed(out)
    return h.hexdigest()


def main(round_dir: str) -> int:
    d = Path(round_dir)
    inp = json.loads((d / "inputs.json").read_text())
    sys.path.insert(0, str(ROOT / "src"))
    workload = WORKLOADS[inp["workload"]]()
    state = workload.load(inp, d)
    ready = time.monotonic()

    speed.calibrate()  # warms the loop up; not used
    marks = [speed.calibrate()]
    tracer = None
    if inp["traced"]:
        tracer = Tracer()
        tracer.install()
    codes, wall, cpu, wall_ref, cpu_ref = [], 0.0, 0.0, 0.0, 0.0
    for call in workload.calls(inp, d, state):
        cpu0 = _cpu_seconds()
        t0 = time.perf_counter()
        codes.append(call())
        seg_wall = time.perf_counter() - t0
        seg_cpu = _cpu_seconds() - cpu0
        marks.append(speed.calibrate())
        (wall_a, cpu_a), (wall_b, cpu_b) = marks[-2:]
        wall += seg_wall
        cpu += seg_cpu
        wall_ref += seg_wall * (2 * speed.REF_S / (wall_a + wall_b) if workload.scaled else 1.0)
        cpu_ref += seg_cpu * (2 * speed.REF_S / (cpu_a + cpu_b) if workload.scaled else 1.0)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result = {
        "ready": ready,
        "setup_scale": speed.REF_S / marks[0][0],  # set-up is scaled by the first calibration
        "wall_s": wall_ref,
        "cpu_s": cpu_ref,
        "wall_raw_s": wall,
        "cpu_raw_s": cpu,
        "calibration_s": statistics.median(w for w, _ in marks),
        "peak_rss_mb": peak_rss_mb,
        "attempted": len(codes),
        "failed": sum(code != 0 for code in codes),
        "layers": None,
    }
    if tracer is not None:
        tracer.uninstall()
        tracer.write(d / "spans.csv.gz")
        result["layers"] = layer_summary(tracer.spans, wall_ref / wall)
    if result["failed"]:
        result["problems"] = []
        result["digest"] = None
        result["ops"] = {}
    else:
        out = workload.collect(inp, d)
        result["problems"] = workload.check(inp, out)
        result["digest"] = _digest(out)
        result["ops"] = workload.ops(out)
    (d / "result.json").write_text(json.dumps(result, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
