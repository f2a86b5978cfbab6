#!/usr/bin/env python3
"""Self-test of the benchmark: every output check passes on the program's
real output and rejects a corrupted copy of it, and the tracer's wrapping
and self-time arithmetic hold.

    python3 bench/selftest.py

Runs each workload's fixed work once, in this process, on seed 0.  Exits 0
when every case behaves, 1 otherwise.
"""

from __future__ import annotations

import copy
import json
import shutil
import sys

import checks
import run
import tracer
import worker

failures: list[str] = []


def expect(name: str, problems: list[str], *, clean: bool) -> None:
    ok = not problems if clean else bool(problems)
    print(f"{'ok  ' if ok else 'FAIL'} {name}: {problems[0] if problems else 'no problems'}")
    if not ok:
        failures.append(name)


def edit_csv(text: str, row: int, column: str, change) -> str:
    header, rows = checks.parse_csv(text)
    rows[row][header.index(column)] = change(rows[row][header.index(column)])
    lines = [",".join(header)] + [",".join(f"{v:.12g}" for v in r) for r in rows]
    return "\n".join(lines) + "\n"


def run_once(name: str):
    make_inputs, _ = run.WORKLOADS[name]
    inp = dict(make_inputs(0), workload=name)
    d = run.ROOT / ".bench_out" / f"selftest-{name}" / "round"
    shutil.rmtree(d.parent, ignore_errors=True)
    d.mkdir(parents=True)
    if "P" in inp:
        chain = {"F": run.matrix_json(inp["F"]), "P": run.matrix_json(inp["P"]), "r": inp["r"]}
        (d.parent / "chain.json").write_text(json.dumps(chain))
    w = worker.WORKLOADS[name]()
    state = w.load(inp, d)
    assert [call() for call in w.calls(inp, d, state)] == [0] * run.WORKLOADS[name][1]
    return w, inp, w.collect(inp, d)


def test_simulate() -> None:
    w, inp, out = run_once("simulate_27x54")
    expect("simulate: real output", w.check(inp, out), clean=True)
    last = len(inp["snr_db"]) - 1
    plain = out["recursive"]
    _, rows = checks.parse_csv(plain)
    ser_col = checks.SIMULATE_HEADER.index("coupled_ser")
    swapped = edit_csv(plain, 0, "coupled_ser", lambda v: rows[last][ser_col])
    expect("simulate: coupled SER of two grid points swapped",
           w.check(inp, dict(out, recursive=swapped)), clean=False)
    expect("simulate: one addition too many",
           w.check(inp, dict(out, recursive=edit_csv(plain, 0, "measured_adds", lambda v: v + 1))), clean=False)
    worse = edit_csv(out["sic"], 0, "coupled_ser", lambda v: rows[0][ser_col] + 0.3)
    expect("simulate: SIC far worse than plain", w.check(inp, dict(out, sic=worse)), clean=False)
    over = edit_csv(out["sic"], 0, "measured_muls", lambda v: v + 1000)
    expect("simulate: SIC ops above the bound", w.check(inp, dict(out, sic=over)), clean=False)


def test_oracle() -> None:
    w, inp, out = run_once("oracle_9x18")
    expect("oracle: real output", w.check(inp, out), clean=True)
    top = len(inp["snr_db"]) - 1  # 20 dB
    flipped = copy.deepcopy(out)
    flipped["points"][top]["oracle"][0, 0] *= -1
    expect("oracle: one oracle decision flipped", w.check(inp, flipped), clean=False)
    flipped = copy.deepcopy(out)
    flipped["points"][top]["recursive"][0, 0] *= -1
    expect("oracle: one recursive decision flipped", w.check(inp, flipped), clean=False)
    low = copy.deepcopy(out)
    low["points"][top]["agreement"] = 0.75
    expect("oracle: agreement misreported", w.check(inp, low), clean=False)


def test_search() -> None:
    w, inp, out = run_once("search_mp4")
    expect("search: real output", w.check(inp, out), clean=True)

    def with_designs(change):
        designs = json.loads(out["search"][0])
        change(designs)
        return dict(out, search=[json.dumps(designs)] + out["search"][1:])

    def swap(i, j):
        return lambda ds: ds.__setitem__(slice(None), ds[:i] + [ds[j]] + ds[i + 1:j] + [ds[i]] + ds[j + 1:])

    designs = json.loads(out["search"][0])
    tie = next(i for i in range(len(designs) - 1)
               if sorted(designs[i]["gains"]) == sorted(designs[i + 1]["gains"]))
    expect("search: best and worst design swapped", w.check(inp, with_designs(swap(0, len(designs) - 1))), clean=False)
    expect("search: two tied designs swapped", w.check(inp, with_designs(swap(tie, tie + 1))), clean=False)
    expect("search: one gain perturbed",
           w.check(inp, with_designs(lambda ds: ds[0]["gains"].__setitem__(0, "5/3"))), clean=False)

    def flip_alpha(ds):
        ds[0]["alpha"]["data"][0] = -ds[0]["alpha"]["data"][0] or 1

    expect("search: one alpha entry flipped", w.check(inp, with_designs(flip_alpha)), clean=False)
    expect("search: last design dropped", w.check(inp, with_designs(lambda ds: ds.pop())), clean=False)
    for column in ("c_recursive", "c_pdma", "c_oma"):
        bad = edit_csv(out["rate"][0], 10, column, lambda v: v * (1 + 1e-6))
        expect(f"rate: {column} perturbed", w.check(inp, dict(out, rate=[bad] + out["rate"][1:])), clean=False)


def test_tracer() -> None:
    # root 0..100 with children 10..30 and 40..90; the second has a child 50..60
    spans = [
        ["combiner.run_algorithm1", -1, 0, 100, False],
        ["combiner.find_combiners", 0, 10, 30, False],
        ["combiner.find_combiners", 0, 40, 90, True],
        ["rate.sum_rate_recursive", 2, 50, 60, False],
    ]
    s = tracer.layer_summary(spans)
    got = (s["combiner.run_algorithm1.self_s"], s["combiner.find_combiners.self_s"],
           s["combiner.find_combiners.calls"], s["combiner.candidates"], s["combiner.feasible_designs"])
    want = (30e-9, 60e-9, 2, 2, 1)
    expect("tracer: self times and counts", [] if got == want else [f"{got} != {want}"], clean=True)

    sys.path.insert(0, str(run.ROOT / "src"))
    from kronnoma import cli, combiner, rate

    original = combiner.run_algorithm1
    t = tracer.Tracer()
    t.install()
    bound_everywhere = cli.run_algorithm1 is combiner.run_algorithm1 is not original
    scorer_wrapped = combiner.sum_rate_recursive is rate.sum_rate_recursive
    cli.main(["search", "--mp", "2", "--json-out", str(run.ROOT / ".bench_out" / "selftest-mp2.json")])
    t.uninstall()
    restored = cli.run_algorithm1 is combiner.run_algorithm1 is original
    names = [span[0] for span in t.spans]
    problems = []
    if not (bound_everywhere and scorer_wrapped and restored):
        problems.append("from-imported names are not wrapped and restored together")
    if names[:2] != ["cli.main", "combiner.run_algorithm1"] or t.spans[1][1] != 0:
        problems.append(f"unexpected span tree {names[:4]}")
    expect("tracer: wraps from-imported names and restores them", problems, clean=True)


if __name__ == "__main__":
    test_tracer()
    test_simulate()
    test_oracle()
    test_search()
    print(f"{len(failures)} failing case(s)" if failures else "all cases behave")
    sys.exit(1 if failures else 0)
