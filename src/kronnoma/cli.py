"""Command-line front end: search -> design -> rate -> simulate pipelines.

Conventions fixed here, at the boundary only:

* SNR flags are in dB; cores run on linear snr = 10^(dB/10).
* CSV output uses '.' decimals, comma separators, a header row, LF line
  endings, and "%.12g" float formatting, so identical runs diff byte-equal.
* Exit codes: 0 success, 2 configuration/input error, 3 refusal because a
  configured enumeration/hypothesis cap would be exceeded.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import re
import sys
from dataclasses import dataclass

from .combiner import CapExceeded, CombinerDesign, find_combiners, run_algorithm1
from .pattern import FactorChain, PatternMatrix, build_chain, json_fields, load_chain
from .rate import (
    sum_rate_oma,
    sum_rate_pdma,
    sum_rate_recursive,
    sum_rate_sic_reference,
)
from .simkit import BPSK, QPSK, run_monte_carlo

_BASELINES = ("pdma", "oma", "example4")
_CONSTELLATIONS = {"bpsk": BPSK, "qpsk": QPSK}
# points of a `rate` grid; larger grids are refused before any is built
MAX_GRID_POINTS = 100_000


def db_to_linear(snr_db: float) -> float:
    try:
        return 10.0 ** (snr_db / 10.0)
    except OverflowError:
        raise ValueError(f"an SNR of {snr_db:g} dB exceeds the float range") from None


@dataclass(frozen=True)
class RunConfig:
    """One validated CLI invocation; every handler is a pure function of it."""

    subcommand: str
    mp: int = 0
    ref_snr_db: float = 10.0
    top: int | None = None
    p_path: str | None = None
    chain_path: str | None = None
    gains_path: str | None = None
    design_path: str | None = None
    snr_db_grid: tuple[float, ...] = ()
    trials: int = 0
    seed: int = 0
    detector: str = "recursive"
    power_offsets: tuple[float, ...] | None = None
    constellation: str = "bpsk"
    baselines: tuple[str, ...] = _BASELINES
    json_out: str | None = None
    csv_out: str | None = None

    def __post_init__(self):
        if not math.isfinite(self.ref_snr_db):
            raise ValueError("--ref-snr-db must be finite")
        if self.top is not None and self.top < 1:
            raise ValueError("--top must be at least 1")
        if self.subcommand in ("rate", "simulate"):
            if not self.snr_db_grid:
                raise ValueError("SNR grid must be nonempty")
            if not all(math.isfinite(v) for v in self.snr_db_grid):
                raise ValueError("SNR values must be finite")
            if any(b >= a for a, b in zip(self.snr_db_grid[1:], self.snr_db_grid)):
                raise ValueError("SNR grid must be strictly ascending")
        if self.trials < 0:
            raise ValueError("trial count must be nonnegative")
        if not 0 <= self.seed < 2**64:
            raise ValueError("seed must fit in 64 bits")
        if self.detector not in ("recursive", "oracle", "sic"):
            raise ValueError("detector must be recursive, oracle, or sic")
        if self.constellation not in _CONSTELLATIONS:
            raise ValueError("constellation must be bpsk or qpsk")
        bad = [b for b in self.baselines if b not in _BASELINES]
        if bad:
            raise ValueError(f"unknown baselines: {bad}; choose from {list(_BASELINES)}")
        if self.power_offsets is not None and any(v <= 0 for v in self.power_offsets):
            raise ValueError("power offsets must be positive")


def _write_text(path: str | None, text: str) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def _fmt(v) -> str:
    if isinstance(v, float):
        return f"{v:.12g}"
    return str(v)


def _csv_text(header: list[str], rows: list[list]) -> str:
    lines = [",".join(header)]
    lines.extend(",".join(_fmt(v) for v in row) for row in rows)
    return "\n".join(lines) + "\n"


def _load_json(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


_JSON_SPACE = re.compile(r"[ \t\n\r]*")
_NUMBER_CHARS = re.compile(r"[0-9+\-.eE]*")


# characters of a design file read at first; each later read doubles what
# is held, so reading a whole file copies its text about twice in all
_READ_CHARS = 1 << 20


def _design_records(fh):
    """The records of the design file `fh` in order: the elements of a
    top-level array, each decoded only when it is reached, or else the
    file's one value.  The file is read only as far as the records asked
    for.  Malformed text is refused when the walk reaches it, with the
    message `json.loads` gives: the text read so far is kept whole, so
    positions are the file's, and a decode error is raised only once the
    file is read to its end, when it cannot be text cut short."""
    text, eof = "", False

    def more() -> bool:
        nonlocal text, eof
        chunk = fh.read(max(_READ_CHARS, len(text)))
        text += chunk
        eof = not chunk
        return not eof

    def skip(i: int) -> int:
        # the first non-blank character at or after i, or the end of the file
        while True:
            j = _JSON_SPACE.match(text, i).end()
            if j < len(text) or not more():
                return j

    def decode(i: int):
        # a number cut by the end of the text read so far decodes short, so
        # a value followed by nothing but number characters is read on
        while True:
            try:
                record, j = decoder.raw_decode(text, i)
                if eof or _NUMBER_CHARS.match(text, j).end() < len(text):
                    return record, j
            except json.JSONDecodeError:
                if eof:
                    raise
            more()

    decoder = json.JSONDecoder()
    i = skip(0)
    if not text.startswith("[", i):
        while more():
            pass
        yield json.loads(text)
        return
    i = skip(i + 1)
    if not text.startswith("]", i):
        while True:
            record, i = decode(i)
            yield record
            i = skip(i)
            if text.startswith("]", i):
                break
            if not text.startswith(",", i):
                raise json.JSONDecodeError("Expecting ',' delimiter", text, i)
            i = skip(i + 1)
    end = skip(i + 1)
    if end != len(text):
        raise json.JSONDecodeError("Extra data", text, end)


def _plain_matrix(obj) -> bool:
    """Whether `obj` is a pattern matrix that `PatternMatrix.from_json_dict`
    accepts on sight: int rows and cols >= 1, and a list of rows*cols
    entries, each the int 0 or 1.  Such a matrix equals another when its
    raw fields do."""
    if type(obj) is not dict:
        return False
    rows, cols, data = obj.get("rows"), obj.get("cols"), obj.get("data")
    return (type(rows) is int and type(cols) is int and rows >= 1 and cols >= 1
            and type(data) is list and len(data) == rows * cols
            and {*map(type, data)} == {int} and {*data} <= {0, 1})


def _resolve_design(records, P: PatternMatrix) -> CombinerDesign:
    """Use the first of `records` whose square factor matches the chain's.
    Each record before the match is decoded and checked only as far as its
    P: a plainly well-formed P is compared as raw fields, any other is
    built and validated, so it is refused as before.  The match is built
    and validated in full; records after it are neither parsed nor
    validated."""
    raw = [P.rows, P.cols, P.entries.reshape(-1).tolist()]
    for rec in records:
        rec_P = rec.get("P") if type(rec) is dict else None
        if _plain_matrix(rec_P):
            if [rec_P["rows"], rec_P["cols"], rec_P["data"]] != raw:
                continue
        elif PatternMatrix.from_json_dict(*json_fields(rec, "design record", "P")) != P:
            continue
        return CombinerDesign.from_json_dict(rec)
    raise ValueError("no design in the file matches the chain's square factor")


def _design_for(cfg_path: str | None, chain: FactorChain) -> CombinerDesign:
    if cfg_path is None:
        return find_combiners(chain.P)
    with open(cfg_path, "r", encoding="utf-8") as fh:
        return _resolve_design(_design_records(fh), chain.P)


def cmd_search(cfg: RunConfig) -> int:
    ranking = run_algorithm1(cfg.mp, ref_snr=db_to_linear(cfg.ref_snr_db), top=cfg.top)
    _write_text(cfg.json_out, ranking.json_text())
    return 0


def cmd_design(cfg: RunConfig) -> int:
    P = PatternMatrix.from_json_dict(_load_json(cfg.p_path))
    _write_text(cfg.json_out, find_combiners(P).json_text())
    return 0


def cmd_rate(cfg: RunConfig) -> int:
    chain = load_chain(cfg.chain_path)
    design = _design_for(cfg.gains_path, chain)
    wanted = [b for b in _BASELINES if b in cfg.baselines]
    G = build_chain(chain) if "pdma" in wanted else None
    header = ["snr_db", "c_recursive"] + [f"c_{b}" for b in wanted]
    # every float-range refusal grows with the SNR, and a refusal names the
    # first point of the grid that fails: rating the largest point first
    # names it, and a grid whose largest dB value has no linear value is
    # refused before any other point is converted
    grid = cfg.snr_db_grid[-1:] + cfg.snr_db_grid[:-1]
    snrs = [db_to_linear(snr_db) for snr_db in grid]
    columns = [sum_rate_recursive(chain, design.gains, snrs)]
    for b in wanted:
        if b == "pdma":
            columns.append(sum_rate_pdma(G, snrs))
        elif b == "oma":
            columns.append(sum_rate_oma(snrs))
        else:
            columns.append(sum_rate_sic_reference(snrs))
    rows = list(zip(grid, *(column.tolist() for column in columns)))
    _write_text(cfg.csv_out, _csv_text(header, rows[1:] + rows[:1]))
    return 0


def _detection_config(cfg: RunConfig, chain: FactorChain, design: CombinerDesign):
    from .detector import DetectionConfig

    return DetectionConfig(
        chain=chain,
        design=design,
        constellation=_CONSTELLATIONS[cfg.constellation],
        power_offsets=cfg.power_offsets,
        sic_symbols=(chain.m_p - 1,) if cfg.detector == "sic" else (),
    )


def cmd_simulate(cfg: RunConfig) -> int:
    chain = load_chain(cfg.chain_path)
    design = _design_for(cfg.design_path, chain)
    dc = _detection_config(cfg, chain, design)
    points = run_monte_carlo(
        dc,
        [db_to_linear(db) for db in cfg.snr_db_grid],
        cfg.trials,
        cfg.seed,
        detector="oracle" if cfg.detector == "oracle" else "recursive",
    )
    header = [
        "snr_db",
        "trials",
        "ser",
        "coupled_ser",
        "ambiguity_rate",
        "measured_adds",
        "measured_muls",
        "bound_adds",
        "bound_muls",
    ]
    rows = [
        [
            db,
            pt.trials,
            pt.ser,
            pt.coupled_ser,
            pt.ambiguity_rate,
            pt.measured_adds,
            pt.measured_muls,
            pt.bound_adds,
            pt.bound_muls,
        ]
        for db, pt in zip(cfg.snr_db_grid, points)
    ]
    _write_text(cfg.csv_out, _csv_text(header, rows))
    bounds = dc.op_bounds()
    summary = (
        f"ops summary: combining_adds_bound={bounds.combining_adds}"
        f" total_adds_bound={bounds.total_adds}"
        f" total_muls_bound={bounds.total_muls}"
        f" final_sets={bounds.final_sets}"
    )
    if points:
        summary += f" measured_adds={points[0].measured_adds} measured_muls={points[0].measured_muls}"
    print(summary)
    return 0


def cmd_count_ops(cfg: RunConfig) -> int:
    chain = load_chain(cfg.chain_path)
    design = find_combiners(chain.P)
    dc = _detection_config(cfg, chain, design)
    bounds = dc.op_bounds()
    for name, value in (
        ("m_f", chain.m_f),
        ("k_f", chain.k_f),
        ("m_p", chain.m_p),
        ("r", chain.r),
        ("n_add_reg", bounds.final_stage_adds),
        ("n_mul_reg", bounds.final_stage_muls),
        ("combining_adds_bound", bounds.combining_adds),
        ("total_adds_bound", bounds.total_adds),
        ("total_muls_bound", bounds.total_muls),
        ("final_sets", bounds.final_sets),
    ):
        print(f"{name}={value}")
    return 0


_DISPATCH = {
    "search": cmd_search,
    "design": cmd_design,
    "rate": cmd_rate,
    "simulate": cmd_simulate,
    "count-ops": cmd_count_ops,
}


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser of every subcommand, built once per process: parsing
    leaves it unchanged, and only in-process callers (scripts, tests, the
    benchmark worker) call `main` more than once."""
    parser = argparse.ArgumentParser(
        prog="kronnoma",
        description="Design, rate, and simulate Kronecker-factorized code-domain NOMA.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("search", help="exhaustive square-factor + combiner search")
    p.add_argument("--mp", type=int, required=True, help="square factor size m_p")
    p.add_argument("--ref-snr-db", type=float, default=10.0, help="scoring SNR in dB")
    p.add_argument("--top", type=int, default=None, help="keep only the best N designs")
    p.add_argument("--json-out", default=None, help="output path (default stdout)")

    p = sub.add_parser("design", help="solve combining coefficients for a given square factor")
    p.add_argument("--p", dest="p_path", required=True, help="square factor JSON path")
    p.add_argument("--json-out", default=None)

    p = sub.add_parser("rate", help="closed-form sum-rate curves over an SNR grid")
    p.add_argument("--chain", dest="chain_path", required=True, help="factor chain JSON path")
    p.add_argument("--gains", dest="gains_path", default=None, help="design JSON (search output)")
    p.add_argument("--snr-db-min", type=float, default=0.0)
    p.add_argument("--snr-db-max", type=float, default=30.0)
    p.add_argument("--snr-db-step", type=float, default=1.0)
    p.add_argument("--baselines", default="pdma,oma,example4", help="comma list of pdma,oma,example4")
    p.add_argument("--csv-out", default=None)

    p = sub.add_parser("simulate", help="seeded Monte Carlo error-rate measurement")
    p.add_argument("--chain", dest="chain_path", required=True)
    p.add_argument("--snr-db", required=True, help="comma list of dB points, ascending")
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--detector", choices=("recursive", "oracle", "sic"), default="recursive")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--design", dest="design_path", default=None, help="design JSON (search output)")
    p.add_argument("--power-offsets", default=None, help="comma list, one per user")
    p.add_argument("--constellation", choices=sorted(_CONSTELLATIONS), default="bpsk")
    p.add_argument("--csv-out", default=None)

    p = sub.add_parser("count-ops", help="closed-form operation bounds for a chain")
    p.add_argument("--chain", dest="chain_path", required=True)
    p.add_argument("--constellation", choices=sorted(_CONSTELLATIONS), default="bpsk")
    p.add_argument("--sic", action="store_true", help="budget a cancellation final stage")

    return parser


def _float_list(text: str) -> tuple[float, ...]:
    return tuple(float(v) for v in text.split(",") if v.strip() != "")


def _range_grid(lo: float, hi: float, step: float) -> tuple[float, ...]:
    if not all(math.isfinite(v) for v in (lo, hi, step)):
        raise ValueError("--snr-db-min, --snr-db-max and --snr-db-step must be finite")
    if step <= 0:
        raise ValueError("--snr-db-step must be positive")
    if hi < lo:
        raise ValueError("--snr-db-max must be at least --snr-db-min")
    span = (hi - lo) / step + 1e-9  # may be inf
    if not span < MAX_GRID_POINTS:
        raise CapExceeded(
            f"the SNR grid would have {span + 1:.6g} points, above the cap ({MAX_GRID_POINTS})"
        )
    return tuple(lo + i * step for i in range(int(span) + 1))


def _config_from_args(ns: argparse.Namespace) -> RunConfig:
    kw = {"subcommand": ns.subcommand}
    if ns.subcommand == "search":
        kw.update(mp=ns.mp, ref_snr_db=ns.ref_snr_db, top=ns.top, json_out=ns.json_out)
    elif ns.subcommand == "design":
        kw.update(p_path=ns.p_path, json_out=ns.json_out)
    elif ns.subcommand == "rate":
        kw.update(
            chain_path=ns.chain_path,
            gains_path=ns.gains_path,
            snr_db_grid=_range_grid(ns.snr_db_min, ns.snr_db_max, ns.snr_db_step),
            baselines=tuple(b.strip() for b in ns.baselines.split(",") if b.strip()),
            csv_out=ns.csv_out,
        )
    elif ns.subcommand == "simulate":
        kw.update(
            chain_path=ns.chain_path,
            snr_db_grid=_float_list(ns.snr_db),
            trials=ns.trials,
            seed=ns.seed,
            detector=ns.detector,
            design_path=ns.design_path,
            power_offsets=_float_list(ns.power_offsets) if ns.power_offsets else None,
            constellation=ns.constellation,
            csv_out=ns.csv_out,
        )
    else:
        kw.update(chain_path=ns.chain_path, constellation=ns.constellation,
                  detector="sic" if ns.sic else "recursive")
    return RunConfig(**kw)


_NEGATIVE_VALUE = re.compile(r"-\.?\d")


def _attach_negative_values(argv: list[str]) -> list[str]:
    """argparse reads a value that starts with '-' as an option unless it is a
    plain number, so `--snr-db -3,0,5` fails; rewrite it as `--snr-db=-3,0,5`.
    No option name starts with a digit, so this never swallows a flag."""
    out: list[str] = []
    for tok in argv:
        prev = out[-1] if out else ""
        if prev.startswith("--") and "=" not in prev and _NEGATIVE_VALUE.match(tok):
            out[-1] = f"{prev}={tok}"
        else:
            out.append(tok)
    return out


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        ns = _build_parser().parse_args(_attach_negative_values(argv))
    except SystemExit as exc:  # argparse handles --help (0) and usage errors (2)
        return int(exc.code or 0)
    try:
        cfg = _config_from_args(ns)
        return _DISPATCH[cfg.subcommand](cfg)
    except CapExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, KeyError, TypeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
