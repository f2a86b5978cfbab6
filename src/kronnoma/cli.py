"""Command-line front end: search -> design -> rate -> simulate pipelines.

Conventions fixed here, at the boundary only:

* SNR flags are in dB; cores run on linear snr = 10^(dB/10).
* CSV output uses '.' decimals, comma separators, a header row, LF line
  endings, and "%.12g" float formatting, so identical runs diff byte-equal.
* Exit codes: 0 success, 2 configuration/input error, 3 refusal because a
  configured enumeration/hypothesis cap would be exceeded.
"""

from __future__ import annotations

import json
import math
import re
import sys
from dataclasses import dataclass
from typing import Callable, NamedTuple

from .combiner import CapExceeded, CombinerDesign, find_combiners, run_algorithm1
from .detector import BPSK, QPSK, DetectionConfig
from .pattern import FactorChain, PatternMatrix, build_chain, json_fields, json_object, load_chain
from .rate import (
    sum_rate_oma,
    sum_rate_pdma,
    sum_rate_recursive,
    sum_rate_sic_reference,
)
from .simkit import run_monte_carlo

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
        return json.load(fh, object_pairs_hook=json_object)


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
    return DetectionConfig(
        chain=chain,
        design=design,
        constellation=_CONSTELLATIONS[cfg.constellation],
        power_offsets=cfg.power_offsets,
        sic=cfg.detector == "sic",
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


_COMMANDS = {
    "search": (cmd_search, "exhaustive square-factor + combiner search"),
    "design": (cmd_design, "solve combining coefficients for a given square factor"),
    "rate": (cmd_rate, "closed-form sum-rate curves over an SNR grid"),
    "simulate": (cmd_simulate, "seeded Monte Carlo error-rate measurement"),
    "count-ops": (cmd_count_ops, "closed-form operation bounds for a chain"),
}


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


class Option(NamedTuple):
    """A flag of the space-separated `commands`: `convert` turns its text
    into the value of `field`, and `default`, when not None, is the text
    taken when the flag is absent.  A switch takes no text; its `convert`
    is the value it sets.  `field` names a RunConfig field, except for the
    three ends of a `rate` grid, which `_range_grid` turns into one."""

    commands: str
    flag: str
    field: str
    convert: Callable[[str], object] | str
    default: str | None
    required: bool
    help: str


_OPTIONS = [Option(*row) for row in (
    ("search", "--mp", "mp", int, None, True, "square factor size m_p"),
    ("search", "--ref-snr-db", "ref_snr_db", float, "10", False, "scoring SNR in dB"),
    ("search", "--top", "top", int, None, False, "keep only the best N designs"),
    ("design", "--p", "p_path", str, None, True, "square factor JSON path"),
    ("search design", "--json-out", "json_out", str, None, False, "output path (default stdout)"),
    ("rate simulate count-ops", "--chain", "chain_path", str, None, True, "factor chain JSON path"),
    ("rate", "--gains", "gains_path", str, None, False, "design JSON (search output)"),
    ("rate", "--snr-db-min", "snr_db_min", float, "0", False, "first grid point in dB"),
    ("rate", "--snr-db-max", "snr_db_max", float, "30", False, "last grid point in dB"),
    ("rate", "--snr-db-step", "snr_db_step", float, "1", False, "grid step in dB"),
    ("rate", "--baselines", "baselines",
     lambda text: tuple(b.strip() for b in text.split(",") if b.strip()),
     "pdma,oma,example4", False, "comma list of pdma,oma,example4"),
    ("simulate", "--snr-db", "snr_db_grid", _float_list, None, True,
     "comma list of dB points, ascending"),
    ("simulate", "--trials", "trials", int, None, True, "trials per point"),
    ("simulate", "--detector", "detector", str, "recursive", False, "recursive, oracle or sic"),
    ("simulate", "--seed", "seed", int, "0", False, "seed of the trial streams"),
    ("simulate", "--design", "design_path", str, None, False, "design JSON (search output)"),
    ("simulate", "--power-offsets", "power_offsets",
     lambda text: _float_list(text) if text else None, None, False, "comma list, one per user"),
    ("simulate count-ops", "--constellation", "constellation", str, "bpsk", False, "bpsk or qpsk"),
    ("rate simulate", "--csv-out", "csv_out", str, None, False, "output path (default stdout)"),
    ("count-ops", "--sic", "detector", "sic", None, False, "budget a cancellation final stage"),
)]


def _help(usage: str, options) -> str:
    rows = [("-h, --help", "show this help and exit")]
    for o in options:
        note = " (required)" if o.required else f" (default {o.default})" if o.default else ""
        name = o.flag if isinstance(o.convert, str) else f"{o.flag} {o.field.upper()}"
        rows.append((name, o.help + note))
    width = max(len(name) for name, _ in rows) + 2
    lines = [usage, "", "options:", *(f"  {name:<{width}}{text}" for name, text in rows)]
    return "\n".join(lines) + "\n"


def _convert(o: Option, text: str):
    if isinstance(o.convert, str):
        return o.convert
    try:
        return o.convert(text)
    except ValueError as exc:
        why = f"invalid {o.convert.__name__} value: {text!r}" if o.convert in (int, float) else exc
        raise ValueError(f"argument {o.flag}: {why}") from None


def parse_flags(options, argv: list[str], usage: str, last_wins: bool = False) -> dict | None:
    """The values of the flags in `argv` by field, or None once `-h` or
    `--help` has printed `usage` and the flags.  A flag is named in full or
    by a unique prefix and takes its value from the next token or after
    `=`; a value is taken verbatim unless it starts with "--" and, as
    argparse read it, holds no space or names a flag.  A repeated flag is
    refused unless `last_wins`.  A usage error raises ValueError naming
    the flag."""
    flags = {o.flag: o for o in options}

    def resolve(name: str) -> str | None:
        if name in flags or name == "--help":
            return name
        found = [f for f in (*flags, "--help") if len(name) > 2 and f.startswith(name)]
        if len(found) > 1:
            raise ValueError(f"argument {name}: ambiguous, could match {', '.join(found)}")
        return found[0] if found else None

    values, given, tokens = {}, set(), iter(argv)
    for tok in tokens:
        name, eq, text = tok.partition("=")
        flag = resolve(name) if tok.startswith("--") else "--help" if tok == "-h" else None
        if flag is None:
            raise ValueError(f"argument {tok}: unrecognized")
        if flag == "--help" or isinstance(flags[flag].convert, str):
            if eq:
                raise ValueError(f"argument {flag}: takes no value")
            if flag == "--help":
                sys.stdout.write(_help(usage, options))
                return None
        elif not eq:
            text = next(tokens, None)
            if text is None or text.startswith("--") and (
                    " " not in text or resolve(text.partition("=")[0])):
                raise ValueError(f"argument {flag}: expected one argument")
        if flag in given and not last_wins:
            raise ValueError(f"argument {flag}: given more than once")
        given.add(flag)
        values[flags[flag].field] = _convert(flags[flag], text)
    missing = [o.flag for o in options if o.required and o.flag not in given]
    if missing:
        raise ValueError(f"argument {', '.join(missing)}: required")
    values.update((o.field, _convert(o, o.default)) for o in options
                  if o.flag not in given and o.default is not None)
    return values


def _parse(argv: list[str]) -> RunConfig | None:
    """The run configuration of the command line `argv`, or None once help
    has been printed."""
    command = argv[0] if argv else None
    if command not in _COMMANDS:
        usage = "\n".join([f"usage: kronnoma {{{','.join(_COMMANDS)}}} ...", "",
                           "Design, rate, and simulate Kronecker-factorized code-domain NOMA.", "",
                           "subcommands:", *(f"  {c:<12}{h}" for c, (_, h) in _COMMANDS.items())])
        if command and command.startswith("-") and parse_flags((), [command], usage) is None:
            return None
        why = "required" if command is None else f"invalid choice {command!r}"
        raise ValueError(f"argument subcommand: {why}; choose from {', '.join(_COMMANDS)}")
    options = [o for o in _OPTIONS if command in o.commands.split()]
    usage = f"usage: kronnoma {command} [options]\n\n{_COMMANDS[command][1]}"
    kw = parse_flags(options, argv[1:], usage)
    if kw is not None and command == "rate":
        grid = kw.pop("snr_db_min"), kw.pop("snr_db_max"), kw.pop("snr_db_step")
        kw["snr_db_grid"] = _range_grid(*grid)
    return None if kw is None else RunConfig(command, **kw)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        cfg = _parse(argv)
        return 0 if cfg is None else _COMMANDS[cfg.subcommand][0](cfg)
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
