"""Output checks for the benchmark workloads, computed without kronnoma.

Every reference value here comes from numpy, math and itertools applied to
the benchmark's own inputs (the factor matrices, grids and seeds it wrote),
or from a property the method must have.  Nothing is compared against a
stored copy of earlier output.  Each check returns a list of problems; an
empty list means the output passed.
"""

from __future__ import annotations

import csv
import io
import itertools
import math
from fractions import Fraction

import numpy as np

# statistical checks allow this many standard errors; with a normal error
# count that is a false alarm about once in 1.7 million checks
Z_ALLOWED = 5.0
# CSV floats carry 12 significant digits
REL_TOL = 1e-10

SIMULATE_HEADER = [
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


def db_to_linear(snr_db: float) -> float:
    return 10.0 ** (snr_db / 10.0)


def q_function(x: float) -> float:
    """Gaussian tail probability P(N(0,1) > x)."""
    return 0.5 * math.erfc(x / math.sqrt(2.0))


def chain_matrix(F, P, r: int) -> np.ndarray:
    """G = F (x) P (x) ... (x) P with r copies of P."""
    G = np.asarray(F, dtype=np.int64)
    for _ in range(r):
        G = np.kron(G, np.asarray(P, dtype=np.int64))
    return G


def coefficient_table(m: int) -> np.ndarray:
    """All 3^m vectors over {-1, 0, +1}, lexicographic under -1 < 0 < +1."""
    return np.array(list(itertools.product((-1, 0, 1), repeat=m)), dtype=np.int64)


def best_combiners(P) -> list[tuple[np.ndarray, int, Fraction] | None]:
    """Per column j of P: the vector alpha over {-1, 0, +1} with alpha @ P
    zero off column j and positive on it, of largest gain w^2 / ||alpha||^2,
    taking the first in lexicographic order among equal gains.  None marks a
    column no vector isolates."""
    P = np.asarray(P, dtype=np.int64)
    m = P.shape[0]
    vecs = coefficient_table(m)
    norms = (vecs * vecs).sum(axis=1)
    resp = vecs @ P
    out = []
    for j in range(m):
        w = resp[:, j]
        isolates = (w > 0) & (np.delete(resp, j, axis=1) == 0).all(axis=1)
        idx = np.flatnonzero(isolates)
        if idx.size == 0:
            out.append(None)
            continue
        gains = [Fraction(int(w[i]) ** 2, int(norms[i])) for i in idx]
        best = max(gains)
        i = idx[gains.index(best)]  # index() returns the first, lexicographically smallest
        out.append((vecs[i], int(w[i]), best))
    return out


def column_values(P) -> tuple[int, ...]:
    """Binary value of each column, row 0 the least significant bit."""
    P = np.asarray(P, dtype=np.int64)
    return tuple(int(v) for v in (1 << np.arange(P.shape[0])) @ P)


def matrix_from_columns(m: int, values) -> np.ndarray:
    return np.array([[(v >> i) & 1 for v in values] for i in range(m)], dtype=np.int64)


def feasible_factors(m: int) -> list[tuple[int, ...]]:
    """Column-value tuples (ascending) of every m x m binary factor with
    distinct nonzero columns whose every column has an isolating vector."""
    return [
        cols
        for cols in itertools.combinations(range(1, 2**m), m)
        if all(b is not None for b in best_combiners(matrix_from_columns(m, cols)))
    ]


def _path_gains(P, r: int) -> list[Fraction]:
    gains = [b[2] for b in best_combiners(P)]
    out = []
    for path in itertools.product(range(len(gains)), repeat=r):
        g = Fraction(1)
        for j in path:
            g *= gains[j]
        out.append(g)
    return out


def path_noise_design_effect(P, r: int) -> float:
    """Mean over paths of sum_j |corr(n_i, n_j)| for the combined noise of
    the final-stage inputs (one per path when F has one row).

    The maximal correlation of two jointly Gaussian variables is their
    |correlation|, and the symbols each path decides are independent of the
    other paths', so the error indicators of paths i and j correlate by at
    most |corr(n_i, n_j)|.  The variance of the number of path errors in a
    trial is therefore at most p (1 - p) times this sum."""
    alpha = np.array([b[0] for b in best_combiners(P)])
    rows = []
    for path in itertools.product(range(alpha.shape[0]), repeat=r):
        acc = np.array([1])
        for j in reversed(path):
            acc = np.kron(acc, alpha[j])
        rows.append(acc)
    L = np.array(rows, dtype=float)
    cov = L @ L.T
    sd = np.sqrt(np.diag(cov))
    return float(np.abs(cov / np.outer(sd, sd)).sum(axis=1).mean())


def coupled_ser_closed_form(P, r: int, snr: float) -> float:
    """Coupled-sum error rate of F = [1 1] with BPSK: each path decides
    x_k + x_k' in {-2, 0, 2} (priors 1/4, 1/2, 1/4) against thresholds +-1,
    which errs with probability (1/4 + 1/2 * 2 + 1/4) Q(d) = 1.5 Q(d),
    d = sqrt(g_path * snr)."""
    gains = _path_gains(P, r)
    return sum(1.5 * q_function(math.sqrt(float(g) * snr)) for g in gains) / len(gains)


def detection_ops(F, P, r: int, alphabet: int) -> tuple[int, int]:
    """Exact (adds, muls) of one plain recursive detection, from the
    accounting model in kronnoma.detector's module docstring."""
    F = np.asarray(F)
    m_f, k_f = F.shape
    m_p = np.asarray(P).shape[0]
    alpha = [b[0] for b in best_combiners(P)]
    groups_per_level = m_f * m_p ** (r - 1)  # m_p-equation groups per class and level
    combining = r * groups_per_level * sum(int(np.count_nonzero(a)) - 1 for a in alpha)
    hyp = alphabet**k_f
    sets = m_p**r
    adds = combining + sets * hyp * (int(F.sum()) + m_f - 1)
    muls = sets * hyp * (k_f + 2 * m_f)
    return adds, muls


def detection_bounds(F, P, r: int, alphabet: int, *, sic: bool) -> tuple[int, int]:
    """Closed-form (adds, muls) bound of one detection: every combining
    vector dense, and with SIC m_p - 1 cancelled classes per final stage."""
    F = np.asarray(F)
    m_f, k_f = F.shape
    m_p = np.asarray(P).shape[0]
    sets = m_p**r
    hyp = alphabet**k_f
    n_add = hyp * (int(F.sum()) + m_f - 1)
    n_mul = hyp * (k_f + 2 * m_f)
    if sic:
        n_add += m_f * (m_p - 1)
        n_mul += m_f * (m_p - 1)
    return r * m_f * sets * (m_p - 1) + sets * n_add, sets * n_mul


def parse_csv(text: str) -> tuple[list[str], list[list[float]]]:
    rows = list(csv.reader(io.StringIO(text)))
    if not rows:
        return [], []
    return rows[0], [[float(v) for v in row] for row in rows[1:]]


def _close(got: float, want: float) -> bool:
    return abs(got - want) <= REL_TOL * max(abs(want), 1e-300)


def check_simulate(plain_csv: str, sic_csv: str, inp: dict) -> list[str]:
    """`kronnoma simulate` on F = [1 1], BPSK: plain and SIC detector, same seed."""
    F, P, r = inp["F"], inp["P"], inp["r"]
    grid, trials = inp["snr_db"], inp["trials"]
    n_paths = len(P) ** r
    n_pairs = trials * n_paths
    deff = path_noise_design_effect(P, r)
    problems = []
    tables = {}
    for name, text in (("plain", plain_csv), ("sic", sic_csv)):
        header, rows = parse_csv(text)
        if header != SIMULATE_HEADER:
            problems.append(f"{name}: header {header}")
            return problems
        if [row[0] for row in rows] != list(grid) or any(row[1] != trials for row in rows):
            problems.append(f"{name}: rows do not follow the grid {grid} x {trials} trials")
            return problems
        tables[name] = {SIMULATE_HEADER[i]: [row[i] for row in rows] for i in range(len(header))}

    plain, sic = tables["plain"], tables["sic"]
    exact = detection_ops(F, P, r, 2)
    bound = detection_bounds(F, P, r, 2, sic=False)
    bound_sic = detection_bounds(F, P, r, 2, sic=True)
    for i, db in enumerate(grid):
        p0 = coupled_ser_closed_form(P, r, db_to_linear(db))
        se0 = math.sqrt(p0 * (1 - p0) * deff / n_pairs)
        got = plain["coupled_ser"][i]
        if abs(got - p0) > Z_ALLOWED * se0:
            problems.append(
                f"plain {db} dB: coupled SER {got:.5f} vs closed form {p0:.5f} "
                f"(allowed {Z_ALLOWED * se0:.5f})"
            )
        ps = max(sic["coupled_ser"][i], p0)
        se_s = math.sqrt(ps * (1 - ps) * deff / n_pairs)
        if sic["coupled_ser"][i] > got + Z_ALLOWED * (se0 + se_s):
            problems.append(
                f"sic {db} dB: coupled SER {sic['coupled_ser'][i]:.5f} worse than plain {got:.5f}"
            )
        ops = (plain["measured_adds"][i], plain["measured_muls"][i])
        if ops != exact:
            problems.append(f"plain {db} dB: measured ops {ops} != accounting model {exact}")
        if (plain["bound_adds"][i], plain["bound_muls"][i]) != bound:
            problems.append(f"plain {db} dB: bound columns != {bound}")
        ops_s = (sic["measured_adds"][i], sic["measured_muls"][i])
        if (sic["bound_adds"][i], sic["bound_muls"][i]) != bound_sic:
            problems.append(f"sic {db} dB: bound columns != {bound_sic}")
        if not (0 < ops_s[0] <= bound_sic[0] and 0 < ops_s[1] <= bound_sic[1]):
            problems.append(f"sic {db} dB: measured ops {ops_s} outside the bound {bound_sic}")
    return problems


def _coupled(x: np.ndarray, groups: list[list[int]]) -> np.ndarray:
    return np.array([x[g].sum() for g in groups])


def check_oracle(out: dict, inp: dict) -> list[str]:
    """Paired Monte Carlo with the brute-force MAP oracle (unit power offsets).

    out["points"] holds, per grid point, stacked arrays tx, rx, recursive and
    oracle (trials x K or trials x M) and the program's oracle agreement."""
    G = chain_matrix(inp["F"], inp["P"], inp["r"]).astype(float)
    columns: dict[bytes, list[int]] = {}
    for k in range(G.shape[1]):
        columns.setdefault(G[:, k].tobytes(), []).append(k)
    groups = list(columns.values())
    problems = []
    points = out["points"]
    if len(points) != len(inp["snr_db"]):
        return [f"{len(points)} grid points, expected {len(inp['snr_db'])}"]
    for db, pt in zip(inp["snr_db"], points):
        if len(pt["tx"]) != inp["trials"]:
            problems.append(f"{db} dB: {len(pt['tx'])} records, expected {inp['trials']}")
            continue

        def metric(x):
            return ((pt["rx"] - x @ G.T) ** 2).sum(axis=1)

        m_oracle = metric(pt["oracle"])
        slack = 1e-9 * (1.0 + m_oracle)
        for other in ("tx", "recursive"):
            worse = np.flatnonzero(m_oracle > metric(pt[other]) + slack)
            if worse.size:
                problems.append(
                    f"{db} dB: oracle metric exceeds the {other} metric in records {worse.tolist()}"
                )
        agree = sum(
            bool((_coupled(a, groups) == _coupled(b, groups)).all())
            for a, b in zip(pt["recursive"], pt["oracle"])
        )
        if pt["agreement"] != agree / inp["trials"]:
            problems.append(f"{db} dB: reported agreement {pt['agreement']} != {agree}/{inp['trials']}")
        if db >= 20.0 and agree / inp["trials"] < 0.99:
            problems.append(f"{db} dB: agreement {agree / inp['trials']} below 0.99")
    return problems


def search_score(gains, snr: float) -> float:
    """Default search score: per-RE rate of F = [1 1] with one recursion."""
    return sum(math.log2(1.0 + 2.0 * snr * float(g)) for g in gains) / (2 * len(gains))


def check_search(designs: list[dict], m: int, ref_snr_db: float, feasible: list[tuple[int, ...]]) -> list[str]:
    """`kronnoma search --mp m` output: contract of every design, and order."""
    problems = []
    if len(designs) != len(feasible):
        problems.append(f"{len(designs)} designs, expected {len(feasible)} feasible factors")
    snr = db_to_linear(ref_snr_db)
    keys = []
    for n, d in enumerate(designs):
        P = np.asarray(d["P"]["data"], dtype=np.int64).reshape(d["P"]["rows"], d["P"]["cols"])
        alpha = np.asarray(d["alpha"]["data"], dtype=np.int64).reshape(m, m)
        cols = column_values(P)
        if P.shape != (m, m) or list(cols) != sorted(set(cols)) or 0 in cols:
            problems.append(f"design {n}: P is not a canonical factor with distinct nonzero columns")
            continue
        if not np.isin(alpha, (-1, 0, 1)).all():
            problems.append(f"design {n}: C1 violated")
            continue
        resp = alpha @ P
        w = np.diag(resp)
        if np.any(w == 0):
            problems.append(f"design {n}: C2 violated")
        if np.any(resp - np.diag(w)):
            problems.append(f"design {n}: C3 violated")
        if list(d["weights"]) != w.tolist() or np.any(w < 0):
            problems.append(f"design {n}: weights {d['weights']} != diag(alpha P) {w.tolist()}")
        gains = [Fraction(g) for g in d["gains"]]
        norms = (alpha * alpha).sum(axis=1)
        if gains != [Fraction(int(wj) ** 2, int(nj)) for wj, nj in zip(w, norms)]:
            problems.append(f"design {n}: gains {d['gains']} != w^2/||alpha||^2")
        for j, best in enumerate(best_combiners(P)):
            if best is None or not np.array_equal(alpha[j], best[0]):
                problems.append(f"design {n}: alpha row {j} is not the best of {3**m} vectors")
        keys.append((cols, sorted(gains), search_score(sorted(gains, reverse=True), snr)))
    if sorted(k[0] for k in keys) != sorted(feasible):
        problems.append("the designs are not exactly the feasible factors")
    for n, (a, b) in enumerate(zip(keys, keys[1:])):
        if a[1] == b[1]:
            if not a[0] < b[0]:
                problems.append(f"designs {n}, {n + 1}: equal scores out of column order")
        elif a[2] < b[2] - 1e-12 * abs(b[2]):
            problems.append(f"designs {n}, {n + 1}: score {a[2]!r} below {b[2]!r}")
    return problems


def _log2_det(A: np.ndarray) -> float:
    return 2.0 * float(np.log2(np.diag(np.linalg.cholesky(A))).sum())


RATE_HEADER = ["snr_db", "c_recursive", "c_pdma", "c_oma", "c_example4"]


def check_rate(text: str, inp: dict, gains: list[Fraction]) -> list[str]:
    """`kronnoma rate` with every baseline on F (x) P^(x)r, P from the search."""
    F = np.asarray(inp["F"], dtype=float)
    P, r = inp["P"], inp["r"]
    G = chain_matrix(inp["F"], P, r).astype(float)
    M = G.shape[0]
    m_p = len(P)
    gram_f = F @ F.T
    eye_f = np.eye(F.shape[0])
    header, rows = parse_csv(text)
    if header != RATE_HEADER:
        return [f"rate header {header}"]
    lo, hi, step = inp["snr_db_min"], inp["snr_db_max"], inp["snr_db_step"]
    want_grid = [lo + i * step for i in range(int(round((hi - lo) / step)) + 1)]
    if [row[0] for row in rows] != want_grid:
        return ["rate rows do not follow the SNR grid"]
    problems = []
    for db, c_rec, c_pdma, c_oma, c_ex4 in rows:
        snr = db_to_linear(db)
        rec = 0.0
        for path in itertools.product(range(m_p), repeat=r):
            boost = Fraction(1)
            for j in path:
                boost *= gains[j]
            rec += _log2_det(eye_f + snr * float(boost) * gram_f)
        want = {
            "c_recursive": rec / (2 * M),
            "c_pdma": _log2_det(np.eye(M) + snr * G @ G.T) / (2 * M),
            "c_oma": 0.5 * math.log2(1.0 + snr),
            "c_example4": (
                4 / 18 * math.log2(1.0 + 2.0 * (16 / 9) * snr)
                + 4 / 18 * math.log2(1.0 + 2.0 * (8 / 3) * snr)
                + 1 / 18 * math.log2(1.0 + 8.0 * snr)
            ),
        }
        for name, got in (("c_recursive", c_rec), ("c_pdma", c_pdma), ("c_oma", c_oma), ("c_example4", c_ex4)):
            if not _close(got, want[name]):
                problems.append(f"rate {db} dB: {name} {got!r} != {want[name]!r}")
    return problems
