"""Combining-coefficient design for square pattern factors.

For a square factor P (m_p x m_p, binary, distinct nonzero columns) the
recursive detector needs, per symbol j, a coefficient vector alpha with
entries restricted to {-1, 0, +1} such that

    C1: alpha_i in {-1, 0, +1}
    C2: w = sum_i alpha_i P[i, j] != 0          (symbol j survives)
    C3: sum_i alpha_i P[i, j'] = 0, j' != j     (all other symbols cancel)

The post-combining SNR gain of symbol j is gamma_j = w^2 / ||alpha||^2, kept
as an exact rational.  The search ranks every candidate P (all unordered
choices of m_p distinct nonzero columns, canonical ascending column order) by
the achievable closed-form sum rate of its gain profile.

Solutions to C2 ^ C3 come in +/- pairs, so weights are canonicalized to
w > 0.  That leaves one vector per column: a P whose every column has a
solution satisfies alpha P = diag(w) with w != 0, so P is invertible and
alpha_j = w_j e_j^T P^-1, whose scale the {-1, 0, +1} alphabet and w_j > 0
fix (the suite checks this over every feasible candidate up to 4x4).
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import re
from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .pattern import PatternMatrix, json_fields, json_int, json_ints
# the search scores through the stacked kernel; `sum_rate_recursive`, which
# gives the same score for one multiset, stays importable from this module
# (bench/selftest.py checks that tracing wraps it here too)
from .rate import _single_recursion_rates, sum_rate_recursive  # noqa: F401

# full enumeration is practical up to here; the hard cap bounds what the
# exhaustive per-column solver (3^m_p vectors) will ever be asked to do
DEFAULT_ENUMERATION_CAP = 5
HARD_ENUMERATION_CAP = 8

DEFAULT_REFERENCE_SNR = 10.0  # linear; equals 10 dB

# (vector, column) responses per block of the search: 3^m_p * m_p per
# candidate, so about 100 candidates at m_p = 4; larger searches are solved
# a block at a time, so memory stays bounded
_BLOCK_VALUES = 1 << 15


class CapExceeded(RuntimeError):
    """A computation was refused because it exceeds a declared cap."""


class EnumerationCapExceeded(CapExceeded):
    def __init__(self, m_p: int, cap: int):
        super().__init__(f"enumeration for m_p={m_p} exceeds the cap ({cap})")
        self.m_p = m_p
        self.cap = cap


class CombinerInfeasible(ValueError):
    """No {-1,0,+1} vector satisfies C2 ^ C3 for at least one column."""

    def __init__(self, P: PatternMatrix, columns: Sequence[int]):
        super().__init__(f"no feasible combining vector for columns {tuple(columns)}")
        self.P = P
        self.columns = tuple(columns)


class CombiningContractError(ValueError):
    """A design's coefficient vectors violate C1, C2 or C3, or disagree with
    its weights or gains."""


# "p" or "p/q" with q > 0: no exponent to expand or zero to divide by
_JSON_GAIN = re.compile(r"[0-9]+(/0*[1-9][0-9]*)?")


def _json_gains(values) -> tuple[Fraction, ...]:
    """Gains read from JSON: integers or "p/q" strings; floats and booleans
    are refused."""
    if not isinstance(values, list) or not all(
        type(g) is int or (isinstance(g, str) and _JSON_GAIN.fullmatch(g)) for g in values
    ):
        raise ValueError("gains must be a list of integers or 'p/q' strings")
    return tuple(map(Fraction, values))


@functools.lru_cache(maxsize=1024)
def _gain(w: int, n: int) -> Fraction:
    """The gain w^2 / n, exact.  Designs share its instances, so equal gains
    compare by identity."""
    return Fraction(w * w, n)


@dataclass(frozen=True, eq=False)
class CombinerDesign:
    """A square factor with its combining coefficients.

    alpha row j isolates symbol j: alpha @ P is diagonal with diagonal
    entry w_j != 0 and gain gamma_j = w_j^2 / ||alpha_j||^2 > 0.
    """

    P: PatternMatrix
    alpha: np.ndarray  # (m_p, m_p) int, entries in {-1,0,+1}
    weights: tuple[int, ...]
    gains: tuple[Fraction, ...]

    def __post_init__(self):
        a = np.asarray(self.alpha, dtype=np.int64)
        if a.shape != (self.P.rows, self.P.cols):
            raise ValueError("alpha must be m_p x m_p")
        diag = tuple(_isolation_diagonals(self.P.entries[None], a[None])[0].tolist())
        a = a.copy()
        a.setflags(write=False)
        object.__setattr__(self, "alpha", a)
        if diag != tuple(self.weights):
            raise CombiningContractError("weights do not match diag(alpha @ P)")
        norms = (a * a).sum(axis=1).tolist()
        expect = tuple(_gain(w, n) for w, n in zip(diag, norms))
        if tuple(self.gains) != expect:
            raise CombiningContractError("gains do not match w^2 / ||alpha||^2")
        object.__setattr__(self, "gains", expect)
        object.__setattr__(self, "weights", diag)

    @property
    def m_p(self) -> int:
        return self.P.rows

    def to_json_dict(self) -> dict:
        return {
            "P": self.P.to_json_dict(),
            "alpha": {
                "rows": self.m_p,
                "cols": self.m_p,
                "data": self.alpha.reshape(-1).tolist(),
            },
            "weights": list(self.weights),
            "gains": [str(g) for g in self.gains],
        }

    def json_text(self) -> str:
        """The record as `json.dumps(self.to_json_dict(), indent=2) + "\n"`
        writes it."""
        lcm = math.lcm(*range(1, self.m_p + 1))
        gains = [[g.numerator * (lcm // g.denominator) for g in self.gains]]
        return _records_json(self.P.entries[None], self.alpha[None], np.array([self.weights]),
                             np.array(gains), listed=False)

    @classmethod
    def from_json_dict(cls, obj: dict) -> "CombinerDesign":
        P, alpha, weights, gains = json_fields(obj, "design record", "P", "alpha", "weights", "gains")
        P = PatternMatrix.from_json_dict(P)
        rows, cols, data = json_fields(alpha, "alpha", "rows", "cols", "data")
        rows, cols = json_int(rows, "alpha rows"), json_int(cols, "alpha cols")
        data = json_ints(data, "alpha data")
        if len(data) != rows * cols:
            raise ValueError("alpha data length does not match rows*cols")
        return cls(
            P=P,
            alpha=np.asarray(data, dtype=np.int64).reshape(rows, cols),
            weights=tuple(json_ints(weights, "weights")),
            gains=_json_gains(gains),
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, CombinerDesign):
            return NotImplemented
        return (
            self.P == other.P
            and bool((self.alpha == other.alpha).all())
            and self.weights == other.weights
            and self.gains == other.gains
        )

    def __repr__(self) -> str:
        return f"CombinerDesign(P={self.P.entries.tolist()}, gains={[str(g) for g in self.gains]})"


def _isolation_diagonals(P: np.ndarray, alpha: np.ndarray) -> np.ndarray:
    """C1-C3 over a block of designs: the entries of each alpha[n] lie in
    {-1, 0, +1} and alpha[n] @ P[n] is diagonal with a nonzero diagonal.
    Returns the diagonals, (N, m_p)."""
    if not ((alpha >= -1) & (alpha <= 1)).all():
        raise CombiningContractError("alpha entries must be in {-1, 0, +1}")
    prod = alpha @ P
    diag = np.diagonal(prod, axis1=1, axis2=2)
    if np.count_nonzero(prod) != np.count_nonzero(diag):
        raise CombiningContractError("alpha @ P must be diagonal")
    if not diag.all():
        raise CombiningContractError("alpha @ P must have a nonzero diagonal")
    return diag


_SLOT = "\0"


def _slots(obj):
    """A JSON value with every list entry replaced by a slot marker."""
    if isinstance(obj, dict):
        return {key: _slots(value) for key, value in obj.items()}
    return [_SLOT] * len(obj) if isinstance(obj, list) else obj


@functools.lru_cache(maxsize=None)
def _record_template(m_p: int, listed: bool) -> tuple[str, ...]:
    """One m_p x m_p design record as `json.dumps(indent=2)` lays it out, at
    the top level or as an item of a list, split at its value slots: the
    entries of P, of alpha, the weights and the gains, in `to_json_dict`
    order."""
    eye = np.eye(m_p, dtype=np.int64)
    record = CombinerDesign(PatternMatrix(eye), eye, (1,) * m_p, (Fraction(1),) * m_p)
    skeleton = _slots(record.to_json_dict())
    text = json.dumps([skeleton] if listed else skeleton, indent=2)
    return tuple((text[2:-2] if listed else text).split(json.dumps(_SLOT)))


def _records_json(P, alpha, weights, gains, *, listed: bool) -> str:
    """The JSON text of a block of designs, byte for byte what
    `json.dumps(indent=2) + "\n"` writes for their `to_json_dict()`s: a list
    of them when `listed`, else the block's one record.

    P and alpha are (N, m_p, m_p), weights (N, m_p), and gains (N, m_p) the
    gains as integers over lcm(1..m_p).  The block is checked first (C1-C3,
    weights, gains), so every value written is an integer in [-m_p, m_p] or
    one of a few distinct gains; each is looked up in a table of their texts.
    """
    n, m = weights.shape
    lcm = math.lcm(*range(1, m + 1))
    if not np.array_equal(_isolation_diagonals(P, alpha), weights):
        raise CombiningContractError("weights do not match diag(alpha @ P)")
    if not np.array_equal(gains * (alpha * alpha).sum(axis=2), weights * weights * lcm):
        raise CombiningContractError("gains do not match w^2 / ||alpha||^2")
    if n == 0:
        return "[]\n"
    distinct, gain_codes = np.unique(gains, return_inverse=True)
    texts = [str(v) for v in range(-m, m + 1)]
    texts += [json.dumps(str(Fraction(int(g), lcm))) for g in distinct]
    codes = np.concatenate(
        [P.reshape(n, -1) + m, alpha.reshape(n, -1) + m, weights + m,
         gain_codes.reshape(n, m) + len(texts) - len(distinct)], axis=1)
    # pieces[k, c]: the template text before slot k, then the text of code c
    template = _record_template(m, listed)
    pieces = np.array([[head + t for t in texts] for head in template[:-1]], dtype=object)
    body = np.empty((n, codes.shape[1] + 1), dtype=object)
    body[:, :-1] = pieces[np.arange(codes.shape[1]), codes]
    body[:, -1] = template[-1] + ",\n"
    body[-1, -1] = template[-1] + ("\n]\n" if listed else "\n")
    return ("[\n" if listed else "") + "".join(body.ravel().tolist())


_COEFF_CACHE: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def coefficient_vectors(m_p: int) -> tuple[np.ndarray, np.ndarray]:
    """All 3^m_p coefficient vectors in lexicographic order under -1 < 0 < +1,
    plus their squared norms.  Cached per size."""
    if m_p not in _COEFF_CACHE:
        vecs = np.array(list(itertools.product((-1, 0, 1), repeat=m_p)), dtype=np.int64)
        _COEFF_CACHE[m_p] = (vecs, (vecs * vecs).sum(axis=1))
    return _COEFF_CACHE[m_p]


def _isolating_vectors(resp: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The C2/C3 solver, on a block of candidates.

    resp[v, b, j] is the response of coefficient vector v to column j of
    candidate b.  Vector v isolates column j when its response there is
    positive (C2, weight canonicalized > 0) and carries the whole response
    mass (C3: every other column cancels).  Returns, per (b, j), whether some
    vector isolates the column, and the index of the first that does; in a
    candidate whose every column is isolated it is the only one.
    """
    ok = (resp > 0) & (np.abs(resp).sum(axis=-1, keepdims=True, dtype=resp.dtype) == resp)
    return ok.any(axis=0), ok.argmax(axis=0)


def _design(P: PatternMatrix, best: np.ndarray, weights: list[int]) -> CombinerDesign:
    """The design of a feasible candidate from the index of each column's
    isolating vector and its weight."""
    vecs, norms = coefficient_vectors(P.rows)
    gains = tuple(map(_gain, weights, norms[best].tolist()))
    return CombinerDesign(P, vecs[best], tuple(weights), gains)


def find_combiners(P: PatternMatrix) -> CombinerDesign:
    """Exhaustive per-column search over all 3^m_p coefficient vectors.

    Per column: the vector satisfying C2 ^ C3 with weight canonicalized
    > 0.  Raises CombinerInfeasible listing every column with no feasible
    vector."""
    if P.rows != P.cols:
        raise ValueError("square factor required")
    m = P.rows
    if m > HARD_ENUMERATION_CAP:
        raise EnumerationCapExceeded(m, HARD_ENUMERATION_CAP)
    vecs, _ = coefficient_vectors(m)
    resp = vecs @ P.entries  # (3^m, m) per-column responses
    feasible, best = _isolating_vectors(resp[:, None, :])
    if not feasible.all():
        raise CombinerInfeasible(P, np.flatnonzero(~feasible[0]).tolist())
    return _design(P, best[0], resp[best[0], np.arange(m)].tolist())


def enumerate_square_candidates(m_p: int) -> Iterator[PatternMatrix]:
    """All m_p x m_p binary matrices with distinct nonzero columns, in
    canonical order (ascending column binary values, row 0 = LSB)."""
    _check_cap(m_p)
    for cols in _candidate_column_values(m_p):
        yield _matrix_from_column_values(m_p, cols)


def _check_cap(m_p: int) -> None:
    if m_p < 1:
        raise ValueError("m_p must be positive")
    if m_p > DEFAULT_ENUMERATION_CAP:
        raise EnumerationCapExceeded(m_p, DEFAULT_ENUMERATION_CAP)


def _candidate_column_values(m_p: int) -> Iterator[tuple[int, ...]]:
    """Column values of every candidate, each ascending, in canonical order."""
    return itertools.combinations(range(1, 2**m_p), m_p)


def _matrix_from_column_values(m_p: int, values: Sequence[int]) -> PatternMatrix:
    bits = np.arange(m_p, dtype=np.int64)[:, None]
    return PatternMatrix((np.asarray(values, dtype=np.int64) >> bits) & 1)


@dataclass(frozen=True)
class ScoredDesign:
    design: CombinerDesign
    score: float


class Ranking(Sequence[ScoredDesign]):
    """Algorithm 1's ranked feasible designs, held as arrays.

    Row i holds the column values of the design's P (ascending), the index
    into `coefficient_vectors(m_p)` of each column's isolating vector, the
    weights, the gains as integers over lcm(1..m_p), and the score.  As a
    sequence of ScoredDesign it builds and validates a CombinerDesign only
    for the items read; `json_text` writes every record from the arrays.
    (A plain class: a dataclass would add about a millisecond to every
    `import kronnoma`.)
    """

    def __init__(self, m_p: int, cols: np.ndarray, best: np.ndarray, weights: np.ndarray,
                 gains: np.ndarray, scores: np.ndarray):
        self.m_p = m_p
        self.cols = cols  # (N, m_p)
        self.best = best  # (N, m_p)
        self.weights = weights  # (N, m_p)
        self.gains = gains  # (N, m_p)
        self.scores = scores  # (N,)

    def __len__(self) -> int:
        return len(self.scores)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return Ranking(self.m_p, self.cols[i], self.best[i], self.weights[i],
                           self.gains[i], self.scores[i])
        i = range(len(self))[i]
        P = _matrix_from_column_values(self.m_p, self.cols[i])
        return ScoredDesign(_design(P, self.best[i], self.weights[i].tolist()), float(self.scores[i]))

    def json_text(self) -> str:
        """The records' JSON, as `json.dumps([sd.design.to_json_dict() for sd
        in self], indent=2) + "\n"` writes it, with no design built."""
        P = (self.cols[:, None, :] >> np.arange(self.m_p)[:, None]) & 1
        alpha = coefficient_vectors(self.m_p)[0][self.best]
        return _records_json(P, alpha, self.weights, self.gains, listed=True)


def run_algorithm1(
    m_p: int,
    *,
    ref_snr: float = DEFAULT_REFERENCE_SNR,
    top: int | None = None,
) -> Ranking:
    """Enumerate every candidate square factor, solve its combiners, and rank
    feasible designs by score (descending), ties broken by canonical column
    encoding ascending.

    The score is the closed-form sum rate for a [1 1] seed with one
    recursion at reference SNR `ref_snr` (linear).  Candidates are solved a
    block at a time from one response table and ranked as arrays; the
    ranking keeps the `top` best (all by default) and builds no design
    until one is read.
    """
    _check_cap(m_p)
    vecs, norms = coefficient_vectors(m_p)
    # the response of every vector to every nonzero column value, shared by
    # all candidates: (3^m, 2^m - 1), value c at index c - 1.  int32 halves
    # the memory traffic; no response exceeds m in magnitude
    bits = _matrix_from_column_values(m_p, range(1, 2**m_p)).entries
    table = (vecs @ bits).astype(np.int32)
    per_block = max(1, _BLOCK_VALUES // (len(vecs) * m_p))
    candidates = _candidate_column_values(m_p)
    cols, best = [], []  # of the feasible candidates
    while block := list(itertools.islice(candidates, per_block)):
        block = np.array(block)
        feasible, b = _isolating_vectors(table[:, block - 1])
        keep = feasible.all(axis=1)
        cols.append(block[keep])
        best.append(b[keep])
    cols, best = np.concatenate(cols), np.concatenate(best)
    weights = table[best, cols - 1].astype(np.int64)
    # every nonzero norm divides lcm(1..m), so w^2 * lcm / ||alpha||^2 is the
    # gain as an exact integer over lcm; sorted descending, a row keys the
    # gain multiset, on which alone the rate depends
    lcm = math.lcm(*range(1, m_p + 1))
    keys = -np.sort(-(weights * weights * (lcm // norms[best])), axis=1)
    multisets, which = np.unique(keys, axis=0, return_inverse=True)
    F = PatternMatrix(np.ones((1, 2), dtype=np.int64))
    rates = _single_recursion_rates(F, multisets, lcm, float(ref_snr))
    scores = rates[which.reshape(-1)]
    order = np.lexsort((*cols.T[::-1], -scores))[:top]
    best, weights = best[order], weights[order]
    gains = weights * weights * (lcm // norms[best])
    return Ranking(m_p, cols[order], best, weights, gains, scores[order])
