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

Solutions to C2 ^ C3 come in +/- pairs with identical gain, so weights are
canonicalized to w > 0; remaining ties pick the lexicographically smallest
vector under -1 < 0 < +1, fixing one unique representative per feasible
column (the suite pins the resulting 3x3 and 4x4 reference designs).
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterator, Sequence

import numpy as np

from .pattern import FactorChain, PatternMatrix, json_int, json_ints
from .rate import sum_rate_recursive

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
        super().__init__(
            f"square-factor enumeration for m_p={m_p} exceeds the cap ({cap}); "
            f"raise max_mp explicitly up to {HARD_ENUMERATION_CAP} if intended"
        )
        self.m_p = m_p
        self.cap = cap


class CombinerInfeasible(ValueError):
    """No {-1,0,+1} vector satisfies C2 ^ C3 for at least one column."""

    def __init__(self, P: PatternMatrix, columns: Sequence[int]):
        super().__init__(f"no feasible combining vector for columns {tuple(columns)}")
        self.P = P
        self.columns = tuple(columns)


class CombiningContractError(ValueError):
    """A supplied coefficient vector violates C1, C2 or C3."""


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
        if not ((a >= -1) & (a <= 1)).all():
            raise CombiningContractError("alpha entries must be in {-1, 0, +1}")
        a = a.copy()
        a.setflags(write=False)
        object.__setattr__(self, "alpha", a)
        prod = a @ self.P.entries
        diag = tuple(prod.diagonal().tolist())
        if np.count_nonzero(prod) != np.count_nonzero(diag):
            raise CombiningContractError("alpha @ P must be diagonal")
        if 0 in diag:
            raise CombiningContractError("alpha @ P must have a nonzero diagonal")
        if diag != tuple(self.weights):
            raise ValueError("weights do not match diag(alpha @ P)")
        norms = (a * a).sum(axis=1).tolist()
        expect = tuple(_gain(w, n) for w, n in zip(diag, norms))
        if tuple(self.gains) != expect:
            raise ValueError("gains do not match w^2 / ||alpha||^2")
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
                "data": [int(v) for v in self.alpha.reshape(-1)],
            },
            "weights": list(self.weights),
            "gains": [str(g) for g in self.gains],
        }

    @classmethod
    def from_json_dict(cls, obj: dict) -> "CombinerDesign":
        P = PatternMatrix.from_json_dict(obj["P"])
        a = obj["alpha"]
        rows, cols = json_int(a["rows"], "alpha rows"), json_int(a["cols"], "alpha cols")
        data = json_ints(a["data"], "alpha data")
        if len(data) != rows * cols:
            raise ValueError("alpha data length does not match rows*cols")
        return cls(
            P=P,
            alpha=np.asarray(data, dtype=np.int64).reshape(rows, cols),
            weights=tuple(json_ints(obj["weights"], "weights")),
            gains=tuple(Fraction(g) for g in obj["gains"]),
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


_COEFF_CACHE: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def coefficient_vectors(m_p: int) -> tuple[np.ndarray, np.ndarray]:
    """All 3^m_p coefficient vectors in lexicographic order under -1 < 0 < +1,
    plus their squared norms.  Cached per size."""
    if m_p not in _COEFF_CACHE:
        vecs = np.array(list(itertools.product((-1, 0, 1), repeat=m_p)), dtype=np.int64)
        _COEFF_CACHE[m_p] = (vecs, (vecs * vecs).sum(axis=1))
    return _COEFF_CACHE[m_p]


def _isolating_vectors(resp: np.ndarray, norms: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The C2/C3 solver, on a block of candidates.

    resp[v, b, j] is the response of coefficient vector v to column j of
    candidate b.  Vector v isolates column j when its response there is
    positive (C2, weight canonicalized > 0) and carries the whole response
    mass (C3: every other column cancels).  Returns, per (b, j), whether some
    vector isolates the column, and the index of the one of largest gain
    w^2 / ||v||^2; argmax keeps the first, lexicographically smallest, on ties.
    """
    ok = (resp > 0) & (np.abs(resp).sum(axis=-1, keepdims=True, dtype=resp.dtype) == resp)
    # every nonzero norm divides lcm(1..m), so w^2 * lcm / ||v||^2 is an exact
    # integer ordered like the gain; the zero vector isolates nothing and is
    # masked out of the division
    lcm = math.lcm(*range(1, resp.shape[-1] + 1))
    scale = (lcm // np.where(norms > 0, norms, lcm)).astype(resp.dtype)
    gain = ok * resp * resp * scale[:, None, None]
    return ok.any(axis=0), gain.argmax(axis=0)


def _design(P: PatternMatrix, resp: np.ndarray, best: np.ndarray) -> CombinerDesign:
    """The design of a feasible candidate from its (3^m, m) responses and the
    index of each column's best vector."""
    vecs, norms = coefficient_vectors(P.rows)
    weights = resp[best, np.arange(P.cols)].tolist()
    gains = tuple(map(_gain, weights, norms[best].tolist()))
    return CombinerDesign(P, vecs[best], tuple(weights), gains)


def find_combiners(P: PatternMatrix) -> CombinerDesign:
    """Exhaustive per-column search over all 3^m_p coefficient vectors.

    Per column: keep vectors satisfying C2 ^ C3 (weight canonicalized > 0),
    maximize gamma, break ties by lexicographic order.  Raises
    CombinerInfeasible listing every column with no feasible vector."""
    if P.rows != P.cols:
        raise ValueError("square factor required")
    m = P.rows
    if m > HARD_ENUMERATION_CAP:
        raise EnumerationCapExceeded(m, HARD_ENUMERATION_CAP)
    vecs, norms = coefficient_vectors(m)
    resp = vecs @ P.entries  # (3^m, m) per-column responses
    feasible, best = _isolating_vectors(resp[:, None, :], norms)
    if not feasible.all():
        raise CombinerInfeasible(P, np.flatnonzero(~feasible[0]).tolist())
    return _design(P, resp, best[0])


def enumerate_square_candidates(
    m_p: int, *, max_mp: int = DEFAULT_ENUMERATION_CAP
) -> Iterator[PatternMatrix]:
    """All m_p x m_p binary matrices with distinct nonzero columns, in
    canonical order (ascending column binary values, row 0 = LSB)."""
    _check_cap(m_p, max_mp)
    for cols in _candidate_column_values(m_p):
        yield _matrix_from_column_values(m_p, cols)


def _check_cap(m_p: int, max_mp: int) -> None:
    if m_p < 1:
        raise ValueError("m_p must be positive")
    cap = min(max_mp, HARD_ENUMERATION_CAP)
    if m_p > cap:
        raise EnumerationCapExceeded(m_p, cap)


def _candidate_column_values(m_p: int) -> Iterator[tuple[int, ...]]:
    """Column values of every candidate, each ascending, in canonical order."""
    return itertools.combinations(range(1, 2**m_p), m_p)


def _matrix_from_column_values(m_p: int, values: Sequence[int]) -> PatternMatrix:
    bits = np.arange(m_p, dtype=np.int64)[:, None]
    return PatternMatrix((np.asarray(values, dtype=np.int64) >> bits) & 1)


def _default_scorer(snr: float) -> Callable[[CombinerDesign], float]:
    """Closed-form sum rate of a design under a [1 1] seed with one recursion.

    The rate depends on a design only through its gain multiset, so each
    scorer computes it once per sorted gain tuple (20 of them for the 759
    feasible 4x4 designs)."""
    F = PatternMatrix(np.ones((1, 2), dtype=np.int64))
    rates: dict[tuple[Fraction, ...], float] = {}

    def score(design: CombinerDesign) -> float:
        # sorted gains: the rate is permutation-symmetric, and sorting
        # makes equal gain multisets produce bit-identical floats
        key = tuple(sorted(design.gains, reverse=True))
        if key not in rates:
            rates[key] = sum_rate_recursive(FactorChain(F, design.P, 1), key, snr)
        return rates[key]

    return score


@dataclass(frozen=True)
class ScoredDesign:
    design: CombinerDesign
    score: float


def _rank_key(item: ScoredDesign) -> tuple:
    return (-item.score, item.design.P.column_values())


def run_algorithm1(
    m_p: int,
    scorer: Callable[[CombinerDesign], float] | None = None,
    *,
    ref_snr: float = DEFAULT_REFERENCE_SNR,
    max_mp: int = DEFAULT_ENUMERATION_CAP,
    top: int | None = None,
) -> list[ScoredDesign]:
    """Enumerate every candidate square factor, solve its combiners, and rank
    feasible designs by score (descending), ties broken by canonical column
    encoding ascending.

    Candidates are solved a block at a time from one response table, and
    only the feasible ones become PatternMatrix / CombinerDesign objects.

    The default scorer is the closed-form sum rate for a [1 1] seed with one
    recursion at reference SNR `ref_snr` (linear).
    """
    score_fn = scorer if scorer is not None else _default_scorer(float(ref_snr))
    _check_cap(m_p, max_mp)
    vecs, norms = coefficient_vectors(m_p)
    # the response of every vector to every nonzero column value, shared by
    # all candidates: (3^m, 2^m - 1), value c at index c - 1.  int32 halves
    # the memory traffic; the solver's largest product, w^2 * lcm(1..8) with
    # w <= 8, is 53,760
    bits = _matrix_from_column_values(m_p, range(1, 2**m_p)).entries
    table = (vecs @ bits).astype(np.int32)
    per_block = max(1, _BLOCK_VALUES // (len(vecs) * m_p))
    candidates = _candidate_column_values(m_p)
    results = []
    while block := list(itertools.islice(candidates, per_block)):
        resp = table[:, np.array(block) - 1]  # (3^m, block, m)
        feasible, best = _isolating_vectors(resp, norms)
        for b in np.flatnonzero(feasible.all(axis=1)):
            P = _matrix_from_column_values(m_p, block[b])
            design = _design(P, resp[:, b], best[b])
            results.append(ScoredDesign(design, float(score_fn(design))))
    results.sort(key=_rank_key)
    return results[:top] if top is not None else results
