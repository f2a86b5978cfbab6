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

import itertools
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
        if not np.isin(a, (-1, 0, 1)).all():
            raise CombiningContractError("alpha entries must be in {-1, 0, +1}")
        a = a.copy()
        a.setflags(write=False)
        object.__setattr__(self, "alpha", a)
        prod = a @ self.P.entries
        diag = np.diag(prod).copy()
        if np.any(prod - np.diag(diag)):
            raise CombiningContractError("alpha @ P must be diagonal")
        if np.any(diag == 0):
            raise CombiningContractError("alpha @ P must have a nonzero diagonal")
        if tuple(int(v) for v in diag) != tuple(self.weights):
            raise ValueError("weights do not match diag(alpha @ P)")
        norms = (a * a).sum(axis=1)
        expect = tuple(Fraction(int(w) ** 2, int(n)) for w, n in zip(diag, norms))
        if tuple(self.gains) != expect:
            raise ValueError("gains do not match w^2 / ||alpha||^2")
        object.__setattr__(self, "gains", expect)
        object.__setattr__(self, "weights", tuple(int(v) for v in diag))

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
    total = np.abs(resp).sum(axis=1)
    rows, weights, gains = [], [], []
    infeasible = []
    for j in range(m):
        w = resp[:, j]
        # others cancel exactly <=> total response mass sits on column j
        ok = (w > 0) & (total == w)
        idx = np.flatnonzero(ok)
        if idx.size == 0:
            infeasible.append(j)
            continue
        # rationals w^2/n with w<=m, n<=m are exactly representable in floats
        best = idx[int(np.argmax(w[idx].astype(float) ** 2 / norms[idx]))]
        rows.append(vecs[best])
        weights.append(int(w[best]))
        gains.append(Fraction(int(w[best]) ** 2, int(norms[best])))
    if infeasible:
        raise CombinerInfeasible(P, infeasible)
    return CombinerDesign(P, np.array(rows), tuple(weights), tuple(gains))


def enumerate_square_candidates(
    m_p: int, *, max_mp: int = DEFAULT_ENUMERATION_CAP
) -> Iterator[PatternMatrix]:
    """All m_p x m_p binary matrices with distinct nonzero columns, in
    canonical order (ascending column binary values, row 0 = LSB)."""
    _check_cap(m_p, max_mp)
    for cols in itertools.combinations(range(1, 2**m_p), m_p):
        yield _matrix_from_column_values(m_p, cols)


def _check_cap(m_p: int, max_mp: int) -> None:
    if m_p < 1:
        raise ValueError("m_p must be positive")
    cap = min(max_mp, HARD_ENUMERATION_CAP)
    if m_p > cap:
        raise EnumerationCapExceeded(m_p, cap)


def _matrix_from_column_values(m_p: int, values: Sequence[int]) -> PatternMatrix:
    ent = np.zeros((m_p, len(values)), dtype=np.int64)
    for j, v in enumerate(values):
        for i in range(m_p):
            ent[i, j] = (v >> i) & 1
    return PatternMatrix(ent)


def _default_scorer(snr: float) -> Callable[[CombinerDesign], float]:
    """Closed-form sum rate of a design under a [1 1] seed with one recursion."""
    F = PatternMatrix(np.ones((1, 2), dtype=np.int64))

    def score(design: CombinerDesign) -> float:
        chain = FactorChain(F, design.P, 1)
        # sorted gains: the rate is permutation-symmetric, and sorting
        # makes equal gain multisets produce bit-identical floats
        return sum_rate_recursive(chain, sorted(design.gains, reverse=True), snr)

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

    The default scorer is the closed-form sum rate for a [1 1] seed with one
    recursion at reference SNR `ref_snr` (linear).
    """
    score_fn = scorer if scorer is not None else _default_scorer(float(ref_snr))
    results = []
    for P in enumerate_square_candidates(m_p, max_mp=max_mp):
        try:
            design = find_combiners(P)
        except CombinerInfeasible:
            continue
        results.append(ScoredDesign(design, float(score_fn(design))))
    results.sort(key=_rank_key)
    return results[:top] if top is not None else results
