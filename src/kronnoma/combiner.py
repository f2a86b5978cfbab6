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
import numbers
import re
from collections.abc import Sequence
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
# a block at a time, so memory stays bounded.  It bounds the blocks of the
# canonical test the same way (m_p! * k image values per k-set), and those of
# the record encoder (2 m_p (m_p + 1) value slots per record)
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
        """The record as the `design` command writes it."""
        return json.dumps(self.to_json_dict(), indent=2) + "\n"

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
def _record_template(m_p: int) -> tuple[str, ...]:
    """One m_p x m_p design record as `json.dumps(indent=2)` lays it out as
    an item of a list, split at its value slots: the entries of P, of alpha,
    the weights and the gains, in `to_json_dict` order."""
    eye = np.eye(m_p, dtype=np.int64)
    record = CombinerDesign(PatternMatrix(eye), eye, (1,) * m_p, (Fraction(1),) * m_p)
    text = json.dumps([_slots(record.to_json_dict())], indent=2)
    return tuple(text[2:-2].split(json.dumps(_SLOT)))


def _records_json(P, alpha, weights, gains) -> list[str]:
    """The JSON text of each of a block of designs as an item of a list,
    byte for byte what `json.dumps(indent=2)` writes for their
    `to_json_dict()`s between the list's brackets and commas.

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
        return []
    distinct, gain_codes = np.unique(gains, return_inverse=True)
    texts = [str(v) for v in range(-m, m + 1)]
    texts += [json.dumps(str(Fraction(int(g), lcm))) for g in distinct]
    codes = np.concatenate(
        [P.reshape(n, -1) + m, alpha.reshape(n, -1) + m, weights + m,
         gain_codes.reshape(n, m) + len(texts) - len(distinct)], axis=1)
    # pieces[k, c]: the template text before slot k, then the text of code c
    # (and after the last slot, the rest of the record)
    template = _record_template(m)
    pieces = np.array([[head + t for t in texts] for head in template[:-1]], dtype=object)
    pieces[-1] += template[-1]
    k = codes.shape[1]
    flat = pieces[np.arange(k), codes].ravel().tolist()
    return ["".join(flat[i:i + k]) for i in range(0, len(flat), k)]


def _record_texts(m_p: int, cols, best, weights, gains) -> list[str]:
    """The record text of each design given as rows of column values,
    isolating-vector indices, weights and gains over lcm(1..m_p), encoded
    and checked by `_records_json` a block of at most `_BLOCK_VALUES` slots
    at a time."""
    vecs, _ = coefficient_vectors(m_p)
    per_block = max(1, _BLOCK_VALUES // (2 * m_p * (m_p + 1)))
    texts = []
    for i in range(0, len(cols), per_block):
        block = slice(i, i + per_block)
        P = (cols[block, None, :] >> np.arange(m_p)[:, None]) & 1
        texts += _records_json(P, vecs[best[block]], weights[block], gains[block])
    return texts


def _json_list(texts: list[str]) -> str:
    """The list of the records with these texts, as `json.dumps(indent=2) +
    "\n"` writes it.  Takes over `texts`."""
    if not texts:
        return "[]\n"
    texts[0] = "[\n" + texts[0]
    texts[-1] += "\n]\n"
    return ",\n".join(texts)


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


def _check_cap(m_p: int) -> None:
    if m_p < 1:
        raise ValueError("m_p must be positive")
    if m_p > DEFAULT_ENUMERATION_CAP:
        raise EnumerationCapExceeded(m_p, DEFAULT_ENUMERATION_CAP)


def _matrix_from_column_values(m_p: int, values: Sequence[int]) -> PatternMatrix:
    bits = np.arange(m_p, dtype=np.int64)[:, None]
    return PatternMatrix((np.asarray(values, dtype=np.int64) >> bits) & 1)


def _row_keys(rows: np.ndarray, base: int) -> np.ndarray:
    """Rows of integers in [0, base) packed into one int64 each, the first
    entry most significant, so keys order as their rows do
    lexicographically."""
    return rows @ base ** np.arange(rows.shape[-1] - 1, -1, -1, dtype=np.int64)


_PERM_CACHE: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def _row_permutation_tables(m_p: int) -> tuple[np.ndarray, np.ndarray]:
    """How each of the m_p! row permutations acts: pv[k, c] is column value
    c with its bits moved as permutation k moves rows, and vv[k, v] the
    index into `coefficient_vectors(m_p)` of vector v with its entries moved
    alike, so vv[k, v] responds to pv[k, c] as v does to c.  Cached per
    size."""
    if m_p not in _PERM_CACHE:
        perms = np.array(list(itertools.permutations(range(m_p))), dtype=np.int64)
        bits = (np.arange(2**m_p)[:, None] >> np.arange(m_p)) & 1
        pv = (bits[None] << perms[:, None]).sum(axis=2)
        # entry i of v moves to entry perms[k, i]
        moved = coefficient_vectors(m_p)[0][:, np.argsort(perms, axis=1)]
        vv = _row_keys(moved + 1, 3).T
        _PERM_CACHE[m_p] = (pv, vv)
    return _PERM_CACHE[m_p]


def _orbit_representatives(m_p: int) -> np.ndarray:
    """One candidate per orbit of the row permutations, in canonical order:
    the column values (ascending) that no permutation maps to a
    lexicographically smaller sorted tuple.

    Orderly generation (Read, 1978): a canonical set without its largest
    value is canonical, so the canonical k-sets are among the canonical
    (k-1)-sets extended by one larger value, and only those are tested, a
    block at a time.  A set is keyed by the sum of 2^(2^m_p - 1 - c) over
    its values c: the first value in which two sets of one size differ sets
    the highest bit in which their keys differ, so the lexicographically
    smaller set has the larger key, and a set is canonical when none of its
    images' keys exceeds its own (the identity's, permutation 0).
    """
    pv, _ = _row_permutation_tables(m_p)
    weight = np.left_shift(1, 2**m_p - 1 - pv)
    reps = np.zeros((1, 0), dtype=np.int64)
    for k in range(1, m_p + 1):
        # extend by every larger value that leaves room for the rest
        last = reps[:, -1] if k > 1 else np.zeros(1, dtype=np.int64)
        room = np.maximum(2**m_p - (m_p - k) - 1 - last, 0)
        parent = np.repeat(np.arange(len(reps)), room)
        value = last[parent] + 1 + np.arange(len(parent)) - np.repeat(np.cumsum(room) - room, room)
        sets = np.column_stack([reps[parent], value])
        per_block = max(1, _BLOCK_VALUES // (len(pv) * k))
        canonical = []
        for i in range(0, len(sets), per_block):
            images = weight[:, sets[i:i + per_block]].sum(axis=2)
            canonical.append((images <= images[0]).all(axis=0))
        reps = sets[np.concatenate(canonical)]
    return reps


def _orbit_members(m_p: int, reps: np.ndarray, best: np.ndarray
                   ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The members of the orbits of feasible representatives: their column
    values (ascending) and isolating-vector indices, in canonical order, and
    the orbit of each, an index into `reps`.

    Row k * len(reps) + i of the images is permutation k's image of orbit i,
    its columns sorted by value, each carrying its moved vector: a feasible
    column has only one isolating vector, so this is it.  A member that
    several permutations reach is kept once.
    """
    pv, vv = _row_permutation_tables(m_p)
    cols = pv[:, reps].reshape(-1, m_p)
    by_value = np.argsort(cols, axis=1)
    cols = np.take_along_axis(cols, by_value, axis=1)
    best = np.take_along_axis(vv[:, best].reshape(-1, m_p), by_value, axis=1)
    _, members = np.unique(_row_keys(cols, 2**m_p), return_index=True)
    return cols[members], best[members], members % len(reps)


@dataclass(frozen=True)
class ScoredDesign:
    design: CombinerDesign
    score: float


class _Catalog:
    """What Algorithm 1 finds for one size that no scoring SNR changes.

    The orbit representatives are solved, and the feasible ones expanded
    into their members, once.  Member i (in canonical order: column values
    ascending) has column values `cols[i]` (ascending), the index into
    `coefficient_vectors(m_p)` of each column's isolating vector `best[i]`
    (both int16, which keeps the catalog small: up to the hard cap no value
    reaches 2^15), and its feasible orbit `orbit[i]`; its weights and gains
    are looked up in the response table as a ranking or the encoder reads
    them.  `multisets` holds the distinct gain multisets, each sorted
    descending, and `multiset[k]` is orbit k's index into them.  Each
    member's record text is encoded the first time a ranking writes it, and
    kept.
    """

    def __init__(self, m_p: int):
        vecs, self.norms = coefficient_vectors(m_p)
        # the response of every vector to every nonzero column value, shared
        # by all candidates: (3^m, 2^m - 1), value c at index c - 1.  int32
        # halves the memory traffic; no response exceeds m in magnitude
        bits = _matrix_from_column_values(m_p, range(1, 2**m_p)).entries
        self.table = (vecs @ bits).astype(np.int32)
        reps = _orbit_representatives(m_p)
        per_block = max(1, _BLOCK_VALUES // (len(vecs) * m_p))
        solved = [_isolating_vectors(self.table[:, reps[i:i + per_block] - 1])
                  for i in range(0, len(reps), per_block)]
        feasible = np.concatenate([f for f, _ in solved]).all(axis=1)
        reps, best = reps[feasible], np.concatenate([b for _, b in solved])[feasible]
        self.m_p, self.lcm = m_p, math.lcm(*range(1, m_p + 1))
        # sorted descending, a row of gains keys the gain multiset, on which
        # alone the rate depends
        keys = -np.sort(-self._weights_gains(reps, best)[1], axis=1)
        _, multisets, self.multiset = np.unique(_row_keys(keys, m_p * self.lcm + 1),
                                                return_index=True, return_inverse=True)
        self.multisets = keys[multisets]
        cols, best, self.orbit = _orbit_members(m_p, reps, best)
        self.cols, self.best = cols.astype(np.int16), best.astype(np.int16)
        for a in (self.table, self.multiset, self.multisets, self.orbit, self.cols, self.best):
            a.setflags(write=False)
        self._texts = np.empty(len(self.cols), dtype=object)

    def _weights_gains(self, cols: np.ndarray, best: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The weights of designs given by column values and isolating-vector
        indices, and their gains as integers over lcm: every nonzero norm
        divides lcm(1..m), so w^2 * lcm / ||alpha||^2 is exact (at most
        m * lcm)."""
        weights = self.table[best, cols - 1].astype(np.int64)
        gains = self.lcm // self.norms[best]
        gains *= weights
        gains *= weights
        return weights, gains

    def _members(self, rows: np.ndarray) -> list[np.ndarray]:
        """The column values, isolating-vector indices, weights and gains of
        members `rows`, int64."""
        cols, best = self.cols[rows].astype(np.int64), self.best[rows].astype(np.int64)
        return [cols, best, *self._weights_gains(cols, best)]

    def ranking(self, rows: np.ndarray, scores: np.ndarray) -> "Ranking":
        """Members `rows`, in that order, with their scores: read-only
        arrays, so that they stay the rows whose texts the catalog keeps."""
        arrays = self._members(rows)
        for a in (*arrays, rows, scores):
            a.setflags(write=False)
        ranking = Ranking(self.m_p, *arrays, scores)
        ranking._source = (self, rows)
        return ranking

    def texts(self, rows: np.ndarray) -> list[str]:
        """The record texts of members `rows` (distinct), in that order;
        those not yet encoded are encoded now."""
        missing = rows[np.equal(self._texts[rows], None)]
        if len(missing):
            self._texts[missing] = _record_texts(self.m_p, *self._members(missing))
        return self._texts[rows].tolist()


_CATALOG_CACHE: dict[int, _Catalog] = {}


def _catalog(m_p: int) -> _Catalog:
    """The catalog of m_p x m_p designs.  Cached per size."""
    if m_p not in _CATALOG_CACHE:
        _CATALOG_CACHE[m_p] = _Catalog(m_p)
    return _CATALOG_CACHE[m_p]


class Ranking(Sequence[ScoredDesign]):
    """Algorithm 1's ranked feasible designs, held as arrays.

    Row i holds the column values of the design's P (ascending), the index
    into `coefficient_vectors(m_p)` of each column's isolating vector, the
    weights, the gains as integers over lcm(1..m_p), and the score.  As a
    sequence of ScoredDesign it builds and validates a CombinerDesign only
    for the items read; `json_text` writes every record from the arrays.

    A ranking that `run_algorithm1` returns, and its slices, are rows of the
    size's catalog, and their arrays are read-only: each record's text is
    encoded and checked the first time any ranking of the process writes
    it, and kept in the catalog.  A ranking built by hand has no catalog,
    and every call of `json_text` encodes and checks all its records.  (A
    plain class: a dataclass would add about a millisecond to every `import
    kronnoma`.)
    """

    def __init__(self, m_p: int, cols: np.ndarray, best: np.ndarray, weights: np.ndarray,
                 gains: np.ndarray, scores: np.ndarray):
        self.m_p = m_p
        self.cols = cols  # (N, m_p)
        self.best = best  # (N, m_p)
        self.weights = weights  # (N, m_p)
        self.gains = gains  # (N, m_p)
        self.scores = scores  # (N,)
        self._source: tuple[_Catalog, np.ndarray] | None = None  # (catalog, member rows)

    def __len__(self) -> int:
        return len(self.scores)

    def __getitem__(self, i):
        if isinstance(i, slice):
            part = Ranking(self.m_p, self.cols[i], self.best[i], self.weights[i],
                           self.gains[i], self.scores[i])
            if self._source is not None:
                catalog, rows = self._source
                part._source = (catalog, rows[i])
            return part
        i = range(len(self))[i]
        P = _matrix_from_column_values(self.m_p, self.cols[i])
        return ScoredDesign(_design(P, self.best[i], self.weights[i].tolist()), float(self.scores[i]))

    def json_text(self) -> str:
        """The records' JSON, as `json.dumps([sd.design.to_json_dict() for sd
        in self], indent=2) + "\n"` writes it, with no design built."""
        if self._source is None:
            texts = _record_texts(self.m_p, self.cols, self.best, self.weights, self.gains)
        else:
            catalog, rows = self._source
            texts = catalog.texts(rows)
        return _json_list(texts)


def run_algorithm1(
    m_p: int,
    *,
    ref_snr: float = DEFAULT_REFERENCE_SNR,
    top: int | None = None,
) -> Ranking:
    """Rank every feasible candidate square factor by score (descending),
    ties broken by canonical column encoding ascending.

    The score is the closed-form sum rate for a [1 1] seed with one
    recursion at reference SNR `ref_snr` (linear, a real number).  Permuting
    the rows of a candidate keeps its feasibility and its gains (alpha Pi^T
    isolates the columns of Pi P), so only one representative per orbit is
    solved and rated; the feasible orbits are then expanded into their
    members.  None of that depends on `ref_snr`, so it is done once per size
    and process (`_Catalog`); a call rates the distinct gain multisets at
    `ref_snr`, orders the members by score and keeps the `top` best (all by
    default).  It builds no design until one is read.
    """
    _check_cap(m_p)
    if top is not None and (isinstance(top, bool) or not isinstance(top, numbers.Integral)
                            or top < 1):
        raise ValueError(f"top must be a positive integer, not {top!r}")
    if isinstance(ref_snr, bool) or not isinstance(ref_snr, numbers.Real):
        raise ValueError(f"ref_snr must be a real number, not {ref_snr!r}")
    catalog = _catalog(m_p)
    F = PatternMatrix(np.ones((1, 2), dtype=np.int64))
    rates = _single_recursion_rates(F, catalog.multisets, catalog.lcm, float(ref_snr))
    # members come in column order, so a stable sort on the score ranks them
    scores = rates[catalog.multiset][catalog.orbit]
    order = np.argsort(-scores, kind="stable")[:top]
    return catalog.ranking(order, scores[order])
