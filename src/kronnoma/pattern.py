"""Binary pattern matrices and their Kronecker factorization.

A pattern matrix G assigns K users to M resource elements: column k is the
0/1 footprint of user k, and K/M > 1 means the system is overloaded.  Large
overloaded designs are built here as a Kronecker chain

    G = F  (x)  P (x) ... (x) P        (r copies of the square factor P)

with a rectangular seed F (m_f x k_f, m_f < k_f) and a square factor P
(m_p x m_p).  The chain has M = m_f * m_p**r rows and K = k_f * m_p**r
columns, so the overload factor k_f/m_f is preserved while the search space
for good matrices collapses from one binomial(2^M - 1, K) enumeration to a
product of tiny per-factor enumerations.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

# refuse to materialize chains beyond this many entries; keeps build_chain total
MAX_BUILD_ELEMENTS = 1 << 26

# refuse chains deeper than this: every command computes m_p**r, which at a
# depth near 2^63 never finishes; no command serves a chain deeper than
# r = 1,022 when m_p >= 2, since 2M is then no float
MAX_DEPTH = 1 << 16


class DimensionOverflowError(ValueError):
    """A factor chain is too deep, or would materialize an impractically
    large matrix."""


def json_fields(obj, what: str, *keys: str) -> list:
    """The values of `keys` in the JSON object `obj` that describes `what`;
    a non-object or a missing field is refused by name."""
    if not isinstance(obj, dict):
        raise ValueError(f"{what} must be a JSON object")
    for key in keys:
        if key not in obj:
            raise ValueError(f"{what} has no field {key!r}")
    return [obj[key] for key in keys]


def json_object(pairs: list) -> dict:
    """A decoded JSON object, as `json.load`'s object_pairs_hook: a key given
    twice is refused rather than left to the last value."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise ValueError(f"a JSON object gives the key {key!r} twice")
        obj[key] = value
    return obj


def json_int(value, what: str) -> int:
    """A 64-bit integer read from JSON; floats and booleans are refused,
    not truncated."""
    if type(value) is not int:
        raise ValueError(f"{what} must be an integer, got {value!r:.32}")
    if not -(2**63) <= value < 2**63:
        raise ValueError(f"{what} is outside the 64-bit range")
    return value


def json_ints(values, what: str) -> list[int]:
    """A JSON list of integers, checked entry by entry."""
    if not isinstance(values, list):
        raise ValueError(f"{what} must be a list of integers")
    entry = f"each entry of {what}"
    for v in values:
        json_int(v, entry)
    return values


def _as_binary_array(data) -> np.ndarray:
    arr = np.asarray(data, dtype=np.int64)
    if arr.ndim != 2 or arr.size == 0:
        raise ValueError("pattern matrix must be a nonempty 2-D array")
    if not ((arr == 0) | (arr == 1)).all():
        raise ValueError("pattern matrix entries must be 0 or 1")
    arr = arr.copy()
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class PatternMatrix:
    """Immutable binary M x K matrix with value semantics.

    Entries are stored as small signed-safe integers (not booleans) because
    combined matrices such as alpha @ P need signed arithmetic downstream.
    """

    entries: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "entries", _as_binary_array(self.entries))

    @property
    def rows(self) -> int:
        return self.entries.shape[0]

    @property
    def cols(self) -> int:
        return self.entries.shape[1]

    @property
    def overload_factor(self) -> float:
        # advisory only: values <= 1 are legal (sub-loaded designs, factors)
        return self.cols / self.rows

    def column_values(self) -> tuple[int, ...]:
        """Per-column binary integer encoding; row 0 is the least significant bit."""
        weights = 1 << np.arange(self.rows, dtype=np.int64)
        return tuple(int(v) for v in weights @ self.entries)

    def canonicalized(self) -> "PatternMatrix":
        """Columns reordered ascending by binary-integer value."""
        order = np.argsort(np.asarray(self.column_values(), dtype=np.int64), kind="stable")
        return PatternMatrix(self.entries[:, order])

    def to_json_dict(self) -> dict:
        return {
            "rows": self.rows,
            "cols": self.cols,
            "data": self.entries.reshape(-1).tolist(),
        }

    @classmethod
    def from_json_dict(cls, obj: dict) -> "PatternMatrix":
        rows, cols, data = json_fields(obj, "pattern matrix", "rows", "cols", "data")
        rows, cols = json_int(rows, "rows"), json_int(cols, "cols")
        data = json_ints(data, "matrix data")
        if len(data) != rows * cols:
            raise ValueError("matrix data length does not match rows*cols")
        return cls(np.asarray(data, dtype=np.int64).reshape(rows, cols))

    def __eq__(self, other) -> bool:
        if not isinstance(other, PatternMatrix):
            return NotImplemented
        return self.entries.shape == other.entries.shape and bool(
            (self.entries == other.entries).all()
        )

    def __hash__(self) -> int:
        return hash((self.entries.shape, self.entries.tobytes()))

    def __repr__(self) -> str:
        return f"PatternMatrix({self.entries.tolist()!r})"


@dataclass(frozen=True)
class FactorChain:
    """Kronecker factorization G = F (x) P^{(x) r}.

    F is the rectangular seed (strictly overloaded, m_f < k_f), P the square
    factor applied r >= 0 times.  r = 0 degenerates to G = F.
    """

    F: PatternMatrix
    P: PatternMatrix
    r: int

    def __post_init__(self):
        if not isinstance(self.r, int) or self.r < 0:
            raise ValueError("recursion depth r must be a nonnegative integer")
        if self.r > MAX_DEPTH:
            raise DimensionOverflowError(f"recursion depth r must be at most {MAX_DEPTH}")
        if self.P.rows != self.P.cols:
            raise ValueError("square factor P must be square")
        if self.F.rows >= self.F.cols:
            raise ValueError("seed factor F must be strictly wide (m_f < k_f)")

    @property
    def m_f(self) -> int:
        return self.F.rows

    @property
    def k_f(self) -> int:
        return self.F.cols

    @property
    def m_p(self) -> int:
        return self.P.rows

    @property
    def M(self) -> int:
        return self.m_f * self.m_p**self.r

    @property
    def K(self) -> int:
        return self.k_f * self.m_p**self.r

    @property
    def overload_factor(self) -> Fraction:
        return Fraction(self.k_f, self.m_f)

    def to_json_dict(self) -> dict:
        return {"F": self.F.to_json_dict(), "P": self.P.to_json_dict(), "r": self.r}

    @classmethod
    def from_json_dict(cls, obj: dict) -> "FactorChain":
        F, P, r = json_fields(obj, "factor chain", "F", "P", "r")
        return cls(
            F=PatternMatrix.from_json_dict(F),
            P=PatternMatrix.from_json_dict(P),
            r=json_int(r, "r"),
        )


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------

def kronecker(A: PatternMatrix, B: PatternMatrix) -> PatternMatrix:
    """Kronecker product of two pattern matrices: (m*m') x (k*k')."""
    return PatternMatrix(np.kron(A.entries, B.entries))


def build_chain(chain: FactorChain) -> PatternMatrix:
    """Materialize G = F (x) P^{(x) r}; r = 0 returns F itself."""
    if chain.M * chain.K > MAX_BUILD_ELEMENTS:
        # M and K in factored form: at depth r their decimal digits grow without bound
        m_f, k_f, m_p, r = chain.m_f, chain.k_f, chain.m_p, chain.r
        raise DimensionOverflowError(
            f"chain would materialize a {m_f}*{m_p}^{r} x {k_f}*{m_p}^{r} matrix "
            f"(> {MAX_BUILD_ELEMENTS} entries); refuse to build"
        )
    G = chain.F
    for _ in range(chain.r):
        G = kronecker(G, chain.P)
    return G


def pattern_groups(G: PatternMatrix) -> tuple[tuple[int, ...], ...]:
    """Partition of user indices by identical column pattern, in order of
    first occurrence.  Singleton groups are users with a unique footprint."""
    seen: dict[bytes, list[int]] = {}
    for k in range(G.cols):
        seen.setdefault(G.entries[:, k].tobytes(), []).append(k)
    return tuple(tuple(v) for v in seen.values())


def load_chain(path: str) -> FactorChain:
    with open(path, "r", encoding="utf-8") as fh:
        return FactorChain.from_json_dict(json.load(fh, object_pairs_hook=json_object))
