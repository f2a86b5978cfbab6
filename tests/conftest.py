"""Shared fixtures: the two reference square factors, the combining
coefficients the solver must reproduce for them, the factor chains used
across the suite, and small helpers the tests share."""

import itertools
import json
import math

import numpy as np
import pytest

from kronnoma import FactorChain, PatternMatrix, combiner, find_combiners

# optimal 3x3 square factor (canonical column order: values 3, 5, 6)
P3_ROWS = [[1, 1, 0], [1, 0, 1], [0, 1, 1]]

# an optimal 4x4 square factor kept in non-canonical column order (so
# canonicalization is exercised), with its expected combining matrix
P4_ROWS = [[0, 0, 0, 1], [0, 1, 1, 0], [1, 0, 1, 0], [1, 1, 0, 0]]
ALPHA4_ROWS = [[0, -1, 1, 1], [0, 1, -1, 1], [0, 1, 1, -1], [1, 0, 0, 0]]

# combining matrix solving P3 (rows isolate one class each, weight 2)
ALPHA3_ROWS = [[1, 1, -1], [1, -1, 1], [-1, 1, 1]]


@pytest.fixture(scope="session")
def P3() -> PatternMatrix:
    return PatternMatrix(np.array(P3_ROWS))


@pytest.fixture(scope="session")
def P4() -> PatternMatrix:
    return PatternMatrix(np.array(P4_ROWS))


@pytest.fixture(scope="session")
def F12() -> PatternMatrix:
    return PatternMatrix(np.array([[1, 1]]))


@pytest.fixture(scope="session")
def design3(P3):
    return find_combiners(P3)


@pytest.fixture(scope="session")
def design4(P4):
    return find_combiners(P4)


@pytest.fixture(scope="session")
def chain_9x18(F12, P3) -> FactorChain:
    """Reference overloaded chain: G = [1 1] (x) P3 (x) P3, 9 REs, 18 users."""
    return FactorChain(F12, P3, 2)


@pytest.fixture(scope="session")
def chain_3x6(F12, P3) -> FactorChain:
    """One-recursion variant: G is 3x6, small enough for exhaustive checks."""
    return FactorChain(F12, P3, 1)


def enumerate_square_candidates(m_p: int):
    """All m_p x m_p binary matrices with distinct nonzero columns, in
    canonical order (ascending column binary values, row 0 = LSB); refused
    above the search's enumeration cap, as run_algorithm1 refuses."""
    combiner._check_cap(m_p)
    for cols in itertools.combinations(range(1, 2**m_p), m_p):
        yield combiner._matrix_from_column_values(m_p, cols)


def reference_noise(rng: np.random.Generator, n: int, variance: float, complex_valued: bool):
    """n noise values of the given variance drawn from rng, one
    standard_normal call per part: the reference the chunk draw of
    run_monte_carlo must match bit for bit.  Complex noise takes the real
    parts, then the imaginary parts, at variance / 2 each."""
    if variance == 0.0:
        return np.zeros(n, dtype=complex if complex_valued else float)
    if complex_valued:
        scale = math.sqrt(variance / 2.0)
        return scale * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
    return math.sqrt(variance) * rng.standard_normal(n)


def search_space_size(m: int, k: int) -> int:
    """Number of m x k binary matrices with distinct nonzero columns, counted
    as unordered column subsets: binomial(2^m - 1, k).  Zero when the pool of
    distinct nonzero columns is smaller than k."""
    if m < 1 or k < 1:
        raise ValueError("m and k must be positive")
    return math.comb(2**m - 1, k)


def dump_chain(chain: FactorChain, path: str) -> None:
    """Write a chain as the JSON that load_chain and the CLI read."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(chain.to_json_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")
