"""Closed-form per-resource-element average sum rates.

For a Kronecker chain G = F (x) P^{(x) r} detected by recursive combining,
each of the m_p^r length-m_f final equation sets is reached through a path
(j_1, ..., j_r) of combining branches and sees the SNR boosted by the product
of per-branch gains gamma_{j_t}.  Grouping paths by how many times each
branch occurs gives the exact average rate

    C = (1 / 2M) * sum over compositions r_1+...+r_{m_p} = r of
        multinomial(r; r_1..r_{m_p}) *
        log2 det( I_{m_f} + snr * gamma_1^{r_1} ... gamma_{m_p}^{r_{m_p}} * F F^T )

with M = m_f * m_p^r.  Baselines: regular PDMA detection of a full matrix A
(joint log-det over all M resources) and single-user OMA.  All SNRs here are
linear; dB conversion happens at the CLI boundary only.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Iterator, Sequence

import numpy as np

from .pattern import FactorChain, PatternMatrix

LOG2 = math.log(2.0)


def compositions(total: int, parts: int) -> Iterator[tuple[int, ...]]:
    """All tuples of `parts` nonnegative integers summing to `total`, in
    colexicographic order (fixed for reproducible summation order)."""
    if parts < 1:
        raise ValueError("parts must be >= 1")
    if parts == 1:
        yield (total,)
        return
    for last in range(total + 1):
        for head in compositions(total - last, parts - 1):
            yield head + (last,)


def multinomial(counts: Sequence[int]) -> int:
    """multinomial(r; r_1..r_m) = r! / (r_1! ... r_m!), exact."""
    total = sum(counts)
    out = 1
    acc = 0
    for c in counts:
        acc += c
        out *= math.comb(acc, c)
    assert acc == total
    return out


def multinomial_weight_check(m_p: int, r: int) -> int:
    """Sum of multinomial weights over all compositions of r into m_p parts.

    Equals m_p**r exactly (each recursion multiplies the number of equation
    sets by m_p); exposed so the bookkeeping can be audited directly."""
    return sum(multinomial(c) for c in compositions(r, m_p))


def _log2_det_posdef(A: np.ndarray) -> float:
    """log2 det of a symmetric positive definite matrix via a stable
    factorization (LU with pivoting under the hood)."""
    sign, logdet = np.linalg.slogdet(A)
    if sign <= 0:
        raise ValueError("matrix is not positive definite")
    return logdet / LOG2


def sum_rate_recursive(chain: FactorChain, gains: Iterable, snr: float) -> float:
    """Average per-RE sum rate of recursive detection over `chain` with
    per-branch combining gains `gains` (exact rationals preferred)."""
    if snr < 0:
        raise ValueError("snr must be nonnegative")
    gains = tuple(Fraction(g) for g in gains)
    if len(gains) != chain.m_p:
        raise ValueError("need one gain per combining branch")
    if any(g <= 0 for g in gains):
        raise ValueError("gains must be positive")
    F = chain.F.entries.astype(float)
    gram = F @ F.T
    eye = np.eye(chain.m_f)
    total = 0.0
    try:
        for comp in compositions(chain.r, chain.m_p):
            boost = Fraction(1)
            for g, e in zip(gains, comp):
                boost *= g**e
            coeff = snr * float(boost)
            total += multinomial(comp) * _log2_det_posdef(eye + coeff * gram)
            if not math.isfinite(total):
                raise OverflowError("a log-det term is not finite")
        return total / (2 * chain.M)
    except OverflowError as exc:
        raise ValueError(
            f"the rate of a depth-{chain.r} chain at snr={snr:.6g} exceeds the float range ({exc})"
        ) from exc


def sum_rate_pdma(A: PatternMatrix, snr: float) -> float:
    """Average per-RE sum rate of regular (joint) detection of matrix A:
    (1/2M) log2 det(I_M + snr * A A^T)."""
    if snr < 0:
        raise ValueError("snr must be nonnegative")
    M = A.rows
    gram = A.entries.astype(float) @ A.entries.astype(float).T
    return _log2_det_posdef(np.eye(M) + snr * gram) / (2 * M)


def sum_rate_oma(snr: float) -> float:
    """Single-user AWGN baseline: each RE serves one user at full power."""
    if snr < 0:
        raise ValueError("snr must be nonnegative")
    return 0.5 * math.log2(1.0 + snr)


# the 9x18 reference configuration: seed [1 1], the optimal 3x3 square
# factor (combining gains 4/3, 4/3, 4/3), two recursions
_SIC_REFERENCE_CHAIN = FactorChain(
    PatternMatrix(np.array([[1, 1]])),
    PatternMatrix(np.array([[1, 1, 0], [1, 0, 1], [0, 1, 1]])),
    2,
)
# branch 2 is cancelled instead of combined: its gain is its column weight in
# P, the rule the detector applies to a cancelled class
_SIC_REFERENCE_GAINS = (Fraction(4, 3), Fraction(4, 3), Fraction(2))


def sum_rate_sic_reference(snr: float) -> float:
    """Rate of the fixed 18-user / 9-RE reference configuration when the
    third combining branch is cancelled at every recursion level: the
    recursive rate with per-branch gains (4/3, 4/3, 2), which gives 4 paths
    boosted 16/9, 4 boosted 8/3 and 1 boosted 4.

    This is the `c_example4` baseline of `kronnoma rate`.  It does not
    depend on the chain being rated, and it is a bound that no detector in
    the package achieves: the SIC detector cancels at the last level only,
    which gives 6 paths boosted 16/9 and 3 boosted 8/3."""
    return sum_rate_recursive(_SIC_REFERENCE_CHAIN, _SIC_REFERENCE_GAINS, snr)
