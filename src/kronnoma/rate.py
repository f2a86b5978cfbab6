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

Every rate takes its SNR as a number, and returns a float, or as a 1-D
grid, and returns one rate per point; a number is a one-point grid.  A grid
is rated in stacked log-dets, and each point's sum over compositions is
added left to right from 0.0 (never pairwise, as np.sum adds), so a point
gives bit for bit the same rate alone and in any grid.
"""

from __future__ import annotations

import functools
import math
from array import array
from fractions import Fraction
from typing import Callable, Iterable, Iterator, Sequence

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


# matrices per stacked log-det, counted over SNRs x compositions, so a deep
# chain's arrays stay a few MB
_BLOCK_COMPOSITIONS = 1 << 14

# entries of the M x M matrices stacked in one log-det of the PDMA rate
_BLOCK_PDMA_VALUES = 1 << 20


def _snr_grid(snr: float | Sequence[float]) -> tuple[np.ndarray, bool]:
    """`snr` as a 1-D float array, and whether it was a scalar."""
    snrs = np.asarray(snr, dtype=float)
    if snrs.ndim > 1:
        raise ValueError("snr must be a number or a 1-D sequence")
    if not (snrs >= 0).all():  # NaN included
        raise ValueError("snr must be nonnegative")
    return snrs.reshape(-1), snrs.ndim == 0


def _on_grid(rates: np.ndarray, scalar: bool):
    """The rates of a one-point grid as the float of a scalar SNR."""
    return float(rates[0]) if scalar else rates


# a `rate` sweep reads two profiles, its chain's and the SIC reference's
@functools.lru_cache(maxsize=4)
def _path_gain_profile(
    m_p: int, r: int, gains: tuple[Fraction, ...]
) -> tuple[np.ndarray, np.ndarray]:
    """Each composition of r into m_p parts, in `compositions` order, as its
    path count float(multinomial(comp)) and its boost float(prod gains_j^{comp_j}).
    Neither depends on the SNR, so a sweep builds them once.

    A path count is stored as a float: a Python int multiplied into a float
    is converted with float() first, so the products are the same.  The
    caller has checked that every path count converts."""
    nums = [[g.numerator**e for e in range(r + 1)] for g in gains]
    dens = [[g.denominator**e for e in range(r + 1)] for g in gains]
    mults, boosts = array("d"), array("d")
    for comp in compositions(r, m_p):
        mults.append(float(multinomial(comp)))
        # int / int is correctly rounded, so this is float(Fraction(num, den))
        boosts.append(math.prod(map(list.__getitem__, nums, comp))
                      / math.prod(map(list.__getitem__, dens, comp)))
    mults, boosts = np.frombuffer(mults), np.frombuffer(boosts)
    mults.flags.writeable = boosts.flags.writeable = False
    return mults, boosts


def _log_det_sums(gram: np.ndarray, mults: np.ndarray, boosts: np.ndarray,
                  snrs: np.ndarray) -> np.ndarray:
    """Per row n, the sum over compositions c of
    mults[c] * log2 det(I + snrs[n] * boosts[n, c] * gram), added left to
    right from 0.0.  boosts is (N, C), or (C,) when every row shares it.

    The matrices are stacked at most `_BLOCK_COMPOSITIONS` to a log-det,
    rows and compositions together; a stacked log-det gives each matrix
    the value of a lone one.  A running sum that leaves the float range
    comes out non-finite; the caller checks."""
    rows, count = len(snrs), len(mults)
    boosts = np.broadcast_to(boosts, (rows, count))
    eye = np.eye(len(gram))
    step = min(count, _BLOCK_COMPOSITIONS)
    per = max(1, _BLOCK_COMPOSITIONS // step)
    sums = np.empty(rows)
    for lo in range(0, rows, per):
        part = slice(lo, lo + per)
        total = 0.0
        for start in range(0, count, step):
            block = slice(start, start + step)
            coeffs = snrs[part, None] * boosts[part, block]
            signs, logdets = np.linalg.slogdet(eye + coeffs[..., None, None] * gram)
            if (signs <= 0).any():
                raise ValueError("matrix is not positive definite")
            terms = mults[block] * (logdets / LOG2)
            # np.add.accumulate adds in order along the axis (np.sum would
            # add pairwise), so each row's sum is the left-to-right one
            terms[:, 0] += total
            total = np.add.accumulate(terms, axis=1)[:, -1]
        sums[part] = total
    return sums


def _recursive_rates(chain: FactorChain, snrs: np.ndarray, top_gain: Fraction,
                     profile: Callable[[], tuple[np.ndarray, np.ndarray]]) -> np.ndarray:
    """The recursive rate of `chain` per row n of a path-gain profile, at
    snr snrs[n].  `profile()` gives the path counts and boosts (see
    `_log_det_sums`); every gain is at most `top_gain`.  A refusal names
    the first of `snrs` that fails."""
    if not len(snrs):
        return np.empty(0)
    F = chain.F.entries.astype(float)
    gram = F @ F.T
    peak = float(gram.max())
    at = 0
    try:
        with np.errstate(over="ignore"):
            # both checks refuse a chain before any composition is
            # enumerated.  Every boost is at most top_gain^r and float() is
            # monotone, so this bound covers every snr * boost * F F^T term
            over = ~np.isfinite(snrs * float(top_gain**chain.r) * peak)
            if over.any():
                at = int(over.argmax())
                raise OverflowError("snr * gain * F F^T is not finite")
            # the sum ends dividing by 2M, which float() must convert; M =
            # m_p^r * m_f bounds every path count, so each of those converts too
            paths = float(2 * chain.M)
            sums = _log_det_sums(gram, *profile(), snrs)
        over = ~np.isfinite(sums)
        if over.any():
            at = int(over.argmax())
            raise OverflowError("a log-det term is not finite")
        return sums / paths
    except OverflowError as exc:
        raise ValueError(
            f"the rate of a depth-{chain.r} chain at snr={snrs[at]:.6g} exceeds the float range ({exc})"
        ) from exc


def sum_rate_recursive(chain: FactorChain, gains: Iterable, snr: float | Sequence[float]
                       ) -> float | np.ndarray:
    """Average per-RE sum rate of recursive detection over `chain` with
    per-branch combining gains `gains` (exact rationals preferred).

    `snr` is a number, which gives a float, or a 1-D sequence, which gives
    an array with one rate per point; a number is rated as a one-point grid.
    Each point's sum over compositions is added left to right from 0.0, so
    a point rates bit for bit the same alone and in any grid."""
    snrs, scalar = _snr_grid(snr)
    gains = tuple(Fraction(g) for g in gains)
    if len(gains) != chain.m_p:
        raise ValueError("need one gain per combining branch")
    if any(g <= 0 for g in gains):
        raise ValueError("gains must be positive")
    profile = functools.partial(_path_gain_profile, chain.m_p, chain.r, gains)
    return _on_grid(_recursive_rates(chain, snrs, max(gains), profile), scalar)


def _single_recursion_rates(F: PatternMatrix, gains: np.ndarray, denominator: int,
                            snr: float) -> np.ndarray:
    """sum_rate_recursive(FactorChain(F, P, 1), gains[n] / denominator, snr)
    for each row n of the positive integer array `gains`, one row per
    branch of an m_p x m_p factor P, in one stacked evaluation.  The rate
    reads only the size of P.  At r = 1 the compositions are the unit
    vectors in branch order, each one path, so a row's boosts are its gains."""
    snrs = np.repeat(_snr_grid(snr)[0], len(gains))
    m_p = gains.shape[1]
    chain = FactorChain(F, PatternMatrix(np.eye(m_p, dtype=np.int64)), 1)
    top = Fraction(int(gains.max()), denominator)
    return _recursive_rates(chain, snrs, top, lambda: (np.ones(m_p), gains / denominator))


def sum_rate_pdma(A: PatternMatrix, snr: float | Sequence[float]) -> float | np.ndarray:
    """Average per-RE sum rate of regular (joint) detection of matrix A:
    (1/2M) log2 det(I_M + snr * A A^T); `snr` a number or a 1-D grid, as
    for `sum_rate_recursive`."""
    snrs, scalar = _snr_grid(snr)
    M = A.rows
    gram = A.entries.astype(float) @ A.entries.astype(float).T
    with np.errstate(over="ignore"):
        over = ~np.isfinite(snrs * float(gram.max()))
    if over.any():
        raise ValueError(f"the PDMA rate at snr={snrs[over.argmax()]:.6g} exceeds the float range")
    eye = np.eye(M)
    rates = np.empty(len(snrs))
    step = max(1, _BLOCK_PDMA_VALUES // (M * M))
    for start in range(0, len(snrs), step):
        block = slice(start, start + step)
        signs, logdets = np.linalg.slogdet(eye + snrs[block, None, None] * gram)
        if (signs <= 0).any():
            raise ValueError("matrix is not positive definite")
        rates[block] = logdets / LOG2 / (2 * M)
    return _on_grid(rates, scalar)


def sum_rate_oma(snr: float | Sequence[float]) -> float | np.ndarray:
    """Single-user AWGN baseline: each RE serves one user at full power.
    `snr` a number or a 1-D grid, as for `sum_rate_recursive`."""
    snrs, scalar = _snr_grid(snr)
    return _on_grid(np.array([0.5 * math.log2(1.0 + s) for s in snrs.tolist()]), scalar)


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


def sum_rate_sic_reference(snr: float | Sequence[float]) -> float | np.ndarray:
    """Rate of the fixed 18-user / 9-RE reference configuration when the
    third combining branch is cancelled at every recursion level: the
    recursive rate with per-branch gains (4/3, 4/3, 2), which gives 4 paths
    boosted 16/9, 4 boosted 8/3 and 1 boosted 4.

    This is the `c_example4` baseline of `kronnoma rate`.  It does not
    depend on the chain being rated, and it is a bound that no detector in
    the package achieves: the SIC detector cancels at the last level only,
    which gives 6 paths boosted 16/9 and 3 boosted 8/3."""
    return sum_rate_recursive(_SIC_REFERENCE_CHAIN, _SIC_REFERENCE_GAINS, snr)
