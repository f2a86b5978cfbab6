"""Closed-form per-resource-element average sum rates.

For a Kronecker chain G = F (x) P^{(x) r} detected by recursive combining,
each of the m_p^r length-m_f final equation sets is reached through a path
(j_1, ..., j_r) of combining branches and sees the SNR boosted by the
product of per-branch gains gamma_{j_1} ... gamma_{j_r}.  The rate depends
only on how many paths share each exact boost b, the path-gain profile
{b: n_b} (`path_gain_profile`), and is

    C = sum over boosts b, descending, of
        (n_b / 2M) * log2 det( I_{m_f} + snr * b * F F^T )

with M = m_f * m_p^r, so the path shares n_b / 2M sum to 1 / (2 m_f).
Baselines: regular PDMA detection of a full matrix A (joint log-det over
all M resources) and single-user OMA.  All SNRs here are linear; dB
conversion happens at the CLI boundary only.

Every rate takes its SNR as a number, and returns a float, or as a 1-D
grid, and returns one rate per point; a number is a one-point grid.  A grid
is rated in stacked log-dets, and each point's sum over boosts is added
left to right from 0.0 (never pairwise, as np.sum adds), so a point gives
bit for bit the same rate alone and in any grid.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections import Counter
from fractions import Fraction
from types import MappingProxyType
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from .pattern import FactorChain, PatternMatrix

LOG2 = math.log(2.0)

# matrices per stacked log-det, counted over SNRs x terms, so a deep
# chain's arrays stay a few MB
_BLOCK_TERMS = 1 << 14

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


def _exact_gains(gains: Iterable) -> tuple[Fraction, ...]:
    gains = tuple(Fraction(g) for g in gains)
    if not gains or any(g <= 0 for g in gains):
        raise ValueError("need one or more gains, all positive")
    return gains


def path_gain_profile(gains: Iterable, r: int) -> Mapping[Fraction, int]:
    """The number of recursion paths boosted by each exact boost, for
    per-branch combining gains `gains` (one per branch, positive, exact
    rationals preferred) over r recursions: a read-only map {boost: path
    count} in descending boost order, whose counts sum to len(gains)^r."""
    if isinstance(r, bool) or not isinstance(r, int) or r < 0:
        raise ValueError(f"r must be a nonnegative integer, not {r!r}")
    return _profile_map(tuple(sorted(_exact_gains(gains))), r)


# the map the tests and acceptance checks read; a rate reads the tuples
@functools.lru_cache(maxsize=4)
def _profile_map(multiset: tuple[Fraction, ...], r: int) -> Mapping[Fraction, int]:
    boosts, _, counts = _path_gain_profile(multiset, r)
    return MappingProxyType({Fraction(num, den): count for (num, den), count in zip(boosts, counts)})


def _value(num: int, den: int) -> float:
    # int / int is correctly rounded, so this is float() of the boost
    try:
        return num / den
    except OverflowError:
        return math.inf


# a `rate` sweep reads two profiles, its chain's and the SIC reference's
@functools.lru_cache(maxsize=4)
def _path_gain_profile(multiset: tuple[Fraction, ...], r: int
                       ) -> tuple[tuple[tuple[int, int], ...], tuple[float, ...], tuple[int, ...]]:
    """The path-gain profile of a sorted gain multiset in descending boost
    order: the boosts as integers (num, den), their floats and their path
    counts.  It is built once over the multiset's d distinct gains g_i,
    held by c_i branches each: for each split k of r among them,
    multinomial(r; k) * prod c_i^k_i paths are boosted prod g_i^k_i, held
    as the integers prod num_i^k_i and prod den_i^k_i from each gain's
    powers.  Equal boosts are merged by integer comparison, so no boost is
    hashed as a rational: CPython hashes them mod 2^61 - 1, where the
    powers of 2 repeat every 61."""
    distinct = sorted(Counter(multiset).items(), reverse=True)
    # the boost's numerator and denominator, the path count and the
    # recursions left after each distinct gain; the last takes all left
    terms = [(1, 1, 1, r)]
    for i, (g, c) in enumerate(distinct):
        powers = [(1, 1, 1)]
        for _ in range(r):
            num, den, branches = powers[-1]
            powers.append((num * g.numerator, den * g.denominator, branches * c))
        terms = [(num * powers[k][0], den * powers[k][1], count * math.comb(left, k) * powers[k][2], left - k)
                 for num, den, count, left in terms
                 for k in ((left,) if i == len(distinct) - 1 else range(left + 1))]
    # descending by float(); boosts whose floats are equal, among them any
    # equal boosts (gains 2 and 4, say), are ordered and merged by exact
    # integer comparison
    value = [_value(num, den) for num, den, _, _ in terms]
    exact = functools.cmp_to_key(lambda a, b: terms[b][0] * terms[a][1] - terms[a][0] * terms[b][1])
    boosts, values, counts = [], [], []
    for v, run in itertools.groupby(sorted(range(len(terms)), key=value.__getitem__, reverse=True),
                                    key=value.__getitem__):
        for i, t in enumerate(sorted(run, key=exact)):
            num, den, count, _ = terms[t]
            if i and num * boosts[-1][1] == boosts[-1][0] * den:
                counts[-1] += count
            else:
                boosts.append((num, den))
                values.append(v)
                counts.append(count)
    return tuple(boosts), tuple(values), tuple(counts)


def _log_det_sums(gram: np.ndarray, weights: np.ndarray, boosts: np.ndarray,
                  snrs: np.ndarray) -> np.ndarray:
    """Per row n, the sum over terms c of
    weights[n, c] * log2 det(I + snrs[n] * boosts[n, c] * gram), added left
    to right from 0.0.  weights and boosts are (N, C), or (C,) when every
    row shares them.

    The matrices are stacked at most `_BLOCK_TERMS` to a log-det, rows and
    terms together; a stacked log-det gives each matrix the value of a lone
    one.  A term that leaves the float range comes out non-finite; the
    caller checks."""
    rows, count = len(snrs), np.shape(boosts)[-1]
    weights = np.broadcast_to(weights, (rows, count))
    boosts = np.broadcast_to(boosts, (rows, count))
    eye = np.eye(len(gram))
    step = min(count, _BLOCK_TERMS)
    per = max(1, _BLOCK_TERMS // step)
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
            terms = weights[part, block] * (logdets / LOG2)
            # np.add.accumulate adds in order along the axis (np.sum would
            # add pairwise), so each row's sum is the left-to-right one
            terms[:, 0] += total
            total = np.add.accumulate(terms, axis=1)[:, -1]
        sums[part] = total
    return sums


def _recursive_rates(F: PatternMatrix, r: int, snrs: np.ndarray, top_gain: Fraction,
                     profile: Callable[[], tuple[np.ndarray, np.ndarray]]) -> np.ndarray:
    """The recursive rate over F after r recursions per row n of a
    path-gain profile, at snr snrs[n].  `profile()` gives the path shares
    and boosts (see `_log_det_sums`); every gain is at most `top_gain`.  A
    refusal names the first of `snrs` that fails."""
    if not len(snrs):
        return np.empty(0)
    F = F.entries.astype(float)
    gram = F @ F.T
    at = 0
    try:
        with np.errstate(over="ignore"):
            # refuses a chain before its profile is built.  Every boost is
            # at most top_gain^r and float() is monotone, so this bound
            # covers every snr * boost * F F^T term
            over = ~np.isfinite(snrs * float(top_gain**r) * float(gram.max()))
            if over.any():
                at = int(over.argmax())
                raise OverflowError("snr * gain * F F^T is not finite")
            sums = _log_det_sums(gram, *profile(), snrs)
        over = ~np.isfinite(sums)
        if over.any():
            at = int(over.argmax())
            raise OverflowError("a log-det term is not finite")
        return sums
    except OverflowError as exc:
        raise ValueError(
            f"the rate of a depth-{r} chain at snr={snrs[at]:.6g} exceeds the float range ({exc})"
        ) from exc


def sum_rate_recursive(chain: FactorChain, gains: Iterable, snr: float | Sequence[float]
                       ) -> float | np.ndarray:
    """Average per-RE sum rate of recursive detection over `chain` with
    per-branch combining gains `gains` (exact rationals preferred).

    `snr` is a number, which gives a float, or a 1-D sequence, which gives
    an array with one rate per point; a number is rated as a one-point grid.
    Each point's sum over boosts is added left to right from 0.0, so a
    point rates bit for bit the same alone and in any grid."""
    snrs, scalar = _snr_grid(snr)
    gains = _exact_gains(gains)
    if len(gains) != chain.m_p:
        raise ValueError("need one gain per combining branch")

    def profile() -> tuple[np.ndarray, np.ndarray]:
        # int / int is correctly rounded: float(Fraction(n, 2M)), float(boost)
        _, boosts, counts = _path_gain_profile(tuple(sorted(gains)), chain.r)
        paths = 2 * chain.M
        return np.array([n / paths for n in counts]), np.array(boosts)

    return _on_grid(_recursive_rates(chain.F, chain.r, snrs, max(gains), profile), scalar)


def _single_recursion_rates(F: PatternMatrix, gains: np.ndarray, denominator: int,
                            snr: float) -> np.ndarray:
    """sum_rate_recursive(FactorChain(F, P, 1), gains[n] / denominator, snr)
    for each row n of the positive integer array `gains`, one row per
    branch of an m_p x m_p factor P, in one stacked evaluation.  The rate
    reads only the size of P.  At r = 1 a row's profile holds each distinct
    gain, descending, with the number of branches that have it; shorter
    rows are padded with terms of share 0."""
    gains = -np.sort(-gains, axis=1)
    N, m_p = gains.shape
    # term t of row n is its t-th run of equal gains (every gain is positive)
    starts = np.diff(gains, axis=1, prepend=0) != 0
    term = np.cumsum(starts, axis=1) - 1 + m_p * np.arange(N)[:, None]
    counts = np.bincount(term.ravel(), minlength=N * m_p).reshape(N, m_p)
    boosts = np.zeros((N, m_p))
    boosts.flat[term[starts]] = gains[starts] / denominator
    snrs = np.repeat(_snr_grid(snr)[0], N)
    top = Fraction(int(gains.max()), denominator)
    return _recursive_rates(F, 1, snrs, top, lambda: (counts / (2 * F.rows * m_p), boosts))


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
