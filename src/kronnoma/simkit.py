"""Constellations, seeded signal synthesis, and Monte Carlo measurement.

Randomness policy: everything is driven by a counter-based generator
(numpy Philox) keyed with an explicit 64-bit seed.  Monte Carlo trials draw
from per-trial streams, the stream of Philox.jumped(trial_index), so results
are bit-reproducible and independent of batching or parallel scheduling.
Trials are drawn one stream at a time and detected in batches.
SNR is linear throughout and means P_x / sigma^2 with P_x the mean squared
symbol magnitude of the constellation; dB conversion is a CLI-boundary
concern.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass, field
from fractions import Fraction
from typing import TYPE_CHECKING

import numpy as np

from .pattern import FactorChain, PatternMatrix, build_chain, pattern_groups

if TYPE_CHECKING:  # imported lazily at runtime to keep the module graph acyclic
    from .combiner import CombinerDesign
    from .detector import DetectionConfig


@dataclass(frozen=True, eq=False)
class Constellation:
    """Finite symbol alphabet; symbols are equiprobable."""

    symbols: np.ndarray

    def __post_init__(self):
        sym = np.asarray(self.symbols)
        if sym.ndim != 1 or sym.size < 2:
            raise ValueError("constellation needs at least two symbols")
        sym = sym.copy()
        sym.setflags(write=False)
        object.__setattr__(self, "symbols", sym)

    @property
    def size(self) -> int:
        return int(self.symbols.size)

    @property
    def average_power(self) -> float:
        """Mean squared symbol magnitude P_x."""
        return float(np.full(self.size, 1.0 / self.size) @ (np.abs(self.symbols) ** 2))

    @property
    def is_complex(self) -> bool:
        return np.iscomplexobj(self.symbols)


BPSK = Constellation(np.array([-1.0, 1.0]))
QPSK = Constellation(np.array([1 + 1j, 1 - 1j, -1 + 1j, -1 - 1j]) / math.sqrt(2.0))


_WORD = (1 << 64) - 1
# received values gathered per detection call of run_monte_carlo; bounds memory
_CHUNK_VALUES = 1 << 16


def trial_rng(seed: int, index: int) -> np.random.Generator:
    """Independent per-trial stream: Philox keyed by `seed`, jumped by index.

    Philox.jumped(i) advances the 256-bit counter by i * 2^128, so the
    stream starts at counter words (0, 0, lo64(i), hi64(i)); building it
    there directly gives the same bits without the jump."""
    index = operator.index(index)
    if index < 0:
        raise ValueError("trial index must be nonnegative")
    counter = [0, 0, index & _WORD, (index >> 64) & _WORD]
    return np.random.Generator(np.random.Philox(key=seed, counter=counter))


def _noise(rng: np.random.Generator, n: int, variance: float, complex_valued: bool):
    if variance == 0.0:
        return np.zeros(n, dtype=complex if complex_valued else float)
    if complex_valued:
        scale = math.sqrt(variance / 2.0)
        return scale * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
    return math.sqrt(variance) * rng.standard_normal(n)


def synthesize_rx(
    x,
    G: PatternMatrix,
    noise_variance: float,
    seed: int | None = None,
    *,
    rng: np.random.Generator | None = None,
):
    """Received vector y = G x + n with i.i.d. Gaussian noise of the given
    variance per resource element (circularly symmetric when x is complex).

    Deterministic under `seed`; pass `rng` instead to draw from an existing
    per-trial stream.  noise_variance = 0 gives the noiseless model."""
    x = np.asarray(x)
    if x.shape != (G.cols,):
        raise ValueError("x must have one symbol per user")
    if noise_variance < 0:
        raise ValueError("noise variance must be nonnegative")
    if rng is None:
        rng = trial_rng(0 if seed is None else seed, 0)
    y = G.entries @ x
    return y + _noise(rng, G.rows, noise_variance, np.iscomplexobj(x))


@dataclass(frozen=True)
class TrialRecord:
    """One Monte Carlo trial, fully determined by (seed, index, config)."""

    seed: int
    index: int
    snr: float
    transmitted: np.ndarray
    received: np.ndarray
    decisions: dict[str, np.ndarray]
    ambiguous: dict[str, bool]


@dataclass(frozen=True)
class PathGain:
    """Empirical combining gain along one branch path versus the exact value."""

    path: tuple[int, ...]
    expected: Fraction
    measured: float
    n_samples: int

    @property
    def rel_se(self) -> float:
        # relative standard error of a Gaussian sample-variance estimate,
        # propagated to the gain (first order)
        return math.sqrt(2.0 / (self.n_samples - 1))

    @property
    def within(self) -> float:
        """|measured - expected| in units of the standard error."""
        return abs(self.measured / float(self.expected) - 1.0) / self.rel_se


def estimate_gain(
    design: "CombinerDesign",
    chain: FactorChain,
    noise_variance: float,
    trials: int,
    seed: int = 0,
) -> list[PathGain]:
    """Measure per-path combining SNR gains on pure noise.

    Runs the detector's combining cascade on noise-only inputs and compares
    (weight product)^2 * sigma^2 / measured variance against the exact
    rational gain product along each branch path.  Uses one seeded bulk
    stream (single pass, no per-trial parallelism to preserve)."""
    from .detector import combine_paths  # deferred: detector imports simkit

    if trials < 3:
        raise ValueError("need at least 3 trials to estimate a variance")
    if not noise_variance > 0:
        raise ValueError("noise variance must be positive")
    rng = trial_rng(seed, 0)
    noise = math.sqrt(noise_variance) * rng.standard_normal((trials, chain.M))
    combined = combine_paths(noise, chain, design)  # (trials, m_p^r, m_f)
    out = []
    for pi, path in enumerate(itertools.product(range(chain.m_p), repeat=chain.r)):
        weight = 1
        gain = Fraction(1)
        for j in path:
            weight *= design.weights[j]
            gain *= design.gains[j]
        # the m_f equations of one path share the same combining row norm
        samples = combined[:, pi].reshape(-1)
        var = float(samples.var(ddof=1))
        measured = weight * weight * noise_variance / var
        out.append(PathGain(path, gain, measured, samples.size))
    return out


def wilson_interval(successes: int, n: int, z: float = 1.96) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion."""
    if n == 0:
        return (0.0, 1.0)
    p = successes / n
    denom = 1.0 + z * z / n
    center = (p + z * z / (2 * n)) / denom
    half = z * math.sqrt(p * (1 - p) / n + z * z / (4 * n * n)) / denom
    return (max(0.0, center - half), min(1.0, center + half))


@dataclass(frozen=True)
class MonteCarloPoint:
    """Aggregated error statistics at one SNR point."""

    snr: float
    trials: int
    ser: float
    coupled_ser: float
    ambiguity_rate: float
    coupled_ser_interval: tuple[float, float]
    oracle_agreement: float | None  # None when the oracle is unavailable
    measured_adds: int
    measured_muls: int
    bound_adds: int
    bound_muls: int
    records: tuple[TrialRecord, ...] = field(default=(), repr=False)


def run_monte_carlo(
    cfg: "DetectionConfig",
    snr_grid,
    trials: int,
    seed: int,
    *,
    detector: str = "recursive",
    with_oracle: bool = False,
    keep_records: bool = False,
) -> list[MonteCarloPoint]:
    """Seeded Monte Carlo over an SNR grid (linear SNRs).

    detector = "recursive" runs the configured recursive detector (plain or
    SIC final stage per cfg); "oracle" uses the brute-force MAP detector as
    the primary.  with_oracle additionally scores agreement of the primary's
    coupled-sum decisions against the oracle; if the hypothesis count exceeds
    DEFAULT_ORACLE_CAP the run proceeds with agreement marked unavailable.
    Trials are drawn from their own streams and detected a chunk at a time,
    so results do not depend on the chunking.  A noise variance, received
    value or detection metric beyond the float range raises ValueError."""
    from . import detector as det  # deferred: detector imports simkit

    if detector not in ("recursive", "oracle"):
        raise ValueError("detector must be 'recursive' or 'oracle'")
    if trials < 0:
        raise ValueError("trial count must be nonnegative")
    snr_grid = [float(s) for s in snr_grid]
    if any(s <= 0 for s in snr_grid):
        raise ValueError("linear SNRs must be positive")

    G = build_chain(cfg.chain)
    groups = pattern_groups(G)
    con = cfg.constellation
    q = con.size
    oracle_feasible = q**G.cols <= det.DEFAULT_ORACLE_CAP
    need_oracle = detector == "oracle" or with_oracle
    if detector == "oracle" and not oracle_feasible:
        raise det.HypothesisCapExceeded(
            f"oracle needs {q}^{G.cols} hypotheses, above the cap ({det.DEFAULT_ORACLE_CAP})"
        )
    bounds = cfg.op_bounds()
    chunk = max(1, _CHUNK_VALUES // G.rows)

    points = []
    if trials == 0:
        return points
    # an overflow anywhere in synthesis or detection would leave a meaningless
    # decision behind, so it stops the run instead of warning
    try:
        with np.errstate(over="raise", invalid="raise"):
            for si, snr in enumerate(snr_grid):
                noise_variance = con.average_power / snr
                if not math.isfinite(noise_variance):
                    raise ValueError(f"at snr={snr:.6g} the noise variance exceeds the float range")
                sym_err = 0
                coup_err = 0
                ambiguous = 0
                agree = 0
                measured = None
                records = []
                for start in range(si * trials, (si + 1) * trials, chunk):
                    index = range(start, min(start + chunk, (si + 1) * trials))
                    xs, ys = [], []
                    for i in index:
                        rng = trial_rng(seed, i)
                        x = con.symbols[rng.integers(0, q, size=G.cols)]
                        xs.append(x)
                        ys.append(synthesize_rx(cfg.power_offsets * x, G, noise_variance, rng=rng))
                    X, Y = np.array(xs), np.array(ys)

                    decisions: dict[str, np.ndarray] = {}
                    amb: dict[str, np.ndarray] = {}
                    if detector == "recursive":
                        batch = det.detect_batch(Y, cfg)
                        decisions["recursive"] = batch.symbols
                        amb["recursive"] = batch.ambiguous
                        measured = (batch.report.measured_adds, batch.report.measured_muls)
                        primary = "recursive"
                    if need_oracle and oracle_feasible:
                        osym, oties = det.brute_force_map_oracle(Y, G, con, power_offsets=cfg.power_offsets)
                        decisions["oracle"] = osym
                        amb["oracle"] = oties > 1
                    if detector == "oracle":
                        primary = "oracle"
                        measured = (0, 0)  # the oracle is not part of the op budget

                    got = decisions[primary]
                    got_coupled = det.coupled_sums(got, groups, cfg.power_offsets)
                    sym_err += int((got != X).sum())
                    coup_err += int((got_coupled != det.coupled_sums(X, groups, cfg.power_offsets)).sum())
                    ambiguous += int(amb[primary].sum())
                    if with_oracle and oracle_feasible and primary != "oracle":
                        oc = det.coupled_sums(decisions["oracle"], groups, cfg.power_offsets)
                        agree += int((got_coupled == oc).all(axis=1).sum())
                    if keep_records:
                        records.extend(
                            TrialRecord(
                                seed=seed,
                                index=i,
                                snr=snr,
                                transmitted=X[row],
                                received=Y[row],
                                decisions={name: d[row] for name, d in decisions.items()},
                                ambiguous={name: bool(a[row]) for name, a in amb.items()},
                            )
                            for row, i in enumerate(index)
                        )
                n_coup = trials * len(groups)
                agreement = None
                if with_oracle and oracle_feasible and detector != "oracle":
                    agreement = agree / trials
                points.append(
                    MonteCarloPoint(
                        snr=snr,
                        trials=trials,
                        ser=sym_err / (trials * G.cols),
                        coupled_ser=coup_err / n_coup,
                        ambiguity_rate=ambiguous / trials,
                        coupled_ser_interval=wilson_interval(coup_err, n_coup),
                        oracle_agreement=agreement,
                        measured_adds=measured[0],
                        measured_muls=measured[1],
                        bound_adds=bounds.total_adds,
                        bound_muls=bounds.total_muls,
                        records=tuple(records),
                    )
                )
    except FloatingPointError as exc:
        raise ValueError(f"at snr={snr:.6g} the model's values exceed the float range ({exc})") from None
    return points
