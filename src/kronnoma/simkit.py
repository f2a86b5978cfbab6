"""Seeded signal synthesis and Monte Carlo measurement.

Randomness policy: everything is driven by a counter-based generator
(numpy Philox) keyed with an explicit 64-bit seed.  Monte Carlo trials draw
from per-trial streams, the stream of Philox.jumped(trial_index), so results
are bit-reproducible and independent of batching or parallel scheduling.
A run keeps one generator and moves it to each trial's stream once: a
trial's symbols are its first ceil(K/2) raw Philox words, decoded for the
whole chunk at once by numpy's bounded-integer rule (a trial holding a
value the rule rejects is drawn again through integers), and its noise is
the standard normals that follow.  So every trial draws what integers and
standard_normal on its stream draw, and the stream contract is unchanged;
a numpy release that changed the rule would fail the tests' equality
check, not change outputs silently.  The received values of a chunk are
then formed by one synthesize_rx call, the one implementation of the
channel y = G x + n, and detected together.  Chunks follow the trial
indices across SNR points, so a short grid is detected in one chunk.
This module is a one-way client of the receiver: it imports detector (the
constellations, the kernel and the cascade that synthesis runs too), and
detector never imports it.  A run builds the dense G only for the oracle.
SNR is linear throughout and means P_x / sigma^2 with P_x the mean squared
symbol magnitude of the constellation; dB conversion is a CLI-boundary
concern.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field

import numpy as np

from . import detector as det
from .pattern import FactorChain, build_chain, pattern_groups


_WORD = (1 << 64) - 1
# received values gathered per detection call of run_monte_carlo, across SNR
# points; bounds memory
_CHUNK_VALUES = 1 << 16


class _TrialStreams:
    """One Philox generator keyed by `seed`, moved to the start of any
    trial's stream.

    Philox.jumped(i) advances the 256-bit counter by i * 2^128, so trial i's
    stream starts at counter words (0, 0, lo64(i), hi64(i)) with nothing
    buffered; setting that state gives the same bits without the jump or a
    new generator."""

    def __init__(self, seed: int):
        # Philox truncates a float key, which would run another seed's streams
        bitgen = np.random.Philox(key=operator.index(seed))
        self._bitgen = bitgen
        self._key = tuple(int(k) for k in bitgen.state["state"]["key"])
        self._gen = np.random.Generator(bitgen)

    def seek(self, index: int) -> np.random.Generator:
        index = operator.index(index)
        _check_indices(range(index, index + 1))
        return self._move(index)

    def _move(self, index: int) -> np.random.Generator:
        self._bitgen.state = {
            "bit_generator": "Philox",
            "state": {"counter": (0, 0, index & _WORD, index >> 64), "key": self._key},
            "buffer": (0, 0, 0, 0),
            "buffer_pos": 4,
            "has_uint32": 0,
            "uinteger": 0,
        }
        return self._gen

    def draw(self, index: range, K: int, q: int, normals: np.ndarray) -> np.ndarray:
        """The draws of trials `index` from their own streams: each trial's
        K symbol indices, as gen.integers(0, q, size=K) for 2 <= q <= 2^32,
        returned as (T, K), then its standard normals, as
        gen.standard_normal(out=row), written to the rows of `normals`.

        integers spends one 32-bit half of a raw word per value, so each
        stream is visited once, for its first ceil(K/2) raw words and then
        its normals, and _bounded decodes the chunk's words at once.  A
        trial holding a value the rule rejects is drawn again through
        integers."""
        _check_indices(index)
        bitgen, gen = self._bitgen, self._gen
        n_words = (K + 1) // 2
        words = np.empty((len(index), n_words), dtype=np.uint64)
        for row, i in enumerate(index):
            self._move(i)
            words[row] = bitgen.random_raw(n_words)
            gen.standard_normal(out=normals[row])
        drawn, rejected = _bounded(words, K, q)
        for row in np.flatnonzero(rejected):
            gen = self._move(index[row])
            drawn[row] = gen.integers(0, q, size=K)
            gen.standard_normal(out=normals[row])
        return drawn


def _bounded(words: np.ndarray, K: int, q: int) -> tuple[np.ndarray, np.ndarray]:
    """numpy's bounded integers in [0, q) from raw words (T, ceil(K/2)), by
    Lemire's rule: the first K 32-bit halves u of a row, low half first,
    give (u * q) >> 32 (no product overflows for q <= 2^32).  Also returns,
    per row, whether the rule rejects one of its u, which it does when
    (u * q) mod 2^32 < (2^32 - q) mod q, never for a power-of-two q;
    integers would replace such a u by a further draw."""
    # as little-endian words, the 32-bit halves come low half first on any
    # host; widened before the product, which uint32 operands would wrap
    m = words.astype("<u8", copy=False).view("<u4")[:, :K].astype(np.uint64)
    m *= np.uint64(q)
    threshold = ((1 << 32) - q) % q
    rejected = ((m & 0xFFFFFFFF) < threshold).any(axis=1) if threshold else np.zeros(len(m), bool)
    m >>= 32
    return m.view(np.int64), rejected


def _check_indices(index: range) -> None:
    if not 0 <= index.start <= index.stop <= 1 << 128:
        raise ValueError("trial index must be nonnegative and below 2^128")


def trial_rng(seed: int, index: int) -> np.random.Generator:
    """Independent per-trial stream: Philox keyed by `seed`, jumped by index
    (0 <= index < 2^128)."""
    return _TrialStreams(seed).seek(index)


def synthesize_rx(x, chain: FactorChain, noise):
    """Received values y = G x + n, G = F (x) P^(x)r: of one trial, x (K,)
    and noise (M,), or of a chunk of trials, x (T, K) and noise (T, M).

    G is never formed: the detector's cascade applies P at each of the r
    levels, then F, and one axis transpose restores G's row order.  The
    arithmetic is elementwise per trial, so a chunk's rows are its trials
    synthesized one by one, bit for bit.  The caller draws the noise
    (run_monte_carlo: from each trial's stream, after its symbols); zeros
    give the noiseless model."""
    x, noise = np.asarray(x), np.asarray(noise)
    if x.ndim not in (1, 2) or x.shape[-1] != chain.K:
        raise ValueError("x must have one symbol per user")
    if noise.shape != x.shape[:-1] + (chain.M,):
        raise ValueError("noise must have one value per resource element of each trial")
    X = x.reshape(-1, chain.K).astype(np.result_type(np.float64, x), copy=False)
    for Gx in det._cascade(X, [chain.P.entries] * chain.r + [chain.F.entries], det.OpCounters()):
        pass  # rows come out as the digits (i_r, ..., i_1, i_F), innermost first
    if chain.m_p > 1:  # at m_p = 1 that is G's order, at depths past numpy's axis limit
        digits = Gx.reshape((len(X),) + (chain.m_p,) * chain.r + (chain.m_f,))
        Gx = digits.transpose(0, *range(chain.r + 1, 0, -1))
    return Gx.reshape(noise.shape) + noise


def _user_groups(chain: FactorChain) -> det._Members:
    """pattern_groups(build_chain(chain)) from the factors, as arrays, for an
    invertible P (every chain with a design): user c_f * m_p^r + o has
    column F[:, c_f] (x) column o of P^(x)r, whose columns are distinct and
    nonzero, so users share a column when their F columns are equal and
    they share o or that F column is zero.  Each group of F columns gives a
    block of groups of one size, in the order pattern_groups lists them."""
    inner, blocks, count = chain.m_p**chain.r, {}, 0
    for outer in pattern_groups(chain.F):
        users = np.add.outer(np.array(outer, dtype=np.intp) * inner, np.arange(inner))
        zero = not chain.F.entries[:, outer[0]].any()
        members = users.reshape(1, -1) if zero else users.T
        blocks.setdefault(members.shape[1], []).append((np.arange(count, count + len(members)), members))
        count += len(members)
    return det._Members(count, tuple((np.concatenate([p for p, _ in b]), np.concatenate([m for _, m in b]))
                                     for b in blocks.values()))


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
    cfg: det.DetectionConfig,
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

    Point si owns trials si*trials ... (si+1)*trials - 1, each drawn from its
    own stream with its point's noise variance: the symbols of
    integers(0, q, size=K), then the noise's standard normals (the real
    parts, then the imaginary parts).  Each trial takes its first
    ceil(K/2) raw Philox words and then its normals in one visit; the
    chunk's words are decoded at once by numpy's bounded-integer rule and
    its normals scaled per point, bit for bit what the per-trial calls give.
    The run walks the trial indices in one pass, in chunks of
    _CHUNK_VALUES // M trials that may span points, so the detector and the
    oracle run once per chunk, not once per point; each point's tallies and
    records come from its rows of the chunks.  Detection is row by row, so
    results do not depend on the chunking.  A noise variance, received value
    or detection metric beyond the float range raises ValueError naming the
    first point, in grid order, that fails: a chunk that overflows is run
    again one point at a time to find it."""
    if detector not in ("recursive", "oracle"):
        raise ValueError("detector must be 'recursive' or 'oracle'")
    if trials < 0:
        raise ValueError("trial count must be nonnegative")
    snr_grid = [float(s) for s in snr_grid]
    if any(not s > 0 for s in snr_grid):  # NaN included
        raise ValueError("linear SNRs must be positive")

    chain = cfg.chain
    det.check_receiver_size(chain)
    groups = _user_groups(chain)
    con = cfg.constellation
    q = con.size
    oracle_feasible = q**chain.K <= det.DEFAULT_ORACLE_CAP
    need_oracle = detector == "oracle" or with_oracle
    if detector == "oracle" and not oracle_feasible:
        raise det.HypothesisCapExceeded(
            f"oracle needs {q}^{chain.K} hypotheses, above the cap ({det.DEFAULT_ORACLE_CAP})"
        )
    G = build_chain(chain) if need_oracle and oracle_feasible else None
    bounds = cfg.op_bounds()
    chunk = max(1, _CHUNK_VALUES // chain.M)

    streams = _TrialStreams(seed)  # refuses a seed that is not an integer
    points = []
    if trials == 0:
        return points
    variances = [con.average_power / snr for snr in snr_grid]
    # the run ends before the first point whose noise variance has no float,
    # so a failure at an earlier point is still the one reported
    n_points = next((si for si, v in enumerate(variances) if not math.isfinite(v)), len(snr_grid))
    n_trials = n_points * trials
    rx_dtype = np.result_type(con.symbols, cfg.power_offsets)
    complex_valued = con.is_complex
    check_agreement = with_oracle and oracle_feasible and detector != "oracle"

    def point_rows(index: range):
        """(si, lo, hi) for each point si with trials in `index`: its rows
        lo ... hi - 1 of the chunk."""
        for si in range(index.start // trials, (index.stop - 1) // trials + 1):
            lo, hi = max(index.start, si * trials), min(index.stop, (si + 1) * trials)
            yield si, lo - index.start, hi - index.start

    def run_chunk(index: range):
        """Draw, synthesize and detect the trials of `index`, whose rows may
        belong to several points; per trial, tally its symbol errors, coupled
        errors, ambiguity and agreement with the oracle."""
        if complex_valued:  # the real parts, then the imaginary parts, side by side
            Z = np.empty((len(index), 2 * chain.M))
            N = np.zeros((len(index), chain.M), dtype=rx_dtype)
        else:  # drawn into N and scaled in place
            Z = N = np.empty((len(index), chain.M))
        drawn = streams.draw(index, chain.K, q, Z)
        for si, lo, hi in point_rows(index):
            v = variances[si]
            if v == 0.0:  # zeros, where sqrt(0) * z would give -0 for z < 0
                N[lo:hi] = 0.0
            elif complex_valued:
                N[lo:hi] = math.sqrt(v / 2.0) * (Z[lo:hi, : chain.M] + 1j * Z[lo:hi, chain.M :])
            else:
                N[lo:hi] *= math.sqrt(v)
        X = con.symbols[drawn]
        Y = synthesize_rx(cfg.power_offsets * X, chain, N)

        decisions: dict[str, np.ndarray] = {}
        amb: dict[str, np.ndarray] = {}
        measured = (0, 0)  # the oracle is not part of the op budget
        if detector == "recursive":
            batch = det.detect_batch(Y, cfg)
            decisions["recursive"] = batch.symbols
            amb["recursive"] = batch.ambiguous
            measured = (batch.report.measured_adds, batch.report.measured_muls)
        if need_oracle and oracle_feasible:
            osym, oties = det.brute_force_map_oracle(Y, G, con, power_offsets=cfg.power_offsets)
            decisions["oracle"] = osym
            amb["oracle"] = oties > 1

        got = decisions[detector]
        got_coupled = det.coupled_sums(got, groups, cfg.power_offsets)
        tally = np.zeros((len(index), 4), dtype=np.int64)
        tally[:, 0] = (got != X).sum(axis=1)
        tally[:, 1] = (got_coupled != det.coupled_sums(X, groups, cfg.power_offsets)).sum(axis=1)
        tally[:, 2] = amb[detector]
        if check_agreement:
            oc = det.coupled_sums(decisions["oracle"], groups, cfg.power_offsets)
            tally[:, 3] = (got_coupled == oc).all(axis=1)
        return X, Y, decisions, amb, measured, tally

    def first_failure(index: range, exc: FloatingPointError) -> ValueError:
        """The error a run of one point at a time reports: the first point
        of `index` whose own trials fail, in the chunks such a run takes."""
        failed, reason = index.start // trials, exc
        for si, _, _ in point_rows(index):
            try:
                for lo in range(si * trials, (si + 1) * trials, chunk):
                    run_chunk(range(lo, min(lo + chunk, (si + 1) * trials)))
            except FloatingPointError as point_exc:
                failed, reason = si, point_exc
                break
        return ValueError(
            f"at snr={snr_grid[failed]:.6g} the model's values exceed the float range ({reason})"
        )

    totals = np.zeros((n_points, 4), dtype=np.int64)
    records: list[list[TrialRecord]] = [[] for _ in range(n_points)]
    n_coup = trials * groups.count
    # an overflow anywhere in synthesis or detection would leave a meaningless
    # decision behind, so it stops the run instead of warning
    with np.errstate(over="raise", invalid="raise"):
        for start in range(0, n_trials, chunk):
            index = range(start, min(start + chunk, n_trials))
            try:
                X, Y, decisions, amb, measured, tally = run_chunk(index)
            except FloatingPointError as exc:
                raise first_failure(index, exc) from None
            for si, lo, hi in point_rows(index):
                totals[si] += tally[lo:hi].sum(axis=0)
                if keep_records:
                    records[si].extend(
                        TrialRecord(
                            seed=seed,
                            index=start + row,
                            snr=snr_grid[si],
                            transmitted=X[row],
                            received=Y[row],
                            decisions={name: d[row] for name, d in decisions.items()},
                            ambiguous={name: bool(a[row]) for name, a in amb.items()},
                        )
                        for row in range(lo, hi)
                    )
                if start + hi < (si + 1) * trials:
                    continue  # the point goes on in the next chunk
                sym_err, coup_err, ambiguous, agree = (int(v) for v in totals[si])
                points.append(
                    MonteCarloPoint(
                        snr=snr_grid[si],
                        trials=trials,
                        ser=sym_err / (trials * chain.K),
                        coupled_ser=coup_err / n_coup,
                        ambiguity_rate=ambiguous / trials,
                        coupled_ser_interval=wilson_interval(coup_err, n_coup),
                        oracle_agreement=agree / trials if check_agreement else None,
                        measured_adds=measured[0],
                        measured_muls=measured[1],
                        bound_adds=bounds.total_adds,
                        bound_muls=bounds.total_muls,
                        records=tuple(records[si]),
                    )
                )
    if n_points < len(snr_grid):
        raise ValueError(
            f"at snr={snr_grid[n_points]:.6g} the noise variance exceeds the float range"
        )
    return points
