"""Low-complexity recursive multiuser detection on factorized pattern chains.

The receiver never inverts the full pattern matrix G = F (x) P^(x)r.  Its
combining stage is the linear map L = (x) alpha, applied as a Kronecker mode
product without forming L: a batch of received vectors Y (T, M) is viewed as
(T, m_f, m_p, ..., m_p), and recursion level l contracts the innermost
remaining m_p axis with every class's coefficient vector (signed sums, since
alpha has entries in {-1, 0, +1}), routing class j's outputs to branch j.
After r levels each trial holds m_p^r small regular sets over the outer
factor F, one per branch path, and one vectorised exhaustive MAP sweep over
(trials, paths, hypotheses) decides them all.  With sic set, the last class
m_p - 1 skips the last level's combining and is decided, batched over
trials and parents, by cancelling the siblings' decided unit predictions
out of the raw group equations.

detect_batch is that kernel and the only implementation of the receiver;
final_stage_map (the batched MAP sweep) and sic_enhanced_final (the batched
cancellation) are its final stages.  recursive_detect runs the same stages
on a batch of one and keeps the full trace, which detect_batch does not
hold on to.  _cascade, the mode product with one coefficient matrix per
level, is the one Kronecker operator: the kernel applies L through it, and
simkit.synthesize_rx applies G = F (x) P^(x)r.  Neither is formed; the
dense G is built only for the oracle and the PDMA rate.  The plan of a
pass holds its per-path quantities as exact integer arrays, Kronecker
products of per-class rows, and no object per path.  Every arithmetic
operation is counted by the code that performs it and checked against
closed-form bounds on every run.  The symbol alphabets
(Constellation, BPSK, QPSK) are defined here, beside the configuration, the
sweeps and the oracle that read them.

Scalar-operation accounting model (documented contract):

* combining an m_p-equation group with a vector of nnz nonzero entries in
  {-1, 0, +1} costs nnz - 1 additions and no multiplications;
* one exhaustive final-stage invocation over the outer factor F (m_f rows,
  k_f columns, nnz(F) ones) with alphabet size Q enumerates H = Q^k_f
  equiprobable hypotheses and costs
      N_add = H * (nnz(F) + m_f - 1)
      N_mul = H * (k_f + 2 * m_f)
  per invocation (per-row synthesis, residuals, squares, accumulation);
* a successive-cancellation final stage additionally reconstructs up to
  m_p - 1 previously decided classes into each of the m_f equations, adding
  m_f additions and m_f multiplications per cancelled class.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, reduce
from typing import NamedTuple

import numpy as np

from .combiner import CapExceeded, CombinerDesign
from .pattern import DimensionOverflowError, FactorChain, PatternMatrix, pattern_groups

DEFAULT_HYPOTHESIS_CAP = 4096
DEFAULT_ORACLE_CAP = 1 << 20

# values per temporary array of a hypothesis sweep (the final stage's and
# the oracle's): larger batches are swept a slice of trials at a time, so
# memory stays bounded
_SWEEP_VALUES = 1 << 17

# classes per prediction table of the oracle, rounded down to a product of
# whole groups' class counts so that every table starts on a group boundary
_ORACLE_CHUNK = 1 << 16

# values one chain's receiver may hold: see check_receiver_size
MAX_RECEIVER_VALUES = 1 << 22


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


class DetectionError(ValueError):
    """Detector configuration or input contract violation."""


class SicPredecessorError(DetectionError):
    """The cancellation final stage has no decided class to cancel: the
    chain has no recursion level."""


class OpBoundViolation(DetectionError):
    """Measured operation counts broke the closed-form accounting bounds."""


class HypothesisCapExceeded(CapExceeded):
    """An exhaustive hypothesis sweep would exceed its cap."""


@dataclass
class OpCounters:
    """Running scalar-operation tally for one detection pass."""

    adds: int = 0
    muls: int = 0
    final_invocations: int = 0


@dataclass(frozen=True)
class OpCountBounds:
    """Closed-form per-detection operation bounds for a factor chain."""

    combining_adds: int
    total_adds: int
    total_muls: int
    final_sets: int

    @property
    def final_stage_adds(self) -> int:
        """Additions budgeted per final-stage invocation."""
        return (self.total_adds - self.combining_adds) // self.final_sets

    @property
    def final_stage_muls(self) -> int:
        """Multiplications budgeted per final-stage invocation."""
        return self.total_muls // self.final_sets


def final_stage_costs(
    F: PatternMatrix,
    alphabet_size: int,
    *,
    cancel_classes: int = 0,
) -> tuple[int, int]:
    """Scalar (adds, muls) of one exhaustive final-stage invocation.

    cancel_classes > 0 budgets a successive-cancellation stage that
    reconstructs that many previously decided classes into each equation."""
    if alphabet_size < 2:
        raise ValueError("alphabet size must be at least 2")
    if cancel_classes < 0:
        raise ValueError("cancel_classes must be nonnegative")
    hypotheses = alphabet_size**F.cols
    nnz = int(F.entries.sum())
    n_add = hypotheses * (nnz + F.rows - 1)
    n_mul = hypotheses * (F.cols + 2 * F.rows)
    if cancel_classes:
        n_add += F.rows * cancel_classes
        n_mul += F.rows * cancel_classes
    return n_add, n_mul


def op_count_bounds(chain: FactorChain, n_add_reg: int, n_mul_reg: int) -> OpCountBounds:
    """Bounds for one full detection: r recursions of grouped combining plus
    m_p^r final-stage invocations at the given per-invocation costs."""
    if n_add_reg < 0 or n_mul_reg < 0:
        raise ValueError("per-invocation costs must be nonnegative")
    m_p, m_f, r = chain.m_p, chain.m_f, chain.r
    sets = m_p**r
    combining = r * m_f * sets * (m_p - 1)
    return OpCountBounds(
        combining_adds=combining,
        total_adds=combining + sets * n_add_reg,
        total_muls=sets * n_mul_reg,
        final_sets=sets,
    )


@dataclass(frozen=True)
class OpCountReport:
    """Measured operation counts validated against the closed-form bounds;
    a violation raises OpBoundViolation."""

    measured_adds: int
    measured_muls: int
    final_invocations: int
    bounds: OpCountBounds

    def __post_init__(self):
        if self.measured_adds > self.bounds.total_adds:
            raise OpBoundViolation(
                f"measured additions {self.measured_adds} exceed the bound "
                f"{self.bounds.total_adds}"
            )
        if self.measured_muls > self.bounds.total_muls:
            raise OpBoundViolation(
                f"measured multiplications {self.measured_muls} exceed the "
                f"bound {self.bounds.total_muls}"
            )
        if self.final_invocations != self.bounds.final_sets:
            raise OpBoundViolation(
                f"ran {self.final_invocations} final-stage invocations, "
                f"expected {self.bounds.final_sets}"
            )


@dataclass(frozen=True)
class DetectionConfig:
    """Everything a detection pass needs besides the received vector.

    power_offsets are per-user amplitude scalings (length K, all positive);
    they keep superposed group sums identifiable.  With sic False every
    path runs the plain exhaustive final stage; with sic True the last class
    m_p - 1 is rebuilt at the last recursion by cancelling the other,
    already-decided classes that share its equations out of the raw group
    equations.  That needs a chain of depth r >= 1."""

    chain: FactorChain
    design: CombinerDesign
    constellation: Constellation
    power_offsets: np.ndarray | None = None
    sic: bool = False

    def __post_init__(self):
        if self.design.P != self.chain.P:
            raise DetectionError("combiner design was built for a different inner factor")
        c, K = self.chain, self.chain.K
        if K > np.iinfo(np.intp).max // 8:  # numpy's size limit of a float64 array, views too
            raise DetectionError(f"a chain of {c.k_f}*{c.m_p}^{c.r} users is too large to index")
        if self.power_offsets is None:
            offs = np.broadcast_to(1.0, (K,))  # read-only; stores one value, not K
        else:
            offs = np.array(self.power_offsets, dtype=float)
            if offs.shape != (K,) or not np.all(np.isfinite(offs) & (offs > 0)):
                raise DetectionError("power offsets must be positive and finite, one per user")
            offs.setflags(write=False)
        object.__setattr__(self, "power_offsets", offs)
        if type(self.sic) is not bool:
            raise DetectionError(f"sic must be True or False, got {self.sic!r:.32}")
        if self.sic and c.r == 0:
            raise SicPredecessorError("cancellation needs at least one recursion level")

    def op_bounds(self) -> OpCountBounds:
        """Closed-form per-detection operation bounds of this configuration;
        sic budgets the cancellation final stage."""
        costs = final_stage_costs(
            self.chain.F,
            self.constellation.size,
            cancel_classes=(self.chain.m_p - 1) if self.sic else 0,
        )
        return op_count_bounds(self.chain, *costs)

    @cached_property
    def _plan(self) -> _Plan:
        # built on first detection, so a size or hypothesis cap surfaces there
        return _build_plan(self)


@dataclass(frozen=True)
class RecursionRecord:
    """Snapshot of one recursion level for trace inspection."""

    level: int
    super_groups_in: int
    equations_per_group: int
    group_size: int
    paths: tuple[tuple[int, ...], ...]
    combined: tuple[np.ndarray, ...]
    weights: tuple[int, ...]
    gain_products: tuple[Fraction, ...]
    noise_multipliers: tuple[int, ...]
    adds_so_far: int
    muls_so_far: int


@dataclass(frozen=True)
class FinalSet:
    """One solved regular set over the outer factor."""

    path: tuple[int, ...]
    users: tuple[int, ...]
    values: np.ndarray
    weight: int
    gain: Fraction
    noise_multiplier: int
    used_sic: bool
    decided: tuple
    unit_prediction: np.ndarray
    tie_count: int


@dataclass(frozen=True)
class DetectionTrace:
    recursions: tuple[RecursionRecord, ...]
    final_sets: tuple[FinalSet, ...]


@dataclass(frozen=True)
class DetectionResult:
    symbols: np.ndarray
    trace: DetectionTrace
    report: OpCountReport
    ambiguous: bool


class BatchDetection(NamedTuple):
    """One detection pass over T received vectors; op counts in the report
    are per detection."""

    symbols: np.ndarray  # (T, K) decided symbols
    ambiguous: np.ndarray  # (T,) some final set had tied hypotheses
    report: OpCountReport


def coupled_sums(symbols, groups, power_offsets) -> np.ndarray:
    """Offset-weighted symbol sum per duplicate-column user group.

    Users sharing a pattern column are only jointly observable; their
    offset-weighted sum is the quantity a detector can actually decide.
    symbols may hold one trial (K,) or a batch (T, K); the group axis is
    last."""
    weighted = np.asarray(power_offsets) * np.asarray(symbols)
    out = np.empty(weighted.shape[:-1] + (len(groups),), dtype=weighted.dtype)
    by_size: dict[int, list[int]] = {}
    for gi, g in enumerate(groups):
        by_size.setdefault(len(g), []).append(gi)
    for gis in by_size.values():
        members = np.array([groups[gi] for gi in gis])
        out[..., gis] = weighted[..., members].sum(axis=-1)
    return out


_HYP_CACHE: dict[tuple[int, int], np.ndarray] = {}


def _hypothesis_indices(q: int, k: int) -> np.ndarray:
    """All Q^k symbol-index tuples, first position most significant."""
    key = (q, k)
    if key not in _HYP_CACHE:
        _HYP_CACHE[key] = np.array(list(itertools.product(range(q), repeat=k)), dtype=np.int64)
    return _HYP_CACHE[key]


class _Sweep(NamedTuple):
    """Exhaustive MAP hypotheses of S regular sets w_s * F (offs_s . x) that
    share the outer factor F and the constellation."""

    weights: np.ndarray  # (S,) exact int64 w_s
    hyp: np.ndarray  # (H, k_f) symbol indices, first position most significant
    unit: np.ndarray  # (S, H, m_f) noiseless F (offs_s . x) per hypothesis
    wunit: np.ndarray  # (S, H, m_f) the same times the set's |weight|
    negative: np.ndarray  # (S,) w_s < 0: the set's equations are negated first
    positions: np.ndarray  # (S,) index of each set in path order
    adds: int  # per invocation, by the accounting model
    muls: int


def _sweep(F: PatternMatrix, constellation: Constellation, offsets, weights, positions) -> _Sweep:
    """Hypothesis tables for S sets with nonzero weights (S,) and per-set
    user offsets (S, k_f)."""
    q, k_f = constellation.size, F.cols
    n_hyp = q**k_f
    if n_hyp > DEFAULT_HYPOTHESIS_CAP:
        raise HypothesisCapExceeded(
            f"final stage needs {q}^{k_f} = {n_hyp} hypotheses, above the cap ({DEFAULT_HYPOTHESIS_CAP})"
        )
    hyp = _hypothesis_indices(q, k_f)
    X = constellation.symbols[hyp]  # (H, k_f)
    Ft = F.entries.T.astype(float)
    # one table per distinct offsets row: with unit offsets every set shares
    # one.  Rows are compared as raw bytes, which for positive finite offsets
    # is equality of values, by one 1-D sort: unique(axis=0) is ~8x slower
    offsets = np.ascontiguousarray(offsets, dtype=float)
    rows = offsets.view(np.dtype((np.void, offsets.itemsize * k_f))).reshape(-1)
    distinct, inverse = np.unique(rows, return_inverse=True)
    distinct = distinct.view(float).reshape(-1, k_f)
    tables = np.array([(X * offs) @ Ft for offs in distinct]).reshape(len(distinct), n_hyp, F.rows)
    unit = tables[inverse]
    wunit = np.abs(weights).astype(float)[:, None, None] * unit
    n_add = n_hyp * (int(F.entries.sum()) + F.rows - 1)
    return _Sweep(weights, hyp, unit, wunit, weights < 0, positions, n_add, n_hyp * (k_f + 2 * F.rows))


class _Solve(NamedTuple):
    """A sweep's sets decided over T trials."""

    sweep: _Sweep
    z: np.ndarray  # (T, S, m_f) inputs, before any sign flip
    best: np.ndarray  # (T, S) winning hypothesis
    ties: np.ndarray  # (T, S) hypotheses sharing the best score
    units: np.ndarray  # (T, S, m_f) the winners' F (offs . x), before the weight


def final_stage_map(sweep: _Sweep, z, counters: OpCounters) -> _Solve:
    """Exhaustive MAP decision of every (trial, set) of a sweep for inputs
    z (T, S, m_f).

    Hypotheses are equiprobable, so the MAP decision is the nearest one and
    does not depend on the noise variance.  A set with a negative weight is
    decided on its negated equations (the same equations, with a positive
    weight).  argmin takes the first occurrence, so the lowest hypothesis
    index wins ties; the tie count is the number of hypotheses sharing the
    best score."""
    T, S = z.shape[:2]
    flipped = np.where(sweep.negative[:, None], -z, z)
    best = np.empty((T, S), dtype=np.intp)
    ties = np.empty((T, S), dtype=np.intp)
    step = max(1, _SWEEP_VALUES // max(1, sweep.wunit.size))
    for lo in range(0, T, step):
        score = (np.abs(flipped[lo : lo + step, :, None, :] - sweep.wunit) ** 2).sum(axis=-1)
        b = score.argmin(axis=-1)
        best[lo : lo + step] = b
        ties[lo : lo + step] = (score == np.take_along_axis(score, b[..., None], -1)).sum(axis=-1)
    counters.adds += T * S * sweep.adds
    counters.muls += T * S * sweep.muls
    counters.final_invocations += T * S
    return _Solve(sweep, z, best, ties, sweep.unit[np.arange(S), best])


def _cascade(Y, levels, counters: OpCounters):
    """Yield each level's outputs for a batch Y (T, N): the Kronecker mode
    products of Y with one matrix per level, entries in {-1, 0, +1}.

    A level with a C x n matrix maps (T, P, E) to (T, P * C, E / n): each
    consecutive n-group of a path's values becomes one signed sum per row,
    summed left to right (a zero row gives zeros), and row c's sums form
    child path (parent, c), so the first level contracts the innermost
    Kronecker axis.  Combining passes the combined classes' rows of alpha
    per level; synthesis passes P at each of the r levels, then F."""
    state = Y.reshape(Y.shape[0], 1, -1)
    for A in levels:
        T, P, E = state.shape
        C, n = A.shape
        blocks = state.reshape(T, P, E // n, n)
        out = np.empty((T, P, C, E // n), dtype=state.dtype)
        for c, row in enumerate(A):
            nonzero = np.flatnonzero(row)
            acc = 0
            for t, i in enumerate(nonzero):
                col = blocks[..., i]
                if t == 0:
                    acc = col if row[i] > 0 else -col
                else:
                    acc = acc + col if row[i] > 0 else acc - col
            out[:, :, c] = acc
            counters.adds += T * P * (E // n) * max(nonzero.size - 1, 0)
        state = out.reshape(T, P * C, E // n)
        yield state


def sic_enhanced_final(plan: _Plan, parents, plain: _Solve, counters: OpCounters) -> _Solve:
    """Decide class m_p - 1 of every (trial, last-level parent) by
    cancellation instead of combining.

    parents (T, Pp, m_f * m_p) are the last level's inputs and `plain` the
    sets it combined, in kernel order: class jp < m_p - 1 of a parent sits
    at position jp.  The rows of each parent's m_f groups that carry class
    m_p - 1 are summed (gain: its column weight instead of the combining
    gain), then each class jp sharing `shared` of those rows, in ascending
    jp, is reconstructed from its unit prediction and subtracted;
    final_stage_map decides the result."""
    T, n_parents = parents.shape[:2]
    m_f = plain.units.shape[-1]
    blocks = parents.reshape(T, n_parents, m_f, -1)
    decided = plain.units.reshape(T, n_parents, -1, m_f)
    step = plan.sic
    zeta = blocks[..., step.rows].sum(axis=-1)
    counters.adds += zeta.size * (len(step.rows) - 1)
    for jp, shared in step.cancel:
        zeta = zeta - (plan.parent_weights * shared)[:, None] * decided[:, :, jp]
        counters.adds += zeta.size
        counters.muls += zeta.size
    return final_stage_map(step.sweep, zeta, counters)


class _SicStep(NamedTuple):
    rows: np.ndarray  # the rows of P that carry class m_p - 1
    cancel: tuple[tuple[int, int], ...]  # (class, rows shared with m_p - 1)
    sweep: _Sweep  # over the last level's parents


class _Plan(NamedTuple):
    """Static structure of a configuration's detection pass."""

    alphas: tuple[np.ndarray, ...]  # per level, the rows of the classes it combines
    plain: _Sweep  # the sets reached by combining at every level
    parent_weights: np.ndarray  # weights of the last level's parents (SIC)
    sic: _SicStep | None
    users: np.ndarray  # (m_p^r, k_f) users of each set in path order


def check_receiver_size(chain: FactorChain) -> None:
    """Refuse a chain whose receiver would hold more than
    MAX_RECEIVER_VALUES values: one trial's M + K values.  The plan's
    per-path arrays grow with K as well."""
    c = chain
    if c.M + c.K > MAX_RECEIVER_VALUES:
        # M and K in factored form: at depth r their decimal digits grow without bound
        raise DimensionOverflowError(f"the receiver of a {c.m_f}*{c.m_p}^{c.r} x {c.k_f}*{c.m_p}^{c.r} chain "
                                     f"would hold more than {MAX_RECEIVER_VALUES} values; refuse to build")


def _per_path(row, alphas) -> np.ndarray:
    """Products of `row` (one integer per class) along every path through
    the levels whose alpha rows are given, in path order: the Kronecker
    product row (x) row (x) ..., each factor cut to its level's classes.

    Exact in int64: every |row| entry (a weight or ||alpha_j||^2) is at most
    m_p, and check_receiver_size keeps m_p^r below 2^22."""
    out = np.ones(1, np.int64)
    for alpha in alphas:
        out = np.multiply.outer(out, row[: len(alpha)]).ravel()
    return out


def _build_plan(cfg: DetectionConfig) -> _Plan:
    chain, design = cfg.chain, cfg.design
    m_p, r = chain.m_p, chain.r
    check_receiver_size(chain)
    alphas = tuple(design.alpha[: m_p - 1 if cfg.sic and level == r else m_p] for level in range(1, r + 1))
    weights = np.array(design.weights, dtype=np.int64)

    # paths in branch-lexicographic order, the first branch the most
    # significant digit; branch t is the inner-factor digit of place value
    # m_p^t, and the outer-factor column c_f adds c_f * m_p^r
    inner = np.zeros(1, np.int64)
    for t in range(r):
        inner = np.add.outer(inner, m_p**t * np.arange(m_p)).ravel()
    n_paths = m_p**r
    users = inner[:, None] + n_paths * np.arange(chain.k_f)
    cancelled = cfg.sic & (np.arange(n_paths) % m_p == m_p - 1)

    def sweep(set_weights, positions):
        return _sweep(chain.F, cfg.constellation, cfg.power_offsets[users[positions]], set_weights, positions)

    parent_weights = _per_path(weights, alphas[:-1])
    sic = None
    if cfg.sic:
        # alpha P = diag(w) with w != 0 makes P invertible, so class j
        # carries some row; every other class was combined at the last level
        j, E = m_p - 1, chain.P.entries
        rows = np.flatnonzero(E[:, j])
        cancel = tuple((jp, int(E[rows, jp].sum())) for jp in range(j) if E[rows, jp].any())
        sic = _SicStep(rows, cancel, sweep(parent_weights * rows.size, np.flatnonzero(cancelled)))
    return _Plan(
        alphas=alphas,
        plain=sweep(_per_path(weights, alphas), np.flatnonzero(~cancelled)),
        parent_weights=parent_weights,
        sic=sic,
        users=users,
    )


def _stages(Y, cfg: DetectionConfig, counters: OpCounters):
    """The stages of one detection pass over Y (T, M), as they run.

    Yields each recursion level's outputs (T, paths, equations per path),
    then, last, (solves, batch): the final stage's solves, the plain sweep
    first and then the cancellation's, if any, and the BatchDetection they
    decide.  Op counts accumulate in `counters` as the work is done."""
    chain, plan = cfg.chain, cfg._plan
    T = Y.shape[0]
    Y = Y.astype(np.result_type(Y.dtype, np.float64), copy=False)
    parents = last = Y.reshape(T, 1, -1)
    for out in _cascade(Y, plan.alphas, counters):
        parents, last = last, out
        yield out
    plain = final_stage_map(plan.plain, last, counters)
    solves = [plain]
    if plan.sic is not None:
        solves.append(sic_enhanced_final(plan, parents, plain, counters))
    con = cfg.constellation
    symbols = np.empty((T, chain.K), dtype=con.symbols.dtype)
    ambiguous = np.zeros(T, dtype=bool)
    for solve in solves:
        sweep = solve.sweep
        symbols[:, plan.users[sweep.positions].reshape(-1)] = con.symbols[sweep.hyp[solve.best]].reshape(T, -1)
        ambiguous |= (solve.ties > 1).any(axis=1)
    symbols.setflags(write=False)
    report = OpCountReport(
        measured_adds=counters.adds // T,
        measured_muls=counters.muls // T,
        final_invocations=counters.final_invocations // T,
        bounds=cfg.op_bounds(),
    )
    yield solves, BatchDetection(symbols, ambiguous, report)


def detect_batch(Y, cfg: DetectionConfig) -> BatchDetection:
    """Detect all K users of every row of Y (T, M) in one pass: the combining
    cascade, then final_stage_map over all m_p^r final sets of all trials
    and, with sic set, sic_enhanced_final (see the module docstring).  Op
    counts are tallied over the batch as the work is done and reported per
    detection."""
    Y = np.asarray(Y)
    if Y.ndim != 2 or Y.shape[1] != cfg.chain.M:
        raise ValueError("Y must hold one row of M resource-element values per trial")
    if Y.shape[0] == 0:
        raise ValueError("the batch must hold at least one trial")
    for stage in _stages(Y, cfg, OpCounters()):
        pass  # the levels' outputs go by unkept; the last stage holds the result
    return stage[1]


def recursive_detect(y, cfg: DetectionConfig) -> DetectionResult:
    """Detect all K users from y by recursive combining plus small MAP sets.

    The kernel's stages on a batch of one, with the full trace: level l
    starts from m_p^(l-1) super-groups of m_f * m_p^(r-l+1) equations, and
    final sets come out sorted by path.  With sic set, class m_p - 1 of
    each last-level super-group is decided by cancellation against the
    sibling decisions."""
    chain = cfg.chain
    y = np.asarray(y)
    if y.shape != (chain.M,):
        raise ValueError("y must have one value per resource element")
    plan, design = cfg._plan, cfg.design
    # the trace's per-path quantities, derived here since the plan keeps
    # only the final weights: CombinerDesign enforces g_j = w_j^2 / ||alpha_j||^2,
    # so a path's gain product is its weight squared over its noise multiplier
    weights = np.array(design.weights, dtype=np.int64)
    norms = (design.alpha * design.alpha).sum(axis=1)
    counters = OpCounters()
    stages = _stages(y[None], cfg, counters)
    records = []
    for level, out in zip(range(1, chain.r + 1), stages):
        alphas = plan.alphas[:level]
        w, mult = _per_path(weights, alphas).tolist(), _per_path(norms, alphas).tolist()
        records.append(
            RecursionRecord(
                level=level,
                super_groups_in=chain.m_p ** (level - 1),
                equations_per_group=chain.M // chain.m_p ** (level - 1),
                group_size=chain.m_p,
                paths=tuple(itertools.product(*(range(len(a)) for a in alphas))),
                combined=tuple(out[0]),
                weights=tuple(w),
                gain_products=tuple(Fraction(x * x, n) for x, n in zip(w, mult)),
                noise_multipliers=tuple(mult),
                adds_so_far=counters.adds,
                muls_so_far=counters.muls,
            )
        )
    solves, batch = next(stages)
    symbols = batch.symbols[0]
    paths = list(itertools.product(range(chain.m_p), repeat=chain.r))
    final_sets = [None] * len(plan.users)  # in path order
    for solve in solves:
        sweep = solve.sweep
        used_sic = sweep is not plan.plain
        # a cancelled set sums its parent's d rows that carry the class
        mults = (_per_path(norms, plan.alphas[:-1]) * len(plan.sic.rows) if used_sic
                 else _per_path(norms, plan.alphas))
        for i, (p, w, mult) in enumerate(zip(sweep.positions, sweep.weights.tolist(), mults.tolist())):
            users = plan.users[p]
            final_sets[p] = FinalSet(
                path=paths[p],
                users=tuple(users.tolist()),
                values=solve.z[0, i].copy(),  # at r = 0 a view of y
                weight=w,
                gain=Fraction(w * w, mult),
                noise_multiplier=mult,
                used_sic=used_sic,
                decided=tuple(symbols[users]),
                unit_prediction=solve.units[0, i],
                tie_count=int(solve.ties[0, i]),
            )
    return DetectionResult(
        symbols=symbols,
        trace=DetectionTrace(recursions=tuple(records), final_sets=tuple(final_sets)),
        report=batch.report,
        ambiguous=bool(batch.ambiguous[0]),
    )


class _Classes(NamedTuple):
    """The oracle's classes over one group of users: per class, its number
    of members and the term its lowest-index member adds to the hypothesis
    index, whose digits are that member's symbol indices."""

    users: tuple[int, ...]
    mult: np.ndarray
    term: np.ndarray


def _group_classes(scaled: np.ndarray, users: tuple[int, ...], stride: np.ndarray,
                   merge: bool) -> _Classes | None:
    """Classes of the digit tuples of `users`: one per tuple, or with
    `merge` one per distinct sum of their scaled symbols, in ascending order
    of the sum.  None when a merged group has more than _ORACLE_CHUNK sums.

    The tuples are extended one user at a time.  With `merge`, only the
    lowest-index tuple of each partial sum is kept: the lowest-index tuple
    of a sum begins with the lowest-index tuple of its partial sum (else
    swapping that in would give a lower one), and there are never more
    partial sums than full ones."""
    q = scaled.shape[1]
    total, mult, term = np.zeros(1, scaled.dtype), np.ones(1, np.int64), np.zeros(1, np.int64)
    for k in users:
        total = (total[:, None] + scaled[k]).ravel()
        mult = np.repeat(mult, q)
        term = (term[:, None] + stride[k] * np.arange(q)).ravel()
        if merge:
            order = np.lexsort((term, total))
            total, mult, term = total[order], mult[order], term[order]
            first = np.flatnonzero(np.concatenate(([True], total[1:] != total[:-1])))
            total, mult, term = total[first], np.add.reduceat(mult, first), term[first]
            if len(term) > _ORACLE_CHUNK:
                return None
    return _Classes(users, mult, term)


def brute_force_map_oracle(
    y,
    G: PatternMatrix,
    constellation: Constellation,
    power_offsets=None,
) -> tuple[np.ndarray, int | np.ndarray]:
    """Joint MAP over all Q^K hypotheses on the full pattern matrix.

    Exponential reference detector used to validate the recursive one.
    Symbols are equiprobable, so the MAP hypothesis is the nearest one,
    whatever the noise variance.  y holds one received vector (M,) or a
    batch (T, M).  Raises HypothesisCapExceeded above DEFAULT_ORACLE_CAP
    hypotheses rather than attempt an infeasible sweep.  Returns (symbols,
    tie count), of shapes (K,) and scalar for one vector or (T, K) and (T,)
    for a batch, with ties broken toward the lowest hypothesis index (first
    symbol most significant), matching the final-stage convention.

    Hypotheses are scored by class: a class is a set of hypotheses whose
    prediction tables are bit-identical, so it is scored once.  Users that
    share a pattern column (pattern_groups) are seen only through the sum
    of their scaled symbols, and when every scaled symbol is a real integer
    and the users' largest magnitudes sum to at most 2^53, every partial
    sum of a prediction is an exact integer, so the hypotheses with the
    same sum in every group form a class.  Otherwise every user is a group
    of its own and every hypothesis its own class, as is every user of a
    group with more sums than one table holds.  A class is represented by
    its lowest-index member, which is the lowest-index member of each
    group's sum, since the index is a sum of per-group terms.  The tie
    count adds up the members of the best-scoring classes and the decision
    is the lowest representative among them, compared by index because
    class order is not index order; both are those of scoring every
    hypothesis, bit for bit.  On the 9x18 BPSK chain with unit offsets,
    3^9 = 19,683 classes stand for the 2^18 hypotheses: a call on 8 trials
    peaks at about 3.1 MiB of traced allocations, and scoring costs about
    0.17 ms per trial, against 2.9 ms with non-integer offsets (2 vCPUs).

    The classes are the Kronecker product of the groups' classes, so they
    need no index arithmetic: they are taken in tables of at most
    _ORACLE_CHUNK, and inside a table the leading groups hold a constant
    class (one scalar per user) while each trailing group runs its classes
    on an axis of its own, in C order.  A user of a trailing group is a
    short vector on its group's axis, its scaled symbol in each class's
    representative.  Row m of a table adds the constant users of row m,
    then the vectors of its other users in ascending user order, by
    broadcasting; the same additions in the same order as when every user
    had a column over the whole table.  Row m does not depend on the axes
    after the last one that its users lie on, so it is held over the
    leading axes up to the last one that rows 0..m reach, and every trial
    is scored by accumulating the squared residual of one row at a time
    over those axes, a block of trials at a time.  When a row reaches
    later axes, the running score is widened by a broadcast add, and axes
    that no row reaches are widened into at the end: every class still
    gets the sum of its rows' squared residuals, added in row order.  On
    the 9x18 chain with unit offsets the rows are scored over 243, 729,
    729, 6,561 and then 19,683 classes, 106,677 entries per trial instead
    of 9 x 19,683.  Memory stays at the rows and one bounded score block
    and its residual."""
    y = np.asarray(y)
    if y.shape[-1:] != (G.rows,) or y.ndim > 2:
        raise ValueError("y must have one value per resource element")
    Y = y.reshape(-1, G.rows)
    q, K = constellation.size, G.cols
    n_hyp = q**K
    if n_hyp > DEFAULT_ORACLE_CAP:
        raise HypothesisCapExceeded(
            f"oracle needs {q}^{K} = {n_hyp} hypotheses, above the cap ({DEFAULT_ORACLE_CAP})"
        )
    offs = np.ones(K) if power_offsets is None else np.asarray(power_offsets, dtype=float)
    if offs.shape != (K,):
        raise ValueError("power offsets must have one entry per user")
    scaled = constellation.symbols * offs[:, None]  # (K, Q): user k's symbol values
    stride = q ** np.arange(K - 1, -1, -1, dtype=np.int64)
    merge = (
        scaled.dtype.kind == "f"
        and bool(np.isfinite(scaled).all())
        and bool((scaled == np.round(scaled)).all())
        and sum(int(v) for v in np.abs(scaled).max(axis=1)) <= 2**53
    )
    classes = []
    for users in pattern_groups(G) if merge else [(k,) for k in range(K)]:
        found = _group_classes(scaled, users, stride, merge)
        if found is None:  # more sums than one table holds: enumerate user by user
            classes += [_group_classes(scaled, (k,), stride, False) for k in users]
        else:
            classes.append(found)
    n_vary, chunk = 0, 1
    while n_vary < len(classes) and chunk * len(classes[-1 - n_vary].term) <= _ORACLE_CHUNK:
        n_vary += 1
        chunk *= len(classes[-n_vary].term)
    fixed, varying = classes[: len(classes) - n_vary], classes[len(classes) - n_vary :]
    # axis a of a table runs the classes of varying[a]; a user of that group
    # holds its scaled symbol per class on that axis, of shape (n_a, 1, ..., 1)
    axes = [len(c.term) for c in varying]
    axis, vector = {}, {}
    # per class of a table: its representative's index term and its members;
    # unmerged, the varying users are the last ones, so these are the class's
    # position and one, and are not built.  Both are exact integers, built
    # from the last group up so that the long axis is the inner one
    vary_idx, vary_mult = (np.zeros(1, np.int64), np.ones(1, np.int64)) if merge else (None, None)
    for a, c in reversed(list(enumerate(varying))):
        for k in c.users:
            axis[k] = a
            vector[k] = scaled[k, c.term // stride[k] % q].reshape((-1,) + (1,) * (n_vary - 1 - a))
        if merge:
            vary_idx = (c.term[:, None] + vary_idx).ravel()
            vary_mult = (c.mult[:, None] * vary_mult).ravel()
    # row m is held and scored over the leading axes up to the last one that
    # rows 0..m reach: neither its prediction nor their score depends on the
    # axes after it
    row_users, shapes, top = [], [], -1
    for users in (np.flatnonzero(row).tolist() for row in G.entries):
        vary_users = [k for k in users if k in axis]
        top = max([top] + [axis[k] for k in vary_users])
        row_users.append(([k for k in users if k not in axis], vary_users))
        shapes.append(tuple(axes[: top + 1]) + (1,) * (n_vary - 1 - top))
    widths = [math.prod(shape) for shape in shapes]
    pred = [np.empty(width, dtype=scaled.dtype) for width in widths]
    T = Y.shape[0]
    step = max(1, _SWEEP_VALUES // chunk)
    score = np.empty(min(step, T) * chunk)
    resid = np.empty(score.shape, dtype=np.result_type(Y, scaled))
    magnitude = np.empty(score.shape) if resid.dtype.kind == "c" else None
    best_score = np.full(T, math.inf)
    best_idx = np.full(T, -1, dtype=np.int64)
    ties = np.zeros(T, dtype=np.int64)
    for n_table, pick in enumerate(itertools.product(*(range(len(c.term)) for c in fixed))):
        value = {
            k: scaled[k, c.term[i] // stride[k] % q] for c, i in zip(fixed, pick) for k in c.users
        }
        for m, (const_users, vary_users) in enumerate(row_users):
            if n_table and not const_users:
                continue  # varying users only: the row is the same in every table
            total = reduce(operator.add, [value[k] for k in const_users], 0)
            for k in vary_users:
                total = total + vector[k]
            pred[m].reshape(shapes[m])[...] = total
        const_idx = sum(int(c.term[i]) for c, i in zip(fixed, pick))
        const_mult = math.prod(int(c.mult[i]) for c, i in zip(fixed, pick))
        for lo in range(0, T, step):
            rows = slice(lo, lo + step)
            n = min(step, T - lo)
            for m, width in enumerate(widths):
                d = resid[: n * width].reshape(n, width)
                np.subtract(Y[rows, m, None], pred[m], out=d)
                r = d if magnitude is None else np.abs(d, out=magnitude[: n * width].reshape(n, width))
                if m == 0:
                    s = np.multiply(r, r, out=score[: n * width].reshape(n, width))
                    continue
                np.multiply(r, r, out=r)
                if width == s.shape[1]:
                    s += r
                else:  # the row reaches later axes: widen the running score,
                    # in r because the wider score would overlap the narrower
                    wide = r.reshape(n, s.shape[1], -1)
                    np.add(s[:, :, None], wide, out=wide)
                    s = score[: n * width].reshape(n, width)
                    s[...] = r
            if s.shape[1] < chunk:  # axes that no row reaches (numpy copies
                # the narrower score first, as it overlaps the wider)
                wide = score[: n * chunk].reshape(n, s.shape[1], -1)
                wide[...] = s[:, :, None]
                s = wide.reshape(n, chunk)
            first = s.argmin(axis=-1)
            low = s[np.arange(n), first]
            tied = s == low[:, None]
            if not merge:  # the first minimum is the lowest tied hypothesis
                count, rep = tied.sum(axis=-1), first
            else:
                count, rep = vary_mult[first], vary_idx[first]
                many = np.flatnonzero(tied.sum(axis=-1) > 1)  # trials with tied classes
                if many.size:
                    tied = tied[many]
                    count[many] = tied @ vary_mult
                    rep[many] = np.where(tied, vary_idx, n_hyp).min(axis=-1)
            count, rep = const_mult * count, const_idx + rep
            # per trial: a lower minimum restarts the count and the decision;
            # an equal one adds to the count of an earlier table and keeps
            # the lower of the two representatives
            better = low < best_score[rows]
            equal = low == best_score[rows]
            ties[rows] = np.where(better, count, ties[rows] + equal * count)
            kept = np.where(equal, np.minimum(best_idx[rows], rep), best_idx[rows])
            best_idx[rows] = np.where(better, rep, kept)
            best_score[rows] = np.where(better, low, best_score[rows])
    symbols = constellation.symbols[(best_idx[:, None] // stride) % q]
    if y.ndim == 1:
        return symbols[0], int(ties[0])
    return symbols, ties
