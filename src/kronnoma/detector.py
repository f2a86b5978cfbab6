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


class _Members(NamedTuple):
    """Duplicate-column user groups as arrays: per distinct group size,
    the groups' positions (n,) and their members (n, size), each group's
    in ascending order."""

    count: int
    by_size: tuple[tuple[np.ndarray, np.ndarray], ...]


def _members(groups) -> _Members:
    """_Members of groups given one tuple of users each (pattern_groups)."""
    sizes = np.array([len(g) for g in groups], dtype=np.intp)
    by_size = []
    for size in np.unique(sizes).tolist():
        positions = np.flatnonzero(sizes == size)
        by_size.append((positions, np.array([groups[i] for i in positions.tolist()], dtype=np.intp)))
    return _Members(len(groups), tuple(by_size))


def coupled_sums(symbols, groups, power_offsets) -> np.ndarray:
    """Offset-weighted symbol sum per duplicate-column user group.

    Users sharing a pattern column are only jointly observable; their
    offset-weighted sum is the quantity a detector can actually decide.
    groups is pattern_groups output, one tuple of users per group, or the
    same groups as member arrays (_Members), which simkit builds once per run.
    symbols may hold one trial (K,) or a batch (T, K); the group axis is
    last."""
    members = groups if isinstance(groups, _Members) else _members(groups)
    weighted = np.asarray(power_offsets) * np.asarray(symbols)
    out = np.empty(weighted.shape[:-1] + (members.count,), dtype=weighted.dtype)
    for positions, users in members.by_size:
        out[..., positions] = weighted[..., users].sum(axis=-1)
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
    tables: np.ndarray  # (D, H, m_f) noiseless F (offs . x) per hypothesis, per distinct offsets row
    table: np.ndarray  # (S,) each set's row of tables
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
    n_add = n_hyp * (int(F.entries.sum()) + F.rows - 1)
    return _Sweep(weights, hyp, tables, inverse.reshape(-1), weights < 0, positions, n_add,
                  n_hyp * (k_f + 2 * F.rows))


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
    best score.  The sets are swept in blocks of sets and trials whose
    scores number at most _SWEEP_VALUES (at least one set and one trial),
    each set's |w| times its table formed per block of sets."""
    T, S = z.shape[:2]
    flipped = np.where(sweep.negative[:, None], -z, z)
    best = np.empty((T, S), dtype=np.intp)
    ties = np.empty((T, S), dtype=np.intp)
    per_set = math.prod(sweep.tables.shape[1:])  # S = 0 (SIC with m_p = 1) has no table
    n_sets = max(1, min(S, _SWEEP_VALUES // per_set))
    step = max(1, _SWEEP_VALUES // (n_sets * per_set))
    magnitude = np.abs(sweep.weights).astype(float)
    for first in range(0, S, n_sets):
        sets = slice(first, first + n_sets)
        wunit = magnitude[sets, None, None] * sweep.tables[sweep.table[sets]]
        for lo in range(0, T, step):
            score = (np.abs(flipped[lo : lo + step, sets, None, :] - wunit) ** 2).sum(axis=-1)
            b = score.argmin(axis=-1)
            best[lo : lo + step, sets] = b
            ties[lo : lo + step, sets] = (score == np.take_along_axis(score, b[..., None], -1)).sum(axis=-1)
    counters.adds += T * S * sweep.adds
    counters.muls += T * S * sweep.muls
    counters.final_invocations += T * S
    return _Solve(sweep, z, best, ties, sweep.tables[sweep.table, best])


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
    of members, the sum of its members' scaled symbols, and the term its
    lowest-index member adds to the hypothesis index, whose digits are that
    member's symbol indices."""

    users: tuple[int, ...]
    mult: np.ndarray
    sums: np.ndarray
    term: np.ndarray


def _group_classes(rows: np.ndarray, merge: bool) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
    """Classes of the digit tuples of a group whose users' scaled symbols
    are `rows` (one row per user, in user order): one per tuple, or with
    `merge` one per distinct sum of their scaled symbols, in ascending
    order of the sum.  Returns per class the digits of its lowest tuple,
    its number of members and its sum; None when a merged group has more
    than _ORACLE_CHUNK sums.  Each sum adds the users' symbols in user
    order, the first one alone.

    The tuples are extended one user at a time.  With `merge`, only the
    lowest tuple of each partial sum is kept: the lowest tuple of a sum
    begins with the lowest tuple of its partial sum (else swapping that in
    would give a lower one), and there are never more partial sums than
    full ones."""
    q = rows.shape[1]
    total, mult, code = rows[0], np.ones(q, np.int64), np.arange(q)
    for i, row in enumerate(rows):
        if i:
            total = (total[:, None] + row).ravel()
            mult = np.repeat(mult, q)
            code = (code[:, None] * q + np.arange(q)).ravel()  # the tuple in base q
        if merge:
            order = np.lexsort((code, total))
            total, mult, code = total[order], mult[order], code[order]
            first = np.flatnonzero(np.concatenate(([True], total[1:] != total[:-1])))
            total, mult, code = total[first], np.add.reduceat(mult, first), code[first]
            if len(code) > _ORACLE_CHUNK:
                return None
    return code[:, None] // q ** np.arange(len(rows) - 1, -1, -1) % q, mult, total


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
    hypotheses rather than attempt an infeasible sweep, and ValueError for
    a y holding NaN or an infinity, which no hypothesis is nearest to, and
    for power offsets that are not all finite.
    Returns (symbols, tie count), of shapes (K,) and scalar for one vector
    or (T, K) and (T,) for a batch, with ties broken toward the lowest
    hypothesis index (first symbol most significant), matching the
    final-stage convention.

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
    group's sum, since the index is a sum of per-group terms.  Groups
    whose users have the same scaled symbols have the same classes, so
    each distinct group's are built once per call, and a group's index
    terms are their digits times its users' strides.  The tie
    count adds up the members of the best-scoring classes and the decision
    is the lowest representative among them; both are those of scoring
    every hypothesis, bit for bit.  The classes are the Kronecker product
    of the groups' classes: they are taken in tables of at most
    _ORACLE_CHUNK, in which the leading groups hold a constant class and
    each trailing group runs its classes on an axis of its own, in C order.

    A class's score is its fold: the squared residuals of rows 0, 1, ...,
    M - 1, added in that order.  Row m's prediction adds the constant
    groups' values, then the other groups' sums in class order (ascending
    user order when nothing merges): the additions of a column per user
    over the table.  Each row is held over its own groups' axes only.

    The fold is computed only for the survivors of a screen.  The screen
    scores the matched-filter form ||y - Gx||^2 - ||y||^2 = ||Gx||^2 -
    2 Re<G^T y, x> (Verdu, Multiuser Detection, ch. 4).  The table is
    held as slabs (its leading axes) by lanes (the others).  ||Gx||^2 of
    every class is formed once per table on that grid: each row's
    |prediction|^2 is gathered onto it and added, in row order.  G^T y has
    one value per group, so a trial adds one short vector per group axis,
    broadcast one axis at a time with the long axis innermost.  Per trial,
    ||Gx||^2 plus the lane part is formed in one buffer and its least per
    slab kept, and the slab part is added to those; the least's lane is
    found in the winning slab alone, from the same additions, so it is
    the first one, as over the whole table.  A class survives when
    its screen is at most the trial's least screen plus an allowance taken
    from the forward-error bounds of the screen and the fold (Higham,
    Accuracy and Stability of Numerical Algorithms, ch. 3), evaluated at
    the fold of the screen's argmin: every class whose fold is at most
    that one's, as every best class's is, survives.  Only the slabs whose
    least is within the allowance are formed again and compared, for a
    piece of the trials at a time that needs at most _SWEEP_VALUES of
    their values.  A trial
    any of whose screen values or folds could leave the float range keeps
    every class; the screen runs under its own errstate, so only folds
    raise, as they would if every class were folded.  At the SNRs of
    simulate one class per trial survives; when the received values dwarf
    the differences between classes (offsets near 2^53, say), many do.

    On the 9x18 BPSK chain with unit offsets, 3^9 = 19,683 classes stand
    for the 2^18 hypotheses, one table of 81 slabs by 243 lanes, and the
    nine groups share one build.  A call there costs 0.7-1.4 ms of set-up
    (classes, rows, ||Gx||^2 and the slab and lane tables) and about 0.03
    ms per trial; with non-integer offsets (four tables of 65,536
    hypotheses) 4.3-6.8 ms and about 0.3 ms (in-process medians, 2 vCPUs,
    the host's speed varying by about 2x).  A call on 8 trials peaks at
    about 0.45 MiB of traced allocations, 2.2 MiB with non-integer
    offsets; beyond ||Gx||^2 and the screen's buffer, through which each
    row's |prediction|^2 is gathered, no array holds more than one
    table's values."""
    y = np.asarray(y)
    if y.shape[-1:] != (G.rows,) or y.ndim > 2:
        raise ValueError("y must have one value per resource element")
    if not np.isfinite(y).all():
        raise ValueError("y must be finite: joint MAP has no answer for NaN or infinite values")
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
    if not np.isfinite(offs).all():
        raise ValueError("power offsets must be finite")
    scaled = constellation.symbols * offs[:, None]  # (K, Q): user k's symbol values
    stride = q ** np.arange(K - 1, -1, -1, dtype=np.int64)
    merge = (
        scaled.dtype.kind == "f"
        and bool(np.isfinite(scaled).all())
        and bool((scaled == np.round(scaled)).all())
        and sum(int(v) for v in np.abs(scaled).max(axis=1)) <= 2**53
    )
    built = {}  # groups whose users have the same scaled symbols have the same classes

    def classes_of(users, merged):
        rows = scaled[list(users)]
        key = rows.tobytes(), merged
        if key not in built:
            built[key] = _group_classes(rows, merged)
        if built[key] is None:
            return None
        digits, mult, sums = built[key]
        return _Classes(users, mult, sums, digits @ stride[list(users)])

    classes = []
    for users in pattern_groups(G) if merge else [(k,) for k in range(K)]:
        group = classes_of(users, merge)
        if group is None:  # more sums than one table holds: enumerate user by user
            classes += [classes_of((k,), False) for k in users]
        else:
            classes.append(group)
    n_vary, chunk = 0, 1
    while n_vary < len(classes) and chunk * len(classes[-1 - n_vary].term) <= _ORACLE_CHUNK:
        n_vary += 1
        chunk *= len(classes[-n_vary].term)
    n_fixed = len(classes) - n_vary
    varying = classes[n_fixed:]
    size = [len(c.term) for c in varying]
    sums = [c.sums for c in classes]
    in_row = G.entries[:, [c.users[0] for c in classes]].astype(bool)  # (M, groups)

    # a table as slabs x lanes: the leading varying axes run the slabs, the
    # others the lanes, about as many of each
    n_outer, slabs = 0, 1
    while n_outer < n_vary and (slabs * size[n_outer]) ** 2 <= chunk:
        slabs *= size[n_outer]
        n_outer += 1
    lanes = chunk // slabs

    # row m: its fixed groups and its varying groups' sums, each on an axis
    # of its own.  Its entries lie in `compact` from at[m] on, in C order
    # over its varying axes: a class's is at[m] + its digits times
    # place[:, m].  tail[a, m] is the extent of its axes from a on, so
    # tail[n_outer, m] is its width over the lanes
    on = in_row[:, n_fixed:].T  # (n_vary, M)
    extent = np.where(on, np.array(size, dtype=np.int64)[:, None], 1)
    tail = np.cumprod(np.vstack([extent, np.ones((1, G.rows), np.int64)])[::-1], axis=0)[::-1]
    place, widths = tail[1:] * on, tail[0]
    rows = []
    for row in in_row.tolist():
        vary = [a for a in range(n_vary) if row[n_fixed + a]]
        axis = [sums[n_fixed + a].reshape((-1,) + (1,) * (len(vary) - 1 - i)) for i, a in enumerate(vary)]
        rows.append(([a for a in range(n_fixed) if row[a]], axis))
    at = np.cumsum(widths) - widths
    compact = np.empty(widths.sum(), dtype=scaled.dtype)

    def fill(m, pick):
        fixed, axis = rows[m]
        total = reduce(operator.add, [sums[a][pick[a]] for a in fixed], 0)
        for t in axis:
            total = total + t
        compact[at[m] : at[m] + widths[m]] = np.ravel(total)

    def power(m):
        """|prediction|^2 of row m on the table's slabs x lanes, in the
        screen's buffer (the indices are in range; "clip" writes there
        directly instead of through a copy)."""
        p = compact[at[m] : at[m] + widths[m]]
        part = np.take((np.conj(p) * p).real.reshape(-1, tail[n_outer, m]), lane_entry[m], axis=1)
        return np.take(part, slab_row[m], axis=0, out=screen[:chunk].reshape(slabs, lanes), mode="clip")

    # per slab and per lane, its part of a class's index term, members and
    # row entries
    def kron(axes):
        term, mult, entry = np.zeros(1, np.int64), np.ones(1, np.int64), np.zeros((G.rows, 1), np.int64)
        for a in axes:
            term = (term[:, None] + varying[a].term).ravel()
            mult = (mult[:, None] * varying[a].mult).ravel()
            entry = (entry[:, :, None] + place[a, :, None, None] * np.arange(size[a])).reshape(G.rows, -1)
        return term, mult, entry

    slab_term, slab_mult, slab_entry = kron(range(n_outer))
    lane_term, lane_mult, lane_entry = kron(range(n_outer, n_vary))
    slab_row = slab_entry // tail[n_outer, :, None]  # each slab's row of a row's entries as slabs x lanes
    Yt = Y.T

    def fold(trials, slab, lane):
        """The fold of each (trial, class) pair, the class given by its slab
        and lane: bit for bit its score when every class is folded."""
        entries = compact[slab_entry[:, slab] + lane_entry[:, lane] + at[:, None]]  # (M, pairs)
        d = Yt[:, trials] - entries
        r = np.abs(d) if d.dtype.kind == "c" else d
        np.multiply(r, r, out=r)
        for m in range(1, G.rows):
            r[0] += r[m]
        return r[0]

    T = Y.shape[0]
    # a block takes as many trials as _SWEEP_VALUES values of the table
    # hold, or more while each of its arrays indexed by trial and lane,
    # slab or row holds at most one table's values and _SWEEP_VALUES (81
    # trials on the 9x18 chain), or one trial.  X is formed for `group`
    # trials at a time in one buffer of at most about _SWEEP_VALUES / slabs
    # values or one trial's: one table on the 9x18 chain, where a larger
    # buffer costs more in first-touch page faults than its fewer calls save
    step = max(1, _SWEEP_VALUES // chunk, min(chunk, _SWEEP_VALUES) // max(slabs, lanes, G.rows))
    group = max(1, _SWEEP_VALUES // chunk // slabs)
    with np.errstate(all="ignore"):
        Yf = Y.astype(np.result_type(Y, float), copy=False)
        matched = Yf @ in_row  # G^T y, one value per group
        cross = [-2 * (np.conj(matched[:, a, None]) * t).real for a, t in enumerate(sums)]
        energy = (np.conj(Yf) * Yf).real.sum(axis=1)  # ||y||^2
        # Y1 = sum_m |y_m|_1 A_m, where A_m bounds the |.|_1 of the sum of
        # row m's users' symbols and |z|_1 = |Re z| + |Im z|
        reach = G.entries @ (np.abs(scaled.real) + np.abs(scaled.imag)).max(axis=1)
        spread = (np.abs(Yf.real) + np.abs(Yf.imag)) @ reach
    # gamma_n for more roundings than any sum of the screen or the fold
    # takes (M + 2K + 8), plus 16 for those of the allowance, the threshold
    # and its per-slab shift
    n_round = G.rows + 2 * K + 24
    unit = np.finfo(float).eps / 2
    gamma = n_round * unit / (1 - n_round * unit)
    screen = np.empty(max(1, min(group, T)) * chunk)
    best_score = np.full(T, math.inf)
    best_idx = np.full(T, -1, dtype=np.int64)
    ties = np.zeros(T, dtype=np.int64)
    # the rows of varying groups only, and their part of ||Gx||^2, are the
    # same in every table
    static = [m for m, (fixed, _) in enumerate(rows) if not fixed]
    dynamic = [m for m, (fixed, _) in enumerate(rows) if fixed]
    for m in static:
        fill(m, ())
    with np.errstate(all="ignore"):
        common = np.zeros((slabs, lanes))
        for m in static:
            common += power(m)
    for pick in itertools.product(*(range(len(c.term)) for c in classes[:n_fixed])):
        for m in dynamic:
            fill(m, pick)
        const_idx = sum(int(c.term[i]) for c, i in zip(classes, pick))
        const_mult = math.prod(int(c.mult[i]) for c, i in zip(classes, pick))
        with np.errstate(all="ignore"):
            norm = common.copy() if dynamic else common  # ||Gx||^2
            for m in dynamic:
                norm += power(m)
            # no screen value or fold of such a trial can leave the float range
            safe = np.isfinite(4 * (energy + spread + norm.max()))
            const = reduce(operator.add, [cross[a][:, i] for a, i in enumerate(pick)], np.zeros(T))
        for lo in range(0, T, step):
            block = slice(lo, lo + step)
            n = min(step, T - lo)
            trials = np.arange(lo, lo + n)
            with np.errstate(all="ignore"):
                # -2 Re<G^T y, x> in two parts, per lane (with the constant
                # groups) and per slab; a class's screen is ||Gx||^2 plus its
                # lane's part, X, plus its slab's part.  X is formed a group
                # of trials at a time, and its least per slab kept; the
                # lane of the least is found in the winning slab alone,
                # from the same additions
                lane, shift = const[block, None], np.zeros((n, 1))
                for a in range(n_vary - 1, -1, -1):
                    part = cross[n_fixed + a][block, :, None]
                    if a >= n_outer:
                        lane = (part + lane[:, None, :]).reshape(n, -1)
                    else:
                        shift = (part + shift[:, None, :]).reshape(n, -1)
                least = np.empty((n, slabs))
                for i in range(0, n, group):
                    some = slice(i, i + group)
                    X = np.add(norm, lane[some, None, :],
                               out=screen[: min(group, n - i) * chunk].reshape(-1, slabs, lanes))
                    X.min(axis=2, out=least[some])
                per_slab = least + shift
                slab = per_slab.argmin(axis=1)
                low = per_slab[np.arange(n), slab]
                lane_of = (norm[slab] + lane).argmin(axis=1)
                # a class whose fold is at most the argmin's screens within
                # the allowance of it: both screens are within
                # gamma (||Gx||^2 + 2 Y1) of the exact ||y - Gx||^2 - ||y||^2,
                # up to the rounding of the predictions (2 gamma Y1 each),
                # both folds within gamma of it, and
                # ||Gx||^2 <= 2 ||y||^2 + 2 ||y - Gx||^2
                best = fold(trials, slab, lane_of)
                allowance = gamma * (6 * best + 4 * energy[block] + 8 * spread[block])
                bound = (low + allowance)[:, None] - shift
                # only a slab whose least X is within its bound holds
                # survivors (every trial's argmin among them)
                whole = ~safe[block]
                t, s = np.nonzero((least <= bound) | whole[:, None])
            # the X of those slabs is formed again, bit for bit, for a piece
            # of trials at a time that needs at most _SWEEP_VALUES of it, or
            # one trial
            per = max(1, _SWEEP_VALUES // (lanes * int(np.bincount(t).max())))
            for a in range(0, n, per):
                b = min(n, a + per)
                c = slice(*np.searchsorted(t, [a, b]))
                with np.errstate(all="ignore"):
                    X = norm[s[c]]
                    np.add(X, lane[t[c]], out=X)
                    hit = np.flatnonzero((X <= bound[t[c], s[c], None]) | whole[t[c], None])
                pair, l = np.divmod(hit, lanes)
                trial, sl = t[c][pair], s[c][pair]
                # the survivors' folds; that of a safe trial's argmin is known
                score = best[trial]
                fresh = ~(safe[lo + trial] & (sl == slab[trial]) & (l == lane_of[trial]))
                if fresh.any():
                    score[fresh] = fold(lo + trial[fresh], sl[fresh], l[fresh])
                heads = np.searchsorted(trial, np.arange(a, b))
                low = np.minimum.reduceat(score, heads)
                tied = score == low[trial - a]
                count = np.add.reduceat(np.where(tied, const_mult * slab_mult[sl] * lane_mult[l], 0), heads)
                index = np.where(tied, const_idx + slab_term[sl] + lane_term[l], n_hyp)
                rep = np.minimum.reduceat(index, heads)
                # per trial: the first table's minimum, or a lower one,
                # restarts the count and the decision (every score may be
                # infinite); an equal one adds to the count of an earlier
                # table and keeps the lower of the two representatives
                done = slice(lo + a, lo + b)
                better = (low < best_score[done]) | (best_idx[done] < 0)
                equal = low == best_score[done]
                ties[done] = np.where(better, count, ties[done] + equal * count)
                kept = np.where(equal, np.minimum(best_idx[done], rep), best_idx[done])
                best_idx[done] = np.where(better, rep, kept)
                best_score[done] = np.where(better, low, best_score[done])
    symbols = constellation.symbols[(best_idx[:, None] // stride) % q]
    if y.ndim == 1:
        return symbols[0], int(ties[0])
    return symbols, ties
