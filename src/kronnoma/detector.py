"""Low-complexity recursive multiuser detection on factorized pattern chains.

The receiver never inverts the full pattern matrix G = F (x) P^(x)r.  Its
combining stage is the linear map L = (x) alpha, applied as a Kronecker mode
product without forming L: a batch of received vectors Y (T, M) is viewed as
(T, m_f, m_p, ..., m_p), and recursion level l contracts the innermost
remaining m_p axis with every class's coefficient vector (signed sums, since
alpha has entries in {-1, 0, +1}), routing class j's outputs to branch j.
After r levels each trial holds m_p^r small regular sets over the outer
factor F, one per branch path, and one vectorised exhaustive MAP sweep over
(trials, paths, hypotheses) decides them all.  The classes listed in a
nonempty sic_symbols skip the last level's combining and are decided,
batched over trials and parents, by cancelling the siblings' decided unit
predictions out of the raw group equations.

detect_batch is that kernel and the only implementation of the receiver:
recursive_detect runs it on a batch of one and builds the full trace from
its intermediate arrays, and final_stage_map and sic_enhanced_final are
single-set entry points into the same sweep and cancellation code.  Every
arithmetic operation is counted by the code that performs it and checked
against closed-form bounds on every run.

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
from .pattern import FactorChain, PatternMatrix
from .simkit import Constellation

DEFAULT_HYPOTHESIS_CAP = 4096
DEFAULT_ORACLE_CAP = 1 << 20

# values per temporary array of a hypothesis sweep (the final stage's and
# the oracle's): larger batches are swept a slice of trials at a time, so
# memory stays bounded
_SWEEP_VALUES = 1 << 17

# hypotheses per prediction table of the oracle, rounded down to a power of
# the alphabet size so that every table starts on a digit boundary
_ORACLE_CHUNK = 1 << 16


class DetectionError(ValueError):
    """Detector configuration or input contract violation."""


class SicPredecessorError(DetectionError):
    """A cancellation stage needs a class decision that is not available."""


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
    they keep superposed group sums identifiable.  With sic_symbols empty
    every path runs the plain exhaustive final stage; otherwise the listed
    classes are rebuilt at the last recursion by cancelling the
    already-decided overlapping classes out of the raw group equations."""

    chain: FactorChain
    design: CombinerDesign
    constellation: Constellation
    power_offsets: np.ndarray | None = None
    sic_symbols: tuple[int, ...] = ()

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
        sic = tuple(sorted(set(int(j) for j in self.sic_symbols)))
        if any(j < 0 or j >= self.chain.m_p for j in sic):
            raise DetectionError("sic_symbols must index inner-factor classes")
        object.__setattr__(self, "sic_symbols", sic)

    def op_bounds(self) -> OpCountBounds:
        """Closed-form per-detection operation bounds of this configuration;
        a nonempty sic_symbols budgets the cancellation final stage."""
        costs = final_stage_costs(
            self.chain.F,
            self.constellation.size,
            cancel_classes=(self.chain.m_p - 1) if self.sic_symbols else 0,
        )
        return op_count_bounds(self.chain, *costs)

    @cached_property
    def _plan(self) -> _Plan:
        # built on first detection, so configuration errors of the cascade
        # (a cancellation without predecessors, a hypothesis cap) surface there
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
    """One detection pass over T received vectors.

    Final sets are indexed in branch-lexicographic path order (m_p^r of
    them); op counts in the report are per detection."""

    symbols: np.ndarray  # (T, K) decided symbols
    ambiguous: np.ndarray  # (T,) some final set had tied hypotheses
    report: OpCountReport
    combined: tuple[np.ndarray, ...]  # per level: (T, paths, equations per path)
    level_ops: tuple[tuple[int, int], ...]  # per level: (adds, muls) so far
    final_values: np.ndarray  # (T, m_p^r, m_f) final-set inputs, before any sign flip
    unit_predictions: np.ndarray  # (T, m_p^r, m_f) winners' F (offs . x), before the weight
    tie_counts: np.ndarray  # (T, m_p^r)


def path_users(chain: FactorChain, path: tuple[int, ...]) -> tuple[int, ...]:
    """Users (pattern columns) solved by the final set reached along `path`.

    The t-th branch choice (0-based) fixes the inner-factor digit with place
    value m_p^t; the outer-factor column index contributes c_f * m_p^r."""
    if len(path) != chain.r:
        raise ValueError("path length must equal the recursion depth")
    offset = sum(j * chain.m_p**t for t, j in enumerate(path))
    stride = chain.m_p**chain.r
    return tuple(c_f * stride + offset for c_f in range(chain.k_f))


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

    hyp: np.ndarray  # (H, k_f) symbol indices, first position most significant
    unit: np.ndarray  # (S, H, m_f) noiseless F (offs_s . x) per hypothesis
    wunit: np.ndarray  # (S, H, m_f) the same times the set's |weight|
    negative: np.ndarray  # (S,) w_s < 0: the set's equations are negated first
    adds: int  # per invocation, by the accounting model
    muls: int


def _sweep(F: PatternMatrix, constellation: Constellation, offsets, weights) -> _Sweep:
    """Hypothesis tables for sets with per-set user offsets (S, k_f) and
    nonzero weights (S,)."""
    q, k_f = constellation.size, F.cols
    n_hyp = q**k_f
    if n_hyp > DEFAULT_HYPOTHESIS_CAP:
        raise HypothesisCapExceeded(
            f"final stage needs {q}^{k_f} = {n_hyp} hypotheses, above the cap ({DEFAULT_HYPOTHESIS_CAP})"
        )
    hyp = _hypothesis_indices(q, k_f)
    X = constellation.symbols[hyp]  # (H, k_f)
    Ft = F.entries.T.astype(float)
    unit = np.array([(X * offs) @ Ft for offs in offsets]).reshape(len(offsets), n_hyp, F.rows)
    weights = np.asarray(weights, dtype=float)
    wunit = np.abs(weights)[:, None, None] * unit
    n_add = n_hyp * (int(F.entries.sum()) + F.rows - 1)
    return _Sweep(hyp, unit, wunit, weights < 0, n_add, n_hyp * (k_f + 2 * F.rows))


def _decide(sweep: _Sweep, z, counters: OpCounters):
    """Winning hypothesis and tie count per (trial, set) for inputs
    z (T, S, m_f).

    Hypotheses are equiprobable, so the MAP decision is the nearest one and
    does not depend on the noise variance.  A set with a negative weight is
    decided on its negated equations (the same equations, with a positive
    weight).  argmin takes the first occurrence, so the lowest hypothesis
    index wins ties; the tie count is the number of hypotheses sharing the
    best score."""
    T, S = z.shape[:2]
    z = np.where(sweep.negative[:, None], -z, z)
    best = np.empty((T, S), dtype=np.intp)
    ties = np.empty((T, S), dtype=np.intp)
    step = max(1, _SWEEP_VALUES // max(1, sweep.wunit.size))
    for lo in range(0, T, step):
        score = (np.abs(z[lo : lo + step, :, None, :] - sweep.wunit) ** 2).sum(axis=-1)
        b = score.argmin(axis=-1)
        best[lo : lo + step] = b
        ties[lo : lo + step] = (score == np.take_along_axis(score, b[..., None], -1)).sum(axis=-1)
    counters.adds += T * S * sweep.adds
    counters.muls += T * S * sweep.muls
    counters.final_invocations += T * S
    return best, ties


def _cascade(Y, alpha: np.ndarray, level_classes, counters: OpCounters):
    """Yield each recursion level's outputs for a batch Y (T, M).

    A level maps (T, P, E) to (T, P * C, E / m_p) for its C combined classes:
    each consecutive m_p-group of a path's equations becomes one signed sum
    per class, summed left to right, and class j's sums form child path
    (parent, j).  The first level contracts the innermost Kronecker axis."""
    m_p = alpha.shape[1]
    state = Y.reshape(Y.shape[0], 1, -1)
    for classes in level_classes:
        T, P, E = state.shape
        blocks = state.reshape(T, P, E // m_p, m_p)
        out = np.empty((T, P, len(classes), E // m_p), dtype=state.dtype)
        for c, j in enumerate(classes):
            nonzero = np.flatnonzero(alpha[j])
            acc = None
            for i in nonzero:
                col = blocks[..., i]
                if acc is None:
                    acc = col if alpha[j, i] > 0 else -col
                else:
                    acc = acc + col if alpha[j, i] > 0 else acc - col
            out[:, :, c] = acc
            counters.adds += col.size * (nonzero.size - 1)
        state = out.reshape(T, P * len(classes), E // m_p)
        yield state


def _cancel(blocks, rows, cancel, units, parent_weights, counters: OpCounters):
    """Cancellation input of one class for every (trial, parent).

    blocks (T, Pp, m_f, m_p) are the parents' raw group equations: the rows
    carrying the class are summed and each overlapping decided class jp,
    sharing `shared` of those rows, is reconstructed from its unit
    prediction units[jp] (T, Pp, m_f) and subtracted."""
    zeta = blocks[..., rows].sum(axis=-1)
    counters.adds += zeta.size * (len(rows) - 1)
    for jp, shared in cancel:
        zeta = zeta - (parent_weights * shared)[:, None] * units[jp]
        counters.adds += zeta.size
        counters.muls += zeta.size
    return zeta


def _sic_schedule(P: PatternMatrix, sic_symbols, decided):
    """(class, rows, cancel list) per designated class, in decision order.

    Raises SicPredecessorError when an overlapping class has no decision
    to cancel with."""
    decided = set(decided)
    steps = []
    for j in sic_symbols:
        rows = np.flatnonzero(P.entries[:, j])
        if rows.size == 0:
            raise DetectionError(f"class {j} touches no equation")
        cancel = tuple(
            (jp, int(P.entries[rows, jp].sum()))
            for jp in range(P.cols)
            if jp != j and P.entries[rows, jp].any()
        )
        missing = [jp for jp, _ in cancel if jp not in decided]
        if missing:
            raise SicPredecessorError(f"class {j} needs decided classes {missing} to cancel")
        decided.add(j)
        steps.append((j, rows, cancel))
    return tuple(steps)


class _SetInfo(NamedTuple):
    path: tuple[int, ...]
    weight: int
    gain: Fraction
    mult: int


class _Level(NamedTuple):
    classes: tuple[int, ...]  # classes combined at this level
    sets: tuple[_SetInfo, ...]  # its outputs, in the kernel's order


class _SicStep(NamedTuple):
    j: int
    rows: np.ndarray
    cancel: tuple[tuple[int, int], ...]
    sweep: _Sweep  # over the last level's parents
    positions: np.ndarray  # index of each decided set in path order


class _Plan(NamedTuple):
    """Static structure of a configuration's detection pass."""

    levels: tuple[_Level, ...]
    plain: _Sweep  # the sets reached by combining at every level
    plain_positions: np.ndarray  # their indexes in path order
    parent_weights: np.ndarray  # weights of the last level's parents (SIC)
    sic: tuple[_SicStep, ...]
    sets: tuple[tuple[_SetInfo, bool], ...]  # (set, used_sic) in path order
    users: np.ndarray  # (m_p^r, k_f) users of each set in path order
    bounds: OpCountBounds


def _build_plan(cfg: DetectionConfig) -> _Plan:
    chain, design = cfg.chain, cfg.design
    m_p, r = chain.m_p, chain.r
    if cfg.sic_symbols and r == 0:
        raise SicPredecessorError("cancellation needs at least one recursion level")
    norms = [int(a @ a) for a in design.alpha]
    sets = (_SetInfo((), 1, Fraction(1), 1),)
    parents = sets
    levels = []
    for level in range(1, r + 1):
        classes = tuple(j for j in range(m_p) if level < r or j not in cfg.sic_symbols)
        parents = sets
        sets = tuple(
            _SetInfo(s.path + (j,), s.weight * design.weights[j], s.gain * design.gains[j], s.mult * norms[j])
            for s in parents
            for j in classes
        )
        levels.append(_Level(classes, sets))
    sic_steps = _sic_schedule(chain.P, cfg.sic_symbols, levels[-1].classes if levels else ())

    def sweep(infos):
        offsets = [cfg.power_offsets[list(path_users(chain, s.path))] for s in infos]
        return _sweep(chain.F, cfg.constellation, offsets, [s.weight for s in infos])

    def positions(infos):
        # branch-lexicographic index: the first branch is the most significant digit
        return np.array([sum(j * m_p ** (r - 1 - t) for t, j in enumerate(s.path)) for s in infos], dtype=np.intp)

    by_path = {s.path: (s, False) for s in sets}
    steps = []
    for j, rows, cancel in sic_steps:
        d = rows.size
        infos = [_SetInfo(p.path + (j,), p.weight * d, p.gain * d, p.mult * d) for p in parents]
        by_path.update((s.path, (s, True)) for s in infos)
        steps.append(_SicStep(j, rows, cancel, sweep(infos), positions(infos)))
    paths = list(itertools.product(range(m_p), repeat=r))
    return _Plan(
        levels=tuple(levels),
        plain=sweep(sets),
        plain_positions=positions(sets),
        parent_weights=np.array([p.weight for p in parents], dtype=np.int64),
        sic=tuple(steps),
        sets=tuple(by_path[p] for p in paths),
        users=np.array([path_users(chain, p) for p in paths], dtype=np.intp),
        bounds=cfg.op_bounds(),
    )


def detect_batch(Y, cfg: DetectionConfig) -> BatchDetection:
    """Detect all K users of every row of Y (T, M) in one pass.

    Recursion level l combines every path's consecutive m_p-equation groups
    with each class's coefficient vector (child paths in branch-lexicographic
    order), then one exhaustive MAP sweep decides all m_p^r final sets of
    all trials.  The classes in a nonempty sic_symbols are decided, for
    each last-level parent, by cancellation against the sibling decisions
    instead.  With equiprobable symbols the MAP decision is the nearest
    hypothesis, whatever the noise variance.  Op counts are tallied over the
    batch as the work is done and reported per detection."""
    chain = cfg.chain
    Y = np.asarray(Y)
    if Y.ndim != 2 or Y.shape[1] != chain.M:
        raise ValueError("Y must hold one row of M resource-element values per trial")
    T = Y.shape[0]
    if T == 0:
        raise ValueError("the batch must hold at least one trial")
    plan = cfg._plan
    Y = Y.astype(np.result_type(Y.dtype, np.float64), copy=False)
    counters = OpCounters()
    combined, level_ops = [], []
    for out in _cascade(Y, cfg.design.alpha, [lv.classes for lv in plan.levels], counters):
        combined.append(out)
        level_ops.append((counters.adds // T, counters.muls // T))
    raw = [Y.reshape(T, 1, -1)] + combined  # raw[-2]: the last level's parents

    S = len(plan.sets)
    dtype = np.result_type(Y.dtype, plan.plain.unit.dtype)
    values = np.empty((T, S, chain.m_f), dtype=dtype)
    units = np.empty((T, S, chain.m_f), dtype=plan.plain.unit.dtype)
    best = np.empty((T, S), dtype=np.intp)
    ties = np.empty((T, S), dtype=np.intp)

    def solve(sweep: _Sweep, positions, z):
        values[:, positions] = z
        best[:, positions], ties[:, positions] = _decide(sweep, z, counters)
        u = sweep.unit[np.arange(len(positions)), best[:, positions]]
        units[:, positions] = u
        return u

    plain = solve(plan.plain, plan.plain_positions, raw[-1])
    if plan.sic:
        n_parents = len(plan.parent_weights)
        blocks = raw[-2].reshape(T, n_parents, chain.m_f, chain.m_p)
        decided = plain.reshape(T, n_parents, -1, chain.m_f)
        known = {j: decided[:, :, c] for c, j in enumerate(plan.levels[-1].classes)}
        for step in plan.sic:
            zeta = _cancel(blocks, step.rows, step.cancel, known, plan.parent_weights, counters)
            known[step.j] = solve(step.sweep, step.positions, zeta)

    symbols = np.empty((T, chain.K), dtype=cfg.constellation.symbols.dtype)
    symbols[:, plan.users.reshape(-1)] = cfg.constellation.symbols[plan.plain.hyp[best]].reshape(T, -1)
    symbols.setflags(write=False)
    report = OpCountReport(
        measured_adds=counters.adds // T,
        measured_muls=counters.muls // T,
        final_invocations=counters.final_invocations // T,
        bounds=plan.bounds,
    )
    return BatchDetection(
        symbols=symbols,
        ambiguous=(ties > 1).any(axis=1),
        report=report,
        combined=tuple(combined),
        level_ops=tuple(level_ops),
        final_values=values,
        unit_predictions=units,
        tie_counts=ties,
    )


def combine_paths(Y, chain: FactorChain, design: CombinerDesign) -> np.ndarray:
    """Apply the combining map L = (x) alpha to every row of Y (T, M)
    without forming L: the final-set inputs (T, m_p^r, m_f), paths in
    branch-lexicographic order (the rows of combining_matrix, reshaped)."""
    if design.P != chain.P:
        raise DetectionError("combiner design was built for a different inner factor")
    Y = np.asarray(Y)
    if Y.ndim != 2 or Y.shape[1] != chain.M:
        raise ValueError("Y must hold one row of M resource-element values per trial")
    out = Y.reshape(Y.shape[0], 1, -1)
    for out in _cascade(Y, design.alpha, [tuple(range(chain.m_p))] * chain.r, OpCounters()):
        pass
    return out


def final_stage_map(
    z,
    F: PatternMatrix,
    weight,
    constellation: Constellation,
    power_offsets=None,
    *,
    counters: OpCounters | None = None,
) -> tuple[tuple, int, np.ndarray]:
    """Exhaustive MAP decision for one regular set w * F (offs . x) + noise.

    Returns (decided symbol values, tie count, unit prediction F (offs . x^))
    where the unit prediction is the winning hypothesis's noiseless equation
    values before the weight.  Ties on the decision metric are broken toward
    the lowest hypothesis index and reported via tie count; the weight must
    be positive (flip the sign of z and weight together for a negative
    weight, the equations are equivalent).  Symbols are equiprobable, so the
    decision is the nearest hypothesis, whatever the noise variance."""
    z = np.asarray(z)
    if z.shape != (F.rows,):
        raise ValueError("z must have one value per outer-factor row")
    if not weight > 0:
        raise ValueError("combined weight must be positive")
    offs = np.ones(F.cols) if power_offsets is None else np.asarray(power_offsets, dtype=float)
    if offs.shape != (F.cols,):
        raise ValueError("power offsets must have one entry per set user")
    sweep = _sweep(F, constellation, [offs], [weight])
    best, ties = _decide(sweep, z[None, None], counters or OpCounters())
    b = int(best[0, 0])
    return tuple(constellation.symbols[sweep.hyp[b]]), int(ties[0, 0]), sweep.unit[0, b]


def sic_enhanced_final(
    raw_values,
    decided: dict[int, FinalSet],
    cfg: DetectionConfig,
    *,
    parent_path: tuple[int, ...] = (),
    parent_weight: int = 1,
    parent_noise_mult: int = 1,
    parent_gain: Fraction = Fraction(1),
    counters: OpCounters | None = None,
) -> list[FinalSet]:
    """Decide the designated classes of one last-recursion super-group by
    cancellation instead of combining.

    raw_values are the super-group's m_f * m_p equations before combining.
    For a designated class j, the equations carrying class j are summed
    (gain: the column weight d_j instead of the combining gain) and every
    overlapping, already-decided class is reconstructed from its final-set
    decision and subtracted.  Raises SicPredecessorError when an overlapping
    class has no decision to cancel with."""
    chain = cfg.chain
    raw = np.asarray(raw_values)
    if raw.shape != (chain.m_f * chain.m_p,):
        raise ValueError("raw_values must hold the full super-group")
    counters = OpCounters() if counters is None else counters
    steps = _sic_schedule(chain.P, cfg.sic_symbols, decided)
    known = {jp: np.asarray(fs.unit_prediction)[None, None] for jp, fs in decided.items()}
    blocks = raw.reshape(1, 1, chain.m_f, chain.m_p)
    out: list[FinalSet] = []
    for j, rows, cancel in steps:
        zeta = _cancel(blocks, rows, cancel, known, np.array([parent_weight]), counters)
        d_j = rows.size
        weight = parent_weight * d_j
        path = parent_path + (j,)
        users = path_users(chain, path)
        sweep = _sweep(chain.F, cfg.constellation, [cfg.power_offsets[list(users)]], [weight])
        best, ties = _decide(sweep, zeta, counters)
        b = int(best[0, 0])
        known[j] = sweep.unit[:, b][None]
        out.append(
            FinalSet(
                path=path,
                users=users,
                values=zeta[0, 0],
                weight=weight,
                gain=parent_gain * d_j,
                noise_multiplier=parent_noise_mult * d_j,
                used_sic=True,
                decided=tuple(cfg.constellation.symbols[sweep.hyp[b]]),
                unit_prediction=sweep.unit[0, b],
                tie_count=int(ties[0, 0]),
            )
        )
    return out


def recursive_detect(y, cfg: DetectionConfig) -> DetectionResult:
    """Detect all K users from y by recursive combining plus small MAP sets.

    The batched kernel on a batch of one, with the full trace: level l
    starts from m_p^(l-1) super-groups of m_f * m_p^(r-l+1) equations, and
    final sets come out sorted by path.  With a nonempty sic_symbols, the
    designated classes of each last-level super-group are decided by
    cancellation against the sibling decisions."""
    chain = cfg.chain
    y = np.asarray(y)
    if y.shape != (chain.M,):
        raise ValueError("y must have one value per resource element")
    batch = detect_batch(y[None], cfg)
    plan = cfg._plan
    records = []
    groups_in, eqs = 1, chain.M
    for level, (lv, out, (adds, muls)) in enumerate(
        zip(plan.levels, batch.combined, batch.level_ops), start=1
    ):
        records.append(
            RecursionRecord(
                level=level,
                super_groups_in=groups_in,
                equations_per_group=eqs,
                group_size=chain.m_p,
                paths=tuple(s.path for s in lv.sets),
                combined=tuple(out[0]),
                weights=tuple(s.weight for s in lv.sets),
                gain_products=tuple(s.gain for s in lv.sets),
                noise_multipliers=tuple(s.mult for s in lv.sets),
                adds_so_far=adds,
                muls_so_far=muls,
            )
        )
        groups_in, eqs = out.shape[1], out.shape[2]
    symbols = batch.symbols[0]
    final_sets = tuple(
        FinalSet(
            path=s.path,
            users=tuple(users.tolist()),
            values=batch.final_values[0, p],
            weight=s.weight,
            gain=s.gain,
            noise_multiplier=s.mult,
            used_sic=used_sic,
            decided=tuple(symbols[users]),
            unit_prediction=batch.unit_predictions[0, p],
            tie_count=int(batch.tie_counts[0, p]),
        )
        for p, ((s, used_sic), users) in enumerate(zip(plan.sets, plan.users))
    )
    return DetectionResult(
        symbols=symbols,
        trace=DetectionTrace(recursions=tuple(records), final_sets=final_sets),
        report=batch.report,
        ambiguous=bool(batch.ambiguous[0]),
    )


def combining_matrix(chain: FactorChain, design: CombinerDesign) -> np.ndarray:
    """The linear map L with L @ y = all final-set inputs, stacked in
    branch-lexicographic path order, m_f equations per path.

    Row (path, d_f) is e_{d_f} (x) alpha^(j_r) (x) ... (x) alpha^(j_1):
    later recursion levels peel later positions of the path, so their
    coefficient vectors sit on the slower-varying (outer) Kronecker axes.
    Dense reference for tests; detection applies L through combine_paths."""
    if design.P != chain.P:
        raise DetectionError("combiner design was built for a different inner factor")
    alpha = design.alpha
    rows = []
    eye = np.eye(chain.m_f, dtype=np.int64)
    for path in itertools.product(range(chain.m_p), repeat=chain.r):
        acc = np.array([1], dtype=np.int64)
        for j in reversed(path):
            acc = np.kron(acc, alpha[j])
        for d_f in range(chain.m_f):
            rows.append(np.kron(eye[d_f], acc))
    L = np.array(rows, dtype=np.int64)
    L.setflags(write=False)
    return L


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

    The hypothesis set is the Kronecker product of the K per-user
    alphabets, so it needs no index arithmetic: hypotheses are taken in
    chunks of Q^j, and inside a chunk users 0..K-j-1 hold a constant digit
    (one scalar each) while user k >= K-j runs its scaled alphabet with
    every entry repeated Q^(K-1-k) times, then tiled.  Row m of a chunk's
    prediction table (M, Q^j) adds the columns of the users in row m of G
    in ascending user order.  Every trial is scored against the table by
    accumulating the squared residual of one row at a time, a block of
    trials at a time, so memory stays at the per-user columns, one table
    and one bounded score block."""
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
    j = 0
    while j < K and q ** (j + 1) <= _ORACLE_CHUNK:
        j += 1
    chunk, n_const = q**j, K - j
    scaled = constellation.symbols * offs[:, None]  # (K, Q): user k's symbol values
    stride = [q ** (K - 1 - k) for k in range(K)]
    column = {
        k: np.tile(np.repeat(scaled[k], stride[k]), q ** (k - n_const)) for k in range(n_const, K)
    }
    row_users = [np.flatnonzero(row).tolist() for row in G.entries]
    pred = np.empty((G.rows, chunk), dtype=scaled.dtype)
    T = Y.shape[0]
    step = max(1, _SWEEP_VALUES // chunk)
    score = np.empty((min(step, T), chunk))
    resid = np.empty(score.shape, dtype=np.result_type(Y, pred))
    magnitude = np.empty(score.shape) if resid.dtype.kind == "c" else None
    best_score = np.full(T, math.inf)
    best_idx = np.full(T, -1, dtype=np.int64)
    ties = np.zeros(T, dtype=np.int64)
    for start in range(0, n_hyp, chunk):
        for m, users in enumerate(row_users):
            const = [scaled[k, start // stride[k] % q] for k in users if k < n_const]
            if start and not const:
                continue  # varying users only: the row is the same in every table
            # ascending user order puts the constant users first: their sum is
            # one scalar, to which the varying users' columns are added
            pred[m] = reduce(operator.add, const, 0)
            for k in users[len(const) :]:
                pred[m] += column[k]
        for lo in range(0, T, step):
            rows = slice(lo, lo + step)
            n = min(step, T - lo)
            s, d = score[:n], resid[:n]
            for m in range(G.rows):
                np.subtract(Y[rows, m, None], pred[m], out=d)
                r = d if magnitude is None else np.abs(d, out=magnitude[:n])
                np.multiply(r, r, out=s if m == 0 else r)
                if m:
                    s += r
            first = s.argmin(axis=-1)
            low = s[np.arange(s.shape[0]), first]
            count = (s == low[:, None]).sum(axis=-1)
            # per trial: a lower minimum restarts the count at its first
            # occurrence; an equal one adds to the count of an earlier chunk
            better = low < best_score[rows]
            equal = low == best_score[rows]
            ties[rows] = np.where(better, count, ties[rows] + equal * count)
            best_idx[rows] = np.where(better, start + first, best_idx[rows])
            best_score[rows] = np.where(better, low, best_score[rows])
    symbols = constellation.symbols[(best_idx[:, None] // np.array(stride)) % q]
    if y.ndim == 1:
        return symbols[0], int(ties[0])
    return symbols, ties
