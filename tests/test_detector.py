"""Recursive detection: exact algebra, op accounting, SIC, and the oracle."""

import functools
import itertools
import math
import operator
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kronnoma import (
    BPSK,
    QPSK,
    CombinerDesign,
    CombiningContractError,
    DetectionConfig,
    DetectionError,
    DimensionOverflowError,
    FactorChain,
    HypothesisCapExceeded,
    OpCounters,
    PatternMatrix,
    SicPredecessorError,
    brute_force_map_oracle,
    build_chain,
    coupled_sums,
    detect_batch,
    final_stage_costs,
    find_combiners,
    op_count_bounds,
    pattern_groups,
    recursive_detect,
    synthesize_rx,
)
from kronnoma import detector as det
from conftest import P3_ROWS, enumerate_square_candidates


def path_users(chain: FactorChain, path: tuple[int, ...]) -> tuple[int, ...]:
    """Users (pattern columns) solved by the final set reached along `path`,
    the reference for the plan's user table.

    The t-th branch choice (0-based) fixes the inner-factor digit with place
    value m_p^t; the outer-factor column index contributes c_f * m_p^r."""
    offset = sum(j * chain.m_p**t for t, j in enumerate(path))
    stride = chain.m_p**chain.r
    return tuple(c_f * stride + offset for c_f in range(chain.k_f))

ALL_BPSK_6 = [np.array(v, dtype=float) for v in itertools.product((-1.0, 1.0), repeat=6)]


def _cfg(chain, design, **kw):
    return DetectionConfig(chain=chain, design=design, constellation=BPSK, **kw)


@pytest.fixture(scope="module")
def cfg2(chain_9x18, design3):
    return _cfg(chain_9x18, design3)


@pytest.fixture(scope="module")
def cfg1(chain_3x6, design3):
    return _cfg(chain_3x6, design3)


class TestPathUsers:
    def test_reference_mapping(self, cfg2, chain_9x18):
        # branch t (0-based) carries place value m_p^t; seed column adds k_f
        # strides; the plan holds paths in branch-lexicographic order
        users = cfg2._plan.users
        for path, want in [((0, 0), (0, 9)), ((1, 0), (1, 10)), ((0, 1), (3, 12)), ((2, 2), (8, 17))]:
            assert path_users(chain_9x18, path) == want
            assert tuple(users[3 * path[0] + path[1]].tolist()) == want

    def test_r0(self, F12, P3, design3):
        chain = FactorChain(F12, P3, 0)
        assert path_users(chain, ()) == (0, 1)
        assert _cfg(chain, design3)._plan.users.tolist() == [[0, 1]]

    def test_every_user_exactly_once(self, F12, P3, P4):
        # the plan's table, from digit arithmetic, against the reference per
        # path; every user is solved by exactly one set
        for P, r, sic in itertools.product((P3, P4), (1, 2, 3), (False, True)):
            chain = FactorChain(F12, P, r)
            plan = _cfg(chain, find_combiners(P), sic=sic)._plan
            paths = list(itertools.product(range(P.rows), repeat=r))
            assert plan.users.tolist() == [list(path_users(chain, p)) for p in paths]
            assert sorted(plan.users.ravel().tolist()) == list(range(chain.K))

class TestNoiselessAlgebra:
    def test_weight_four_and_noise_multipliers(self, cfg2, chain_9x18):
        """The reference chain's exact recursion algebra: every final equation
        is 4*(x_k + x_{k+9}), with noise variance factors 3 then 9."""
        G = build_chain(chain_9x18)
        rng = np.random.default_rng(11)
        x = rng.choice([-1.0, 1.0], size=18)
        res = recursive_detect(G.entries @ x, cfg2)

        lvl1, lvl2 = res.trace.recursions
        assert lvl1.noise_multipliers == (3, 3, 3)
        assert set(lvl2.noise_multipliers) == {9}
        assert lvl1.weights == (2, 2, 2)
        assert set(lvl2.weights) == {4}
        assert set(lvl2.gain_products) == {Fraction(16, 9)}

        for fs in res.trace.final_sets:
            assert fs.weight == 4
            assert fs.noise_multiplier == 9
            assert fs.gain == Fraction(16, 9)
            k, k9 = fs.users
            assert k9 == k + 9
            assert fs.values[0] == 4.0 * (x[k] + x[k9])  # exact, no tolerance

    def test_first_level_equations(self, cfg2, chain_9x18):
        # first combined equation of the first group: y1 + y2 - y3
        G = build_chain(chain_9x18)
        y = np.arange(1.0, 10.0)
        res = recursive_detect(y, cfg2)
        lvl1 = res.trace.recursions[0]
        z_class0 = lvl1.combined[0]
        expected = np.array([y[0] + y[1] - y[2], y[3] + y[4] - y[5], y[6] + y[7] - y[8]])
        assert np.array_equal(z_class0, expected)

    def test_coupled_sums_recovered_for_random_x(self, cfg2, chain_9x18):
        G = build_chain(chain_9x18)
        groups = pattern_groups(G)
        for seed in range(25):
            x = np.random.default_rng(seed).choice([-1.0, 1.0], size=18)
            res = recursive_detect(G.entries @ x, cfg2)
            assert np.array_equal(
                coupled_sums(res.symbols, groups, cfg2.power_offsets),
                coupled_sums(x, groups, cfg2.power_offsets),
            )

    def test_r0_reduces_to_final_stage(self, F12, P3, design3):
        chain = FactorChain(F12, P3, 0)
        cfg = _cfg(chain, design3)
        res = recursive_detect(np.array([2.0]), cfg)  # y = F x for x = (1, 1)
        assert res.symbols.tolist() == [1.0, 1.0]
        assert res.trace.recursions == ()
        assert len(res.trace.final_sets) == 1
        assert res.trace.final_sets[0].users == (0, 1)

    def test_cancelling_symbols_give_zero_rx(self, chain_9x18):
        x = np.ones(18)
        x[9:] = -1.0  # x_{k+9} = -x_k: every coupled sum vanishes
        y = synthesize_rx(x, chain_9x18, np.zeros(9))
        assert np.array_equal(y, np.zeros(9))

    def test_group_bookkeeping_invariants(self, cfg2, chain_9x18):
        G = build_chain(chain_9x18)
        y = G.entries @ np.ones(18)
        res = recursive_detect(y, cfg2)
        m_p, m_f, r = chain_9x18.m_p, chain_9x18.m_f, chain_9x18.r
        for rec in res.trace.recursions:
            l = rec.level
            assert rec.super_groups_in == m_p ** (l - 1)
            assert rec.equations_per_group == m_f * m_p ** (r - l + 1)
            assert rec.group_size == m_p
            assert len(rec.paths) == m_p**l
            assert list(rec.paths) == sorted(rec.paths)
            for vals in rec.combined:
                assert vals.shape == (m_f * m_p ** (r - l),)

    def test_gain_products_along_paths(self, cfg2, design3, chain_9x18):
        G = build_chain(chain_9x18)
        res = recursive_detect(G.entries @ np.ones(18), cfg2)
        for fs in res.trace.final_sets:
            expected_gain = Fraction(1)
            expected_w = 1
            expected_mult = 1
            for j in fs.path:
                expected_gain *= design3.gains[j]
                expected_w *= design3.weights[j]
                expected_mult *= int(design3.alpha[j] @ design3.alpha[j])
            assert fs.gain == expected_gain
            assert fs.weight == expected_w
            assert fs.noise_multiplier == expected_mult


@pytest.fixture(scope="module")
def cfg0(F12, P3, design3):
    """G = F = [1 1]: at r = 0 the receiver is one final set of weight 1."""
    return _cfg(FactorChain(F12, P3, 0), design3)


def _only_set(z, cfg):
    (fs,) = recursive_detect(np.array(z, dtype=float), cfg).trace.final_sets
    return fs


class TestFinalStageMap:
    """The final-stage MAP on a single set, through the kernel at r = 0.
    The set's weight is 1, so z = 2 here is z = 8 on a set of weight 4
    (the 9x18 sets of TestBatchedKernel.test_noiseless_ties_are_counted)."""

    def test_unique_maximizer(self, cfg0):
        fs = _only_set([2.0], cfg0)
        assert fs.decided == (1.0, 1.0)
        assert fs.tie_count == 1
        assert fs.unit_prediction.tolist() == [2.0]
        assert detect_batch(np.array([[2.0]]), cfg0).ambiguous.tolist() == [False]

    def test_zero_tie_equal_powers(self, cfg0):
        fs = _only_set([0.0], cfg0)
        assert fs.tie_count == 2
        assert fs.decided == (-1.0, 1.0)  # lowest hypothesis index among the tied pair
        batch = detect_batch(np.zeros((1, 1)), cfg0)
        assert batch.symbols.tolist() == [[-1.0, 1.0]]
        assert batch.ambiguous.tolist() == [True]

    def test_offsets_make_hypotheses_injective(self, cfg0):
        # with offsets (1, 1/2) all four predictions differ, and every
        # noiseless input is recovered exactly; the exact midpoint z=0
        # nevertheless remains equidistant from two hypotheses
        cfg = _cfg(cfg0.chain, cfg0.design, power_offsets=np.array([1.0, 0.5]))
        preds = set()
        for x in itertools.product((-1.0, 1.0), repeat=2):
            z = x[0] * 1.0 + x[1] * 0.5
            fs = _only_set([z], cfg)
            assert fs.decided == x
            assert fs.tie_count == 1
            assert fs.unit_prediction.tolist() == [z]
            preds.add(z)
        assert len(preds) == 4
        assert _only_set([0.0], cfg).tie_count == 2

    def test_decided_sum_is_nearest_hypothesis_sum(self, cfg0):
        # equal powers: the decided coupled sum is always a nearest point of
        # {-2, 0, 2} to z / weight
        Z = np.linspace(-3.0, 3.0, 97)[:, None]
        for z, decided in zip(Z[:, 0], detect_batch(Z, cfg0).symbols):
            dist = abs(decided.sum() - z)
            best = min(abs(s - z) for s in (-2.0, 0.0, 2.0))
            assert dist == pytest.approx(best, abs=1e-12)

    def test_weight_is_nonzero_by_contract(self, design3):
        # a set's weight is a product of design weights, and a design with
        # a zero weight is refused; negative weights are decided on the
        # negated equations (TestNegativeWeightDesign)
        alpha = design3.alpha.copy()
        alpha[1] = 0
        with pytest.raises(CombiningContractError):
            CombinerDesign(P=design3.P, alpha=alpha, weights=(2, 0, 2), gains=design3.gains)

    def test_hypothesis_cap(self, P3, design3):
        # 2^12 hypotheses fill DEFAULT_HYPOTHESIS_CAP (4096); 2^13 exceed it
        fits = _cfg(FactorChain(PatternMatrix(np.ones((1, 12))), P3, 0), design3)
        assert _only_set([12.0], fits).decided == (1.0,) * 12
        over = _cfg(FactorChain(PatternMatrix(np.ones((1, 13))), P3, 0), design3)
        with pytest.raises(HypothesisCapExceeded):
            detect_batch(np.ones((1, 1)), over)

    def test_dimension_checks(self, cfg0):
        with pytest.raises(ValueError):
            detect_batch(np.array([[1.0, 2.0]]), cfg0)
        with pytest.raises(ValueError):
            recursive_detect(np.array([1.0, 2.0]), cfg0)
        with pytest.raises(DetectionError):
            _cfg(cfg0.chain, cfg0.design, power_offsets=np.ones(3))


class TestOpAccounting:
    def test_final_stage_costs_reference(self, F12):
        assert final_stage_costs(F12, 2) == (8, 16)
        assert final_stage_costs(F12, 2, cancel_classes=2) == (10, 18)

    def test_bounds_reference_chain(self, chain_9x18):
        b = op_count_bounds(chain_9x18, 8, 16)
        assert b.combining_adds == 36
        assert b.total_adds == 108
        assert b.total_muls == 144
        assert b.final_sets == 9

    def test_bounds_r0(self, F12, P3):
        b = op_count_bounds(FactorChain(F12, P3, 0), 8, 16)
        assert (b.combining_adds, b.total_adds, b.total_muls, b.final_sets) == (0, 8, 16, 1)

    def test_bounds_formula_mf2_mp4(self, P4):
        F = PatternMatrix(np.array([[1, 0, 1], [0, 1, 1]]))
        chain = FactorChain(F, P4, 1)
        costs = final_stage_costs(F, 2)
        b = op_count_bounds(chain, *costs)
        assert b.combining_adds == 1 * 2 * 4 * 3  # r * m_f * m_p^r * (m_p - 1)

    def test_measured_combining_equals_36_here(self, cfg2, chain_9x18):
        # every coefficient vector of the optimal 3x3 design is dense, so the
        # measured combining additions meet the bound exactly
        G = build_chain(chain_9x18)
        res = recursive_detect(G.entries @ np.ones(18), cfg2)
        assert res.trace.recursions[-1].adds_so_far == 36
        assert res.report.measured_adds == 108
        assert res.report.measured_muls == 144
        assert res.report.final_invocations == 9

    def test_sparse_alpha_measures_below_bound(self, P4):
        # the 4x4 design has a singleton coefficient row, so measured < bound
        F = PatternMatrix(np.array([[1, 0, 1], [0, 1, 1]]))
        chain = FactorChain(F, P4, 1)
        design = find_combiners(P4)
        cfg = _cfg(chain, design)
        y = build_chain(chain).entries @ np.ones(12)
        res = recursive_detect(y, cfg)
        lvl1 = res.trace.recursions[0]
        # per group: rows with nnz (3,3,3,1) cost 2+2+2+0 = 6; two groups
        assert lvl1.adds_so_far == 12
        assert res.report.bounds.combining_adds == 24
        assert res.report.measured_adds <= res.report.bounds.total_adds
        assert res.report.measured_muls <= res.report.bounds.total_muls

    @given(st.integers(0, 2), st.integers(2, 3))
    @settings(max_examples=12, deadline=None)
    def test_measured_never_exceeds_bounds(self, r, m_p):
        P = find_combiners_first_feasible(m_p)
        chain = FactorChain(PatternMatrix(np.array([[1, 1]])), P.P, r)
        cfg = _cfg(chain, P)
        G = build_chain(chain)
        x = np.random.default_rng(r * 7 + m_p).choice([-1.0, 1.0], size=G.cols)
        res = recursive_detect(G.entries @ x, cfg)  # validates in OpCountReport
        assert res.report.measured_adds <= res.report.bounds.total_adds
        assert res.report.measured_muls <= res.report.bounds.total_muls
        assert res.report.final_invocations == m_p**r


def find_combiners_first_feasible(m_p: int) -> CombinerDesign:
    from kronnoma import CombinerInfeasible

    for P in enumerate_square_candidates(m_p):
        try:
            return find_combiners(P)
        except CombinerInfeasible:
            continue
    raise AssertionError("no feasible design")


def combining_matrix(chain: FactorChain, design: CombinerDesign) -> np.ndarray:
    """The linear map L with L @ y = all final-set inputs, stacked in
    branch-lexicographic path order, m_f equations per path.

    Row (path, d_f) is e_{d_f} (x) alpha^(j_r) (x) ... (x) alpha^(j_1):
    later recursion levels peel later positions of the path, so their
    coefficient vectors sit on the slower-varying (outer) Kronecker axes.
    The tests' dense reference: the package applies L only through the
    kernel's cascade of signed sums and never forms it."""
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


class TestCombiningMatrix:
    def test_golden_first_row(self, chain_9x18, design3):
        L = combining_matrix(chain_9x18, design3)
        assert L.shape == (9, 9)
        # path (0, 0): alpha^(0) (x) alpha^(0)
        assert L[0].tolist() == [1, 1, -1, 1, 1, -1, -1, -1, 1]

    def test_rows_give_weighted_coupled_indicators(self, chain_9x18, design3):
        # L @ G puts weight 4 exactly on each path's coupled user pair
        G = build_chain(chain_9x18)
        L = combining_matrix(chain_9x18, design3)
        prod = L @ G.entries
        expected = np.zeros((9, 18), dtype=np.int64)
        for p, path in enumerate(itertools.product(range(3), repeat=2)):
            for u in path_users(chain_9x18, path):
                expected[p, u] = 4
        assert np.array_equal(prod, expected)

    def test_linearity_against_trace(self, cfg2, chain_9x18, design3):
        # the recursion is exactly the fixed linear map L
        rng = np.random.default_rng(5)
        y = rng.standard_normal(9)
        res = recursive_detect(y, cfg2)
        stacked = np.concatenate([fs.values for fs in res.trace.final_sets])
        L = combining_matrix(chain_9x18, design3)
        assert np.allclose(stacked, L @ y, atol=0)

    def test_r0_is_identity(self, F12, P3, design3):
        chain = FactorChain(F12, P3, 0)
        L = combining_matrix(chain, design3)
        assert np.array_equal(L, np.eye(1, dtype=np.int64))

    def test_design_mismatch_rejected(self, chain_9x18, P4):
        with pytest.raises(DetectionError):
            combining_matrix(chain_9x18, find_combiners(P4))


def _final_outputs(Y, cfg):
    """The combined values (T, paths, m_f) the plain cascade gives a batch."""
    out = Y.reshape(Y.shape[0], 1, -1)
    for out in det._cascade(Y, cfg._plan.alphas, OpCounters()):
        pass
    return out


class TestPathGains:
    """The trace's per-path weights and noise multipliers, checked exactly
    against the combining cascade itself."""

    def test_row_norms_are_noise_multipliers(self, F12, P3, P4):
        # on the identity, column (p, e) of the output is row (p, e) of the
        # combining map: its squared norm is the noise multiplier
        for P, r in itertools.product((P3, P4), range(4)):
            cfg = _cfg(FactorChain(F12, P, r), find_combiners(P))
            norms = (_final_outputs(np.eye(cfg.chain.M, dtype=np.int64), cfg) ** 2).sum(axis=0)
            trace = recursive_detect(np.zeros(cfg.chain.M), cfg).trace
            assert norms.tolist() == [[fs.noise_multiplier] * cfg.chain.m_f for fs in trace.final_sets]

    def test_paths_carry_weight_times_outer_factor(self, F12, P3, P4):
        # on G^T, path p holds weight_p * F^T on its users and zeros on every
        # other user: the design's isolation through the whole chain
        for P, r in itertools.product((P3, P4), range(4)):
            chain = FactorChain(F12, P, r)
            cfg = _cfg(chain, find_combiners(P))
            want = np.zeros((chain.K, chain.m_p**r, chain.m_f), dtype=np.int64)
            for p, fs in enumerate(recursive_detect(np.zeros(chain.M), cfg).trace.final_sets):
                want[list(fs.users), p] = fs.weight * chain.F.entries.T
            assert np.array_equal(_final_outputs(build_chain(chain).entries.T, cfg), want)


def _reference_sets(cfg):
    """Per level, the outputs (path, weight, gain, noise multiplier) in
    kernel order, and the final sets in path order, by the per-path product
    recursion: a child multiplies its parent's values by class j's w_j,
    gamma_j and ||alpha_j||^2.  Under SIC the last level skips class
    m_p - 1, whose set multiplies its parent's by the d rows carrying it."""
    design, m_p, r = cfg.design, cfg.chain.m_p, cfg.chain.r
    norms = [int(a @ a) for a in design.alpha]
    sets = [((), 1, Fraction(1), 1)]
    levels = []
    for level in range(1, r + 1):
        parents = sets
        classes = range(m_p - 1 if cfg.sic and level == r else m_p)
        sets = [(path + (j,), w * design.weights[j], g * design.gains[j], n * norms[j])
                for path, w, g, n in parents for j in classes]
        levels.append(sets)
    if not cfg.sic:
        return levels, sets
    d = int(cfg.chain.P.entries[:, m_p - 1].sum())
    return levels, sorted(sets + [(path + (m_p - 1,), w * d, g * d, n * d) for path, w, g, n in parents])


class TestPlanArrays:
    @pytest.mark.parametrize("sic", [False, True], ids=["map", "sic"])
    def test_trace_matches_per_path_reference(self, F12, P3, P4, sic):
        for P, r in itertools.product((P3, P4), range(1 if sic else 0, 4)):
            cfg = _cfg(FactorChain(F12, P, r), find_combiners(P), sic=sic)
            levels, final = _reference_sets(cfg)
            trace = recursive_detect(np.zeros(cfg.chain.M), cfg).trace
            got = [(rec.paths, rec.weights, rec.gain_products, rec.noise_multipliers)
                   for rec in trace.recursions]
            assert got == [tuple(zip(*sets)) for sets in levels]
            got = [(fs.path, fs.weight, fs.gain, fs.noise_multiplier) for fs in trace.final_sets]
            assert got == final
            assert [fs.used_sic for fs in trace.final_sets] == [sic and s[0][-1] == P.rows - 1 for s in final]
            # exact types: Python ints and Fractions, not numpy scalars
            exact = [v for rec in trace.recursions for v in rec.weights + rec.noise_multipliers]
            exact += [v for fs in trace.final_sets for v in (fs.weight, fs.noise_multiplier)]
            assert {type(v) for v in exact} == {int}
            assert {type(fs.gain) for fs in trace.final_sets} == {Fraction}

    def test_plan_memory(self, F12, P3, design3):
        # the plan holds numeric arrays of one row per path, no object per
        # set: on [1 1] (x) P3^9 it retains about 1.9 MiB, where per-set
        # objects held 11.9 MiB
        cfg = _cfg(FactorChain(F12, P3, 9), design3, sic=True)
        tracemalloc.start()
        try:
            plan = cfg._plan
            retained = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert retained < 4 << 20

        def leaves(value):
            if isinstance(value, tuple):
                for v in value:
                    yield from leaves(v)
            else:
                yield value

        for v in leaves(plan):
            assert isinstance(v, int) or v.dtype.kind in "biuf"

    def test_plan_memory_does_not_grow_with_the_hypotheses(self, P3, design3):
        # F a 1 x 12 row of ones: 4,096 hypotheses per set.  The plan keeps
        # one hypothesis table per distinct offsets row and each set's index
        # into it; with a table and its weighted copy per set it retained
        # 2.3, 5.1 and 15.2 MiB at r = 3, 4 and 5
        F = PatternMatrix(np.ones((1, 12), dtype=np.int64))
        for sic in (False, True):
            cfg = _cfg(FactorChain(F, P3, 5), design3, sic=sic)
            det._hypothesis_indices(2, 12)  # the module's cache, not the plan
            tracemalloc.start()
            try:
                plan = cfg._plan
                retained = tracemalloc.get_traced_memory()[0]
            finally:
                tracemalloc.stop()
            assert retained < 1 << 20
            assert plan.plain.tables.shape == (1, 4096, 1)


def _reference_plain(y, cfg):
    """Plain detection from first principles: the dense combining matrix,
    then an exhaustive sweep per path over all hypotheses (lowest index wins
    ties).  Returns (symbols, ambiguous)."""
    chain, design, con = cfg.chain, cfg.design, cfg.constellation
    z = (combining_matrix(chain, design) @ y).reshape(-1, chain.m_f)
    symbols = np.empty(chain.K, dtype=con.symbols.dtype)
    ambiguous = False
    hyps = list(itertools.product(range(con.size), repeat=chain.k_f))
    for p, path in enumerate(itertools.product(range(chain.m_p), repeat=chain.r)):
        w = math.prod(design.weights[j] for j in path)
        users = list(path_users(chain, path))
        scores = []
        for h in hyps:
            unit = chain.F.entries @ (cfg.power_offsets[users] * con.symbols[list(h)])
            scores.append(float((np.abs(z[p] - w * unit) ** 2).sum()))
        best = scores.index(min(scores))
        ambiguous |= scores.count(scores[best]) > 1
        symbols[users] = con.symbols[list(hyps[best])]
    return symbols, ambiguous


class TestBatchedKernel:
    """detect_batch on a block of trials against per-trial recursive_detect
    (decisions, ambiguity and op counts) and, for the plain final stage,
    against the dense first-principles reference."""

    @pytest.mark.parametrize("mode", ["map", "sic"])
    @pytest.mark.parametrize("con", [BPSK, QPSK], ids=["bpsk", "qpsk"])
    @pytest.mark.parametrize("r", [0, 1, 2, 3])
    @pytest.mark.parametrize("square", ["P3", "P4"])
    def test_matches_per_trial_detection(self, request, F12, square, r, con, mode):
        P = request.getfixturevalue(square)
        chain = FactorChain(F12, P, r)
        design = find_combiners(P)
        G = build_chain(chain)
        rng = np.random.default_rng([r, P.rows, con.size, mode == "sic"])
        for offs in (np.ones(chain.K), rng.uniform(0.5, 1.5, size=chain.K)):
            if mode == "sic" and r == 0:
                with pytest.raises(SicPredecessorError):
                    DetectionConfig(chain, design, con, power_offsets=offs, sic=True)
                continue
            cfg = DetectionConfig(chain, design, con, power_offsets=offs, sic=mode == "sic")
            for nv in (0.0, 0.3, 2.0):
                X = con.symbols[rng.integers(0, con.size, size=(6, chain.K))]
                noise = rng.standard_normal((6, chain.M))
                if con.is_complex:
                    noise = (noise + 1j * rng.standard_normal((6, chain.M))) / math.sqrt(2.0)
                Y = (X * offs) @ G.entries.T + math.sqrt(nv) * noise
                batch = detect_batch(Y, cfg)
                for t, y in enumerate(Y):
                    one = recursive_detect(y, cfg)
                    assert np.array_equal(batch.symbols[t], one.symbols)
                    assert bool(batch.ambiguous[t]) == one.ambiguous
                    assert batch.report == one.report
                    if mode == "map":
                        symbols, ambiguous = _reference_plain(y, cfg)
                        assert np.array_equal(one.symbols, symbols)
                        assert one.ambiguous == ambiguous

    def test_noiseless_ties_are_counted(self, cfg2, chain_9x18):
        # equal powers on F = [1 1]: x_k = -x_k' makes (-1, +1) and (+1, -1)
        # tie exactly; the lower hypothesis index (-1, +1) is decided
        G = build_chain(chain_9x18)
        X = np.ones((2, 18))
        X[0, 9:] = -1.0  # every coupled pair cancels
        batch = detect_batch(X @ G.entries.T, cfg2)
        assert batch.ambiguous.tolist() == [True, False]
        for y, ties in zip(X @ G.entries.T, (2, 1)):
            assert [fs.tie_count for fs in recursive_detect(y, cfg2).trace.final_sets] == [ties] * 9
        assert batch.symbols[0].tolist() == [-1.0] * 9 + [1.0] * 9
        assert batch.symbols[1].tolist() == [1.0] * 18
        assert (batch.report.measured_adds, batch.report.measured_muls) == (108, 144)

    def test_sweep_slicing_does_not_change_results(self, chain_9x18, design3, monkeypatch):
        from kronnoma import detector

        cfg = _cfg(chain_9x18, design3, sic=True)
        G = build_chain(chain_9x18)
        rng = np.random.default_rng(9)
        Y = rng.choice([-1.0, 1.0], size=(7, 18)) @ G.entries.T + rng.standard_normal((7, 9))
        sweep = cfg._plan.plain
        Z = rng.standard_normal((7, len(sweep.positions), 1)) * 4.0
        whole = detect_batch(Y, cfg)
        whole_solve = detector.final_stage_map(sweep, Z, OpCounters())
        monkeypatch.setattr(detector, "_SWEEP_VALUES", 30)  # a trial or two per slice
        sliced = detect_batch(Y, cfg)
        sliced_solve = detector.final_stage_map(sweep, Z, OpCounters())
        assert np.array_equal(whole.symbols, sliced.symbols)
        assert np.array_equal(whole.ambiguous, sliced.ambiguous)
        assert np.array_equal(whole_solve.best, sliced_solve.best)
        assert np.array_equal(whole_solve.ties, sliced_solve.ties)
        assert np.array_equal(whole_solve.units, sliced_solve.units)
        # and per trial, the final sets of one-trial detection: what the
        # sliced cancellation decided from the sliced unit predictions
        for y, symbols, ambiguous in zip(Y, sliced.symbols, sliced.ambiguous):
            one = recursive_detect(y, cfg)
            assert np.array_equal(one.symbols, symbols)
            assert one.ambiguous == ambiguous

    def test_validation(self, cfg2):
        with pytest.raises(ValueError):
            detect_batch(np.zeros(9), cfg2)
        with pytest.raises(ValueError):
            detect_batch(np.zeros((0, 9)), cfg2)


class TestBruteForceOracle:
    def test_noiseless_exact_on_distinct_columns(self, P3):
        # P3 itself is a 3x3 pattern with distinct columns: x recovered exactly
        for x in itertools.product((-1.0, 1.0), repeat=3):
            y = P3.entries @ np.array(x)
            got, ties = brute_force_map_oracle(y, P3, BPSK)
            assert tuple(got) == x
            assert ties == 1

    def test_noiseless_coupled_sums_r1_exhaustive(self, chain_3x6):
        G = build_chain(chain_3x6)
        groups = pattern_groups(G)
        offs = np.ones(6)
        for x in ALL_BPSK_6:
            got, _ = brute_force_map_oracle(G.entries @ x, G, BPSK)
            assert np.array_equal(coupled_sums(got, groups, offs), coupled_sums(x, groups, offs))

    def test_noiseless_coupled_sums_full_scale_once(self, chain_9x18):
        # one 2^18-hypothesis sweep, multi-chunk path included
        G = build_chain(chain_9x18)
        groups = pattern_groups(G)
        offs = np.ones(18)
        x = np.random.default_rng(123).choice([-1.0, 1.0], size=18)
        got, _ = brute_force_map_oracle(G.entries @ x, G, BPSK)
        assert np.array_equal(coupled_sums(got, groups, offs), coupled_sums(x, groups, offs))

    def test_matches_final_stage_map_at_r0(self, F12, cfg0):
        # on G = F the oracle and the final stage are the same MAP problem
        # with the same tie-break
        Z = np.random.default_rng(99).standard_normal((200, 1)) * 3.0
        for z, a in zip(Z, detect_batch(Z, cfg0).symbols):
            b, _ = brute_force_map_oracle(z, F12, BPSK)
            assert np.array_equal(a, b)
        # and the noiseless tie at z = 0 goes to the same lowest index
        assert np.array_equal(detect_batch(np.zeros((1, 1)), cfg0).symbols[0],
                              brute_force_map_oracle(np.zeros(1), F12, BPSK)[0])

    def test_cap(self, chain_9x18):
        # QPSK on 18 users: 4^18 hypotheses, above DEFAULT_ORACLE_CAP (2^20)
        G = build_chain(chain_9x18)
        with pytest.raises(HypothesisCapExceeded):
            brute_force_map_oracle(np.zeros(9), G, QPSK)

    def test_dimension_check(self, P3):
        with pytest.raises(ValueError):
            brute_force_map_oracle(np.zeros(2), P3, BPSK)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(np.nan, 0)])
    def test_non_finite_y_refused(self, P3, bad):
        y = np.array([bad, 1.0, 0.0])
        with pytest.raises(ValueError, match="finite"):
            brute_force_map_oracle(y, P3, BPSK)
        with pytest.raises(ValueError, match="finite"):
            brute_force_map_oracle(np.stack([np.zeros(3, y.dtype), y]), P3, BPSK)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_offsets_refused(self, P3, bad):
        # a NaN offset used to decide (-1, -1, -1) with no tie, and an
        # infinite one to tie all 8 hypotheses
        with pytest.raises(ValueError, match="finite"):
            brute_force_map_oracle(np.array([1.0, 0.0, 2.0]), P3, BPSK, power_offsets=[bad, 1.0, 1.0])


def _offsets(kind: str, K: int, rng) -> np.ndarray:
    """Power offsets: unit, uniform in [0.5, 1.5], or integers from {1, 2}
    (exact sums, so users sharing a column merge into classes, in groups of
    equal and of unequal offsets)."""
    if kind == "unit":
        return np.ones(K)
    if kind == "random":
        return rng.uniform(0.5, 1.5, K)
    return rng.integers(1, 3, K).astype(float)


class TestBatchedOracle:
    @pytest.mark.parametrize(
        "r, con", [(0, BPSK), (0, QPSK), (1, BPSK), (1, QPSK), (2, BPSK)],
        ids=["r0-bpsk", "r0-qpsk", "r1-bpsk", "r1-qpsk", "r2-bpsk"],
    )
    @pytest.mark.parametrize("offsets", ["unit", "random", "integer"])
    def test_matches_per_row_calls(self, F12, P3, r, con, offsets, monkeypatch):
        from kronnoma import detector

        G = build_chain(FactorChain(F12, P3, r))
        rng = np.random.default_rng(100 + 10 * r + con.size)
        offs = None if offsets == "unit" else _offsets(offsets, G.cols, rng)
        X = con.symbols[rng.integers(0, con.size, (3 if r == 2 else 9, G.cols))]
        Y = (X * (1.0 if offs is None else offs)) @ G.entries.T
        noisy = Y + 0.6 * rng.standard_normal(Y.shape)
        if con is QPSK:
            noisy = noisy + 0.6j * rng.standard_normal(Y.shape)
        # noiseless rows first: with unit offsets their coupled users tie
        Y = np.concatenate([Y[:2], noisy])
        found = [brute_force_map_oracle(y, G, con, power_offsets=offs) for y in Y]
        want = np.array([sym for sym, _ in found]), np.array([t for _, t in found])
        for values in (detector._SWEEP_VALUES, 1, 1 << 40):  # default, 1 trial, all trials
            monkeypatch.setattr(detector, "_SWEEP_VALUES", values)
            got_sym, got_ties = brute_force_map_oracle(Y, G, con, power_offsets=offs)
            assert got_sym.shape == (len(Y), G.cols) and got_ties.shape == (len(Y),)
            assert np.array_equal(got_sym, want[0])
            assert np.array_equal(got_ties, want[1])

    def test_noiseless_ties_accumulate_across_chunks(self, chain_9x18, monkeypatch):
        # users i and i + 9 share a pattern column, so swapping the opposite
        # symbols of a pair keeps the score: 2^(opposite pairs) hypotheses
        # tie, one class with that many members, and the lowest index wins
        from kronnoma import detector

        G = build_chain(chain_9x18)
        rng = np.random.default_rng(7)
        X = rng.choice([-1.0, 1.0], size=(4, 18))
        X[:, 9] = -X[:, 0]
        Y = X @ G.entries.T
        opposite = X[:, :9] != X[:, 9:]
        for values in (1, 1 << 40):
            monkeypatch.setattr(detector, "_SWEEP_VALUES", values)
            sym, ties = brute_force_map_oracle(Y, G, BPSK)
            assert ties.tolist() == (2 ** opposite.sum(axis=1)).tolist()
            # the lowest hypothesis index wins: -1 on the lower user of a tied pair
            assert np.array_equal(sym[:, :9][opposite], np.full(opposite.sum(), -1.0))
            assert np.array_equal(sym[:, :9] + sym[:, 9:], X[:, :9] + X[:, 9:])

    def test_batch_shape_checked(self, P3):
        with pytest.raises(ValueError):
            brute_force_map_oracle(np.zeros((2, 2)), P3, BPSK)
        with pytest.raises(ValueError):
            brute_force_map_oracle(np.zeros((1, 2, 3)), P3, BPSK)
        sym, ties = brute_force_map_oracle(np.zeros((0, 3)), P3, BPSK)
        assert sym.shape == (0, 3) and ties.shape == (0,)


def _reference_oracle(Y, G, con, offs):
    """Decisions and tie counts of joint MAP from first principles: every
    hypothesis of itertools.product, its noiseless G (offs . x) and its
    squared distance to each received vector, scored one hypothesis at a
    time."""
    hyps = list(itertools.product(con.symbols, repeat=G.cols))
    score = np.empty((len(Y), len(hyps)))
    for h, x in enumerate(hyps):
        score[:, h] = (np.abs(Y - G.entries @ (offs * np.array(x))) ** 2).sum(axis=1)
    low = score.min(axis=1, keepdims=True)
    best = score.argmin(axis=1)
    return np.array([hyps[b] for b in best]), (score == low).sum(axis=1)


def _per_hypothesis_oracle(Y, G, con, offs):
    """The oracle with every hypothesis its own class: tables of up to
    65,536 hypotheses in index order, the leading users holding a constant
    digit per table, scored one row at a time, the first minimum of each
    table kept."""
    q, K = con.size, G.cols
    j = 0
    while j < K and q ** (j + 1) <= 1 << 16:
        j += 1
    chunk, n_const = q**j, K - j
    scaled = con.symbols * offs[:, None]
    stride = [q ** (K - 1 - k) for k in range(K)]
    column = {
        k: np.tile(np.repeat(scaled[k], stride[k]), q ** (k - n_const)) for k in range(n_const, K)
    }
    row_users = [np.flatnonzero(row).tolist() for row in G.entries]
    pred = np.empty((G.rows, chunk), dtype=scaled.dtype)
    T = Y.shape[0]
    step = max(1, (1 << 17) // chunk)
    score = np.empty((min(step, T), chunk))
    resid = np.empty(score.shape, dtype=np.result_type(Y, pred))
    magnitude = np.empty(score.shape) if resid.dtype.kind == "c" else None
    best_score = np.full(T, math.inf)
    best_idx = np.full(T, -1, dtype=np.int64)
    ties = np.zeros(T, dtype=np.int64)
    for start in range(0, q**K, chunk):
        for m, users in enumerate(row_users):
            const = [scaled[k, start // stride[k] % q] for k in users if k < n_const]
            if start and not const:
                continue
            pred[m] = functools.reduce(operator.add, const, 0)
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
            better = low < best_score[rows]
            equal = low == best_score[rows]
            ties[rows] = np.where(better, count, ties[rows] + equal * count)
            best_idx[rows] = np.where(better, start + first, best_idx[rows])
            best_score[rows] = np.where(better, low, best_score[rows])
    return con.symbols[(best_idx[:, None] // np.array(stride)) % q], ties


class TestClassOracle:
    """Scoring classes of hypotheses gives the per-hypothesis sweep's
    decisions and tie counts bit for bit on the 9x18 BPSK chain."""

    OFFSETS = {
        "unit": np.ones(18),
        "ramp": np.linspace(0.6, 1.4, 18),
        "integer": np.random.default_rng(5).integers(1, 3, 18).astype(float),
        # the magnitudes sum to exactly 2^53 (merged), then to 2^53 + 1
        "at-2^53": np.r_[2.0**53 - 17, np.ones(17)],
        "past-2^53": np.r_[2.0**53 - 16, np.ones(17)],
    }

    @pytest.mark.parametrize("offsets", list(OFFSETS))
    @pytest.mark.parametrize("noise", ["noiseless", "noisy", "midway"])
    def test_matches_per_hypothesis_sweep(self, chain_9x18, offsets, noise, monkeypatch):
        from kronnoma import detector

        G = build_chain(chain_9x18)
        offs = self.OFFSETS[offsets]
        rng = np.random.default_rng(17)
        X = rng.choice([-1.0, 1.0], size=(8, 18))
        if noise == "midway":
            # halfway between two hypotheses that differ in user 0, whose
            # group (users 0 and 9) holds a constant class per table once
            # tables are smaller than all 3^9 classes: tied classes then
            # fall in different tables
            X1 = X.copy()
            X1[:, 0] *= -1
            Y = ((X + X1) / 2 * offs) @ G.entries.T
        else:
            Y = (X * offs) @ G.entries.T
        if noise == "noisy":
            Y = Y + 0.6 * rng.standard_normal(Y.shape)
        want_sym, want_ties = _per_hypothesis_oracle(Y, G, BPSK, offs)
        if offsets in ("unit", "integer") and noise != "noisy":
            assert (want_ties > 1).all()
        merged = []
        real_classes = detector._group_classes

        def spy(rows, merge):
            merged.append(merge)
            return real_classes(rows, merge)

        monkeypatch.setattr(detector, "_group_classes", spy)
        for chunk, values in ((1 << 16, 1 << 17), (6561, 1 << 40), (729, 1)):
            monkeypatch.setattr(detector, "_ORACLE_CHUNK", chunk)
            monkeypatch.setattr(detector, "_SWEEP_VALUES", values)
            sym, ties = brute_force_map_oracle(Y, G, BPSK, power_offsets=offs)
            assert np.array_equal(sym, want_sym)
            assert np.array_equal(ties, want_ties)
        assert set(merged) == {offsets in ("unit", "integer", "at-2^53")}

    @pytest.mark.parametrize("con", [BPSK, QPSK], ids=["bpsk", "qpsk"])
    @pytest.mark.parametrize("offsets", ["unit", "halves", "integer"])
    def test_groups_with_equal_symbols_share_one_build(self, chain_9x18, chain_3x6, con, offsets,
                                                       monkeypatch):
        # groups whose users have the same scaled symbols share their
        # classes: unit offsets give one build (the nine merged groups of
        # 9x18 took nine); offsets 0.75 on the first half of the users and
        # 1.0 on the rest merge nothing and give two builds for all users;
        # integers from {1, 2} merge BPSK groups (j, j + half), one build per
        # distinct pair of offsets.  QPSK never merges, and its 4^18
        # hypotheses on 9x18 are above the cap, so it takes 3x6
        from kronnoma import detector

        G = build_chain(chain_9x18 if con is BPSK else chain_3x6)
        half = G.cols // 2
        offs = {"unit": np.ones(G.cols), "halves": np.r_[np.full(half, 0.75), np.ones(half)],
                "integer": np.random.default_rng(29).integers(1, 3, G.cols).astype(float)}[offsets]
        merge = con is BPSK and offsets != "halves"
        if merge:
            n_builds = len({(offs[j], offs[j + half]) for j in range(half)})
        else:
            n_builds = len(set(offs.tolist()))
        if offsets != "unit":  # some groups share a build and some do not
            assert 1 < n_builds < (half if merge else G.cols)
        rng = np.random.default_rng(31)
        X = con.symbols[rng.integers(0, con.size, (6, G.cols))]
        Y = (X * offs) @ G.entries.T
        noisy = Y + 0.6 * rng.standard_normal(Y.shape)
        if con is QPSK:
            noisy = noisy + 0.6j * rng.standard_normal(Y.shape)
        Y = np.concatenate([Y[:2], noisy[2:]])  # two noiseless rows: coupled users tie
        want_sym, want_ties = _per_hypothesis_oracle(Y, G, con, offs)
        builds = []
        real_classes = detector._group_classes

        def spy(rows, merge):
            builds.append(merge)
            return real_classes(rows, merge)

        monkeypatch.setattr(detector, "_group_classes", spy)
        for chunk, values in ((1 << 16, 1 << 17), (6561, 1 << 40), (729, 1)):
            monkeypatch.setattr(detector, "_ORACLE_CHUNK", chunk)
            monkeypatch.setattr(detector, "_SWEEP_VALUES", values)
            builds.clear()
            sym, ties = brute_force_map_oracle(Y, G, con, power_offsets=offs)
            assert np.array_equal(sym, want_sym)
            assert np.array_equal(ties, want_ties)
            assert builds == [merge] * n_builds

    def test_lower_index_scored_later_wins(self, chain_9x18, monkeypatch):
        # users 0 and 9 share a column; with offsets 1 and 2 the class of
        # (x_0, x_9) = (+1, -1), sum -1, comes before that of (-1, +1), sum
        # +1, but has the higher index (2^17 against 2^8).  Halfway between
        # them both score the same, in one table or, once group (0, 9)
        # holds one class per table, in two, the lower index scored second
        from kronnoma import detector

        G = build_chain(chain_9x18)
        offs = np.ones(18)
        offs[9] = 2.0
        X = np.random.default_rng(23).choice([-1.0, 1.0], size=(8, 18))
        X[:, 0], X[:, 9] = 0.0, 0.0
        Y = (X * offs) @ G.entries.T
        want_sym, want_ties = _per_hypothesis_oracle(Y, G, BPSK, offs)
        assert (want_sym[:, [0, 9]] == [-1.0, 1.0]).all() and (want_ties >= 2).all()
        for chunk in (1 << 16, 6561):
            monkeypatch.setattr(detector, "_ORACLE_CHUNK", chunk)
            sym, ties = brute_force_map_oracle(Y, G, BPSK, power_offsets=offs)
            assert np.array_equal(sym, want_sym)
            assert np.array_equal(ties, want_ties)


class TestOracleReference:
    @pytest.mark.parametrize("r", [0, 1])
    @pytest.mark.parametrize("con", [BPSK, QPSK], ids=["bpsk", "qpsk"])
    @pytest.mark.parametrize("offsets", ["unit", "random", "integer"])
    @pytest.mark.parametrize("noise", ["noiseless", "noisy"])
    def test_matches_enumeration(self, F12, P3, r, con, offsets, noise, monkeypatch):
        from kronnoma import detector

        G = build_chain(FactorChain(F12, P3, r))
        rng = np.random.default_rng(300 + 10 * r + con.size)
        offs = _offsets(offsets, G.cols, rng)
        X = con.symbols[rng.integers(0, con.size, (12, G.cols))]
        Y = (X * offs) @ G.entries.T
        if noise == "noisy":
            Y = Y + 0.6 * rng.standard_normal(Y.shape)
            if con is QPSK:
                Y = Y + 0.6j * rng.standard_normal(Y.shape)
        want_sym, want_ties = _reference_oracle(Y, G, con, offs)
        if offsets == "unit" and noise == "noiseless" and r == 1:
            # users j and j + 3 share a column: swapped unequal symbols tie
            assert (want_ties > 1).any()
        n_hyp = con.size**G.cols
        assert n_hyp < detector._ORACLE_CHUNK
        # one table for all classes, then tables of at most 16, 8, q and one
        # class, each rounded down to a product of whole groups' class
        # counts (mixed radix), so the leading groups hold a constant class
        # per table and ties accumulate across tables
        for chunk in (detector._ORACLE_CHUNK, 16, 8, con.size, 1):
            monkeypatch.setattr(detector, "_ORACLE_CHUNK", chunk)
            sym, ties = brute_force_map_oracle(Y, G, con, power_offsets=offs)
            assert np.array_equal(sym, want_sym)
            assert np.array_equal(ties, want_ties)

    # layouts whose rows reach the class axes out of order: a column that no
    # row touches, in the middle or last (the running score is then widened
    # after the last row), all-zero rows (the first one scored over a single
    # class), and the rows of [1 1] (x) P3 reversed, so that the first row
    # already reaches the last axis.  [[1 0 1], [0 0 1]] (x) P3 has 4^9 QPSK
    # hypotheses, too many to enumerate here, so QPSK takes it with [1 1]
    # in place of P3
    LAYOUTS = {
        "zero-column-middle": np.kron([[1, 0, 1], [0, 0, 1]], P3_ROWS),
        "zero-column-middle-small": np.kron([[1, 0, 1], [0, 0, 1]], [[1, 1]]),
        "zero-column-last": np.c_[np.kron([[1, 1]], P3_ROWS), np.zeros(3, int)],
        "zero-rows": np.insert(np.kron([[1, 1]], P3_ROWS), [0, 2], 0, axis=0),
        "reversed-rows": np.kron([[1, 1]], P3_ROWS)[::-1],
    }

    @pytest.mark.parametrize("layout, con", [
        pytest.param(layout, con, id=f"{layout}-{name}")
        for layout in LAYOUTS
        for con, name in ((BPSK, "bpsk"), (QPSK, "qpsk"))
        if (layout, name) != ("zero-column-middle", "qpsk")
    ])
    @pytest.mark.parametrize("offsets", ["unit", "random"])
    def test_layouts_match_enumeration(self, layout, con, offsets, monkeypatch):
        from kronnoma import detector

        G = PatternMatrix(self.LAYOUTS[layout])
        rng = np.random.default_rng(400 + con.size)
        offs = _offsets(offsets, G.cols, rng)
        X = con.symbols[rng.integers(0, con.size, (8, G.cols))]
        Y = (X * offs) @ G.entries.T
        noisy = Y + 0.6 * rng.standard_normal(Y.shape)
        if con is QPSK:
            noisy = noisy + 0.6j * rng.standard_normal(Y.shape)
        Y = np.concatenate([Y[:2], noisy[2:]])  # two noiseless rows: coupled users tie
        want_sym, want_ties = _reference_oracle(Y, G, con, offs)
        if layout.startswith("zero-column"):  # users that no row touches tie in every trial
            assert (want_ties > 1).all()
        for chunk in (detector._ORACLE_CHUNK, 16, 8, con.size, 1):
            monkeypatch.setattr(detector, "_ORACLE_CHUNK", chunk)
            sym, ties = brute_force_map_oracle(Y, G, con, power_offsets=offs)
            assert np.array_equal(sym, want_sym)
            assert np.array_equal(ties, want_ties)

    def test_peak_memory_9x18(self, chain_9x18):
        # one 2^18-hypothesis call on 8 trials: 3^9 classes, so prediction
        # rows of at most 19,683 classes and one score block (about 3.1 MiB),
        # far below the 2^18 x 9 table; no user has a column over the table
        # (with 18 such columns the call peaked at 6.35 MiB)
        import tracemalloc

        G = build_chain(chain_9x18)
        rng = np.random.default_rng(11)
        Y = rng.choice([-1.0, 1.0], size=(8, 18)) @ G.entries.T + rng.standard_normal((8, 9))
        tracemalloc.start()
        try:
            brute_force_map_oracle(Y, G, BPSK)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4.5 * 2**20

    def test_peak_memory_9x18_unmerged(self, chain_9x18):
        # non-integer offsets: every hypothesis is its own class, in four
        # tables of 65,536 (about 5.2 MiB); a table's classes are then
        # numbered by position, so no chunk-long arrays of representatives
        # and multiplicities are built (with them the call peaked at 15.77
        # MiB), and no user has a column over the table (with 16 such
        # columns it peaked at 14.77 MiB)
        import tracemalloc

        G = build_chain(chain_9x18)
        offs = np.linspace(0.6, 1.4, 18)
        rng = np.random.default_rng(11)
        Y = (rng.choice([-1.0, 1.0], size=(8, 18)) * offs) @ G.entries.T + rng.standard_normal((8, 9))
        tracemalloc.start()
        try:
            brute_force_map_oracle(Y, G, BPSK, power_offsets=offs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 7 * 2**20


@st.composite
def _oracle_cases(draw):
    """A pattern matrix of up to 7 rows and 12 BPSK or 6 QPSK users, power
    offsets, and received vectors.  BPSK offsets are unit, integer, integer
    times 2^40 or a dyadic ramp, so every prediction is exact in any order
    of addition and the reference's scores are the oracle's, bit for bit;
    its received vectors are noiseless, noisy, exact midpoints between two
    hypotheses, or near the float range (y = Gx of about 1e155, some of
    whose squared distances overflow).  QPSK sums round in an order of
    their own, so its exact ties would be decided by rounding: its offsets
    1 + 2^-(k+1) give every hypothesis a distinct prediction, and its
    received vectors are noiseless, noisy or near the float range."""
    con = draw(st.sampled_from([BPSK, QPSK]))
    K = draw(st.integers(1, 12 if con is BPSK else 6))
    M = draw(st.integers(1, 7))
    G = PatternMatrix(np.array(draw(st.lists(st.lists(st.integers(0, 1), min_size=K, max_size=K),
                                             min_size=M, max_size=M))))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if con is BPSK:
        kind = draw(st.sampled_from(["unit", "integer", "2^40", "ramp"]))
        offs = {"unit": np.ones(K), "integer": rng.integers(1, 4, K).astype(float),
                "2^40": rng.integers(1, 4, K) * 2.0**40, "ramp": 0.75 + np.arange(K) / 8}[kind]
        received = draw(st.sampled_from(["noiseless", "noisy", "midpoint", "near-range"]))
    else:
        offs = 1 + 2.0 ** -np.arange(1, K + 1)
        received = draw(st.sampled_from(["noiseless", "noisy", "near-range"]))
    T = draw(st.integers(1, 3))
    X = con.symbols[rng.integers(0, con.size, (T, K))]
    if received == "midpoint":  # halfway to a hypothesis that differs in some users
        other = X.copy()
        flip = rng.random((T, K)) < 0.5
        flip[np.arange(T), rng.integers(0, K, T)] = True
        other[flip] *= -1
        X = (X + other) / 2
    if received == "near-range":
        offs = offs * 2.0**515
    Y = (X * offs) @ G.entries.T
    if received == "noisy":
        Y = Y + 0.6 * offs.max() * rng.standard_normal(Y.shape)
    if received == "near-range" and draw(st.booleans()):
        Y = Y + 2.0**-12 * offs.max() * rng.standard_normal(Y.shape)
    if received == "noisy" and con is QPSK:
        Y = Y + 0.6j * rng.standard_normal(Y.shape)
    chunk = draw(st.sampled_from([det._ORACLE_CHUNK, 64, 8]))
    return G, con, offs, Y, chunk


@given(_oracle_cases())
# one user that no row touches, so both hypotheses score y^2 = 2^1086,
# beyond the float range: every score is infinite and the first one wins
@example((PatternMatrix(np.array([[0]])), BPSK, np.array([2.0**555]), np.array([[2.0**543]]),
          det._ORACLE_CHUNK))
@settings(max_examples=120, deadline=None)
def test_oracle_matches_reference_property(case):
    """The screen keeps every best class of every table, whatever the
    layout, offsets and received vectors, and across tables."""
    from unittest import mock

    G, con, offs, Y, chunk = case
    with np.errstate(over="ignore"):  # near the float range squared distances overflow
        want_sym, want_ties = _reference_oracle(Y, G, con, offs)
        with mock.patch.object(det, "_ORACLE_CHUNK", chunk):
            sym, ties = brute_force_map_oracle(Y, G, con, power_offsets=offs)
    assert np.array_equal(sym, want_sym)
    assert np.array_equal(ties, want_ties)


class TestSic:
    def test_noiseless_equals_plain_r1_exhaustive(self, chain_3x6, design3):
        plain = _cfg(chain_3x6, design3)
        sic = _cfg(chain_3x6, design3, sic=True)
        G = build_chain(chain_3x6)
        for x in ALL_BPSK_6:
            y = G.entries @ x
            assert np.array_equal(
                recursive_detect(y, plain).symbols,
                recursive_detect(y, sic).symbols,
            )

    def test_noiseless_equals_plain_r2_sampled(self, chain_9x18, design3):
        plain = _cfg(chain_9x18, design3)
        sic = _cfg(chain_9x18, design3, sic=True)
        G = build_chain(chain_9x18)
        for seed in range(30):
            x = np.random.default_rng(seed).choice([-1.0, 1.0], size=18)
            y = G.entries @ x
            assert np.array_equal(
                recursive_detect(y, plain).symbols,
                recursive_detect(y, sic).symbols,
            )

    def test_noiseless_equals_plain_when_classes_share_two_equations(self, F12):
        # class 3 of this factor shares two equations with class 2, so class
        # 2's reconstruction is subtracted twice from class 3's sum
        P = PatternMatrix(np.array([[1, 0, 1, 1], [0, 1, 0, 0], [0, 0, 1, 1], [0, 0, 0, 1]]))
        design = find_combiners(P)
        chain = FactorChain(F12, P, 2)
        plain = _cfg(chain, design)
        sic = _cfg(chain, design, sic=True)
        G = build_chain(chain)
        rng = np.random.default_rng(21)
        for _ in range(10):
            y = G.entries @ rng.choice([-1.0, 1.0], size=G.cols)
            assert np.array_equal(
                recursive_detect(y, plain).symbols,
                recursive_detect(y, sic).symbols,
            )

    def test_worked_instance_algebra(self, chain_9x18, design3):
        """Cancellation on the last recursion: summing the two equations that
        carry class 2 and subtracting the decided classes leaves 4*t with
        noise factor 6 and gain 8/3 — column weight 2 instead of gamma 4/3."""
        cfg = _cfg(chain_9x18, design3, sic=True)
        G = build_chain(chain_9x18)
        x = np.random.default_rng(17).choice([-1.0, 1.0], size=18)
        res = recursive_detect(G.entries @ x, cfg)
        sic_sets = [fs for fs in res.trace.final_sets if fs.used_sic]
        assert len(sic_sets) == 3
        for fs in sic_sets:
            assert fs.path[-1] == 2
            assert fs.weight == 4
            assert fs.noise_multiplier == 6
            assert fs.gain == Fraction(8, 3)
            k, k9 = fs.users
            assert fs.values[0] == 4.0 * (x[k] + x[k9])  # exact cancellation
        plain_sets = [fs for fs in res.trace.final_sets if not fs.used_sic]
        assert all(fs.gain == Fraction(16, 9) for fs in plain_sets)

    @pytest.mark.parametrize("r", [1, 2])
    def test_unit_inner_factor_decides_every_set_by_cancellation(self, F12, r):
        # with P = [[1]] every path carries class m_p - 1 = 0, so the plain
        # sweep holds no set and the cancellation decides them all
        chain = FactorChain(F12, PatternMatrix(np.array([[1]])), r)
        design = find_combiners(chain.P)
        plain = _cfg(chain, design)
        sic = _cfg(chain, design, sic=True)
        assert sic._plan.plain.positions.size == 0
        for y, want, ties in [(2.0, (1, 1), 1), (0.0, (-1, 1), 2), (-1.5, (-1, -1), 1), (0.3, (-1, 1), 2)]:
            a, b = recursive_detect(np.array([y]), plain), recursive_detect(np.array([y]), sic)
            assert a.symbols.tolist() == b.symbols.tolist() == list(want)
            assert [fs.tie_count for fs in b.trace.final_sets] == [ties]
            assert a.report == b.report

    def test_r0_with_sic_violates(self, F12, P3, design3):
        # refused when configured: no level combines a class to cancel
        chain = FactorChain(F12, P3, 0)
        with pytest.raises(SicPredecessorError):
            _cfg(chain, design3, sic=True)

    def test_batch_call_contract(self, chain_9x18, design3):
        cfg = _cfg(chain_9x18, design3, sic=True)
        with pytest.raises(ValueError):
            detect_batch(np.zeros((1, 5)), cfg)
        with pytest.raises(ValueError):
            detect_batch(np.zeros(9), cfg)

    def test_ops_stay_within_sic_bounds(self, chain_9x18, design3):
        cfg = _cfg(chain_9x18, design3, sic=True)
        G = build_chain(chain_9x18)
        res = recursive_detect(G.entries @ np.ones(18), cfg)
        # skipping class 2's combining saves adds; cancellation adds some back
        assert res.report.measured_adds == 111
        assert res.report.measured_muls == 150
        assert res.report.bounds.total_adds == 126
        assert res.report.bounds.total_muls == 162


class TestDetectionConfig:
    def test_receiver_size_counts_values(self, F12, P3, P4, monkeypatch):
        # one trial's M + K values; the plan refuses past the bound
        for P in (PatternMatrix(np.array([[1]])), PatternMatrix(np.eye(2, dtype=int)), P3, P4):
            for r in range(6):
                chain = FactorChain(F12, P, r)
                monkeypatch.setattr(det, "MAX_RECEIVER_VALUES", chain.M + chain.K)
                det.check_receiver_size(chain)
                monkeypatch.setattr(det, "MAX_RECEIVER_VALUES", chain.M + chain.K - 1)
                with pytest.raises(DimensionOverflowError, match="refuse to build"):
                    _cfg(chain, find_combiners(P))._plan

    def test_design_chain_mismatch(self, chain_9x18, P4):
        with pytest.raises(DetectionError):
            _cfg(chain_9x18, find_combiners(P4))

    def test_offsets_validated(self, chain_9x18, design3):
        with pytest.raises(DetectionError):
            _cfg(chain_9x18, design3, power_offsets=np.ones(5))
        with pytest.raises(DetectionError):
            _cfg(chain_9x18, design3, power_offsets=np.zeros(18))
        for bad in (np.nan, np.inf):
            offs = np.ones(18)
            offs[3] = bad
            with pytest.raises(DetectionError):
                _cfg(chain_9x18, design3, power_offsets=offs)

    def test_sic_must_be_bool(self, chain_9x18, design3):
        # the switch is a bool: a class index, a truthy string or a numpy
        # bool is refused, not read as True or False
        for bad in (1, 0, "yes", (2,), None, np.bool_(True)):
            with pytest.raises(DetectionError):
                _cfg(chain_9x18, design3, sic=bad)
        assert _cfg(chain_9x18, design3, sic=True).sic is True

    def test_y_validated(self, cfg2):
        with pytest.raises(ValueError):
            recursive_detect(np.zeros(8), cfg2)


class TestNegativeWeightDesign:
    def test_sign_flipped_rows_detect_identically(self, chain_9x18, design3):
        # a hand-built design with one sign-flipped row (negative weight) is
        # a valid contract instance and must decide identically
        alpha = design3.alpha.copy()
        alpha[1] = -alpha[1]
        flipped = CombinerDesign(
            P=design3.P,
            alpha=alpha,
            weights=(2, -2, 2),
            gains=design3.gains,
        )
        cfg_a = _cfg(chain_9x18, design3)
        cfg_b = _cfg(chain_9x18, flipped)
        G = build_chain(chain_9x18)
        rng = np.random.default_rng(8)
        for _ in range(5):
            x = rng.choice([-1.0, 1.0], size=18)
            y = G.entries @ x + 0.3 * rng.standard_normal(9)
            a = recursive_detect(y, cfg_a)
            b = recursive_detect(y, cfg_b)
            assert np.array_equal(a.symbols, b.symbols)


class TestComplexConstellation:
    def test_qpsk_noiseless_round_trip(self, chain_3x6, design3):
        cfg = DetectionConfig(chain=chain_3x6, design=design3, constellation=QPSK)
        G = build_chain(chain_3x6)
        groups = pattern_groups(G)
        rng = np.random.default_rng(4)
        for _ in range(10):
            x = QPSK.symbols[rng.integers(0, 4, size=6)]
            res = recursive_detect(G.entries @ x, cfg)
            assert np.array_equal(
                coupled_sums(res.symbols, groups, cfg.power_offsets),
                coupled_sums(x, groups, cfg.power_offsets),
            )


class TestOffsetsResolveIndividuals:
    def test_power_offsets_recover_every_user(self, chain_3x6, design3):
        # offsets (1, 1/2) per coupled pair make F (offs . x) injective over
        # BPSK, so noiseless detection recovers each individual symbol
        offs = np.array([1.0] * 3 + [0.5] * 3)
        cfg = _cfg(chain_3x6, design3, power_offsets=offs)
        G = build_chain(chain_3x6)
        for x in ALL_BPSK_6:
            y = G.entries @ (offs * x)
            res = recursive_detect(y, cfg)
            assert np.array_equal(res.symbols, x)
            assert not res.ambiguous


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_noiseless_round_trip_property(chain_9x18, design3, seed):
    """Coupled-group sums always survive the noiseless round trip."""
    cfg = DetectionConfig(chain=chain_9x18, design=design3, constellation=BPSK)
    G = build_chain(chain_9x18)
    groups = pattern_groups(G)
    x = np.random.default_rng(seed).choice([-1.0, 1.0], size=18)
    res = recursive_detect(G.entries @ x, cfg)
    assert np.array_equal(
        coupled_sums(res.symbols, groups, cfg.power_offsets),
        coupled_sums(x, groups, cfg.power_offsets),
    )
