"""Recursive detection: exact algebra, op accounting, SIC, and the oracle."""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kronnoma import (
    BPSK,
    QPSK,
    CombinerDesign,
    DetectionConfig,
    DetectionError,
    FactorChain,
    HypothesisCapExceeded,
    PatternMatrix,
    SicPredecessorError,
    brute_force_map_oracle,
    build_chain,
    combining_matrix,
    coupled_sums,
    detect_batch,
    final_stage_costs,
    final_stage_map,
    find_combiners,
    op_count_bounds,
    path_users,
    pattern_groups,
    recursive_detect,
    sic_enhanced_final,
    synthesize_rx,
)

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
    def test_reference_mapping(self, chain_9x18):
        # branch t (0-based) carries place value m_p^t; seed column adds k_f strides
        assert path_users(chain_9x18, (0, 0)) == (0, 9)
        assert path_users(chain_9x18, (1, 0)) == (1, 10)
        assert path_users(chain_9x18, (0, 1)) == (3, 12)
        assert path_users(chain_9x18, (2, 2)) == (8, 17)

    def test_r0(self, F12, P3):
        chain = FactorChain(F12, P3, 0)
        assert path_users(chain, ()) == (0, 1)

    def test_every_user_exactly_once(self, chain_9x18):
        seen = []
        for path in itertools.product(range(3), repeat=2):
            seen.extend(path_users(chain_9x18, path))
        assert sorted(seen) == list(range(18))

    def test_wrong_length(self, chain_9x18):
        with pytest.raises(ValueError):
            path_users(chain_9x18, (0,))


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
        G = build_chain(chain_9x18)
        x = np.ones(18)
        x[9:] = -1.0  # x_{k+9} = -x_k: every coupled sum vanishes
        y = synthesize_rx(x, G, 0.0)
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


class TestFinalStageMap:
    def test_unique_maximizer(self, F12):
        decided, ties, unit = final_stage_map(np.array([8.0]), F12, 4, BPSK)
        assert decided == (1.0, 1.0)
        assert ties == 1
        assert unit.tolist() == [2.0]

    def test_zero_tie_equal_powers(self, F12):
        decided, ties, _ = final_stage_map(np.array([0.0]), F12, 4, BPSK)
        assert ties == 2
        assert decided == (-1.0, 1.0)  # lowest hypothesis index among the tied pair

    def test_offsets_make_hypotheses_injective(self, F12):
        # with offsets (1, 1/2) all four predictions differ, and every
        # noiseless input is recovered exactly; the exact midpoint z=0
        # nevertheless remains equidistant from two hypotheses
        offs = np.array([1.0, 0.5])
        preds = set()
        for x in itertools.product((-1.0, 1.0), repeat=2):
            z = np.array([4.0 * (x[0] * 1.0 + x[1] * 0.5)])
            decided, ties, _ = final_stage_map(z, F12, 4, BPSK, power_offsets=offs)
            assert decided == x
            assert ties == 1
            preds.add(float(z[0]))
        assert len(preds) == 4
        _, ties, _ = final_stage_map(np.array([0.0]), F12, 4, BPSK, power_offsets=offs)
        assert ties == 2

    def test_decided_sum_is_nearest_hypothesis_sum(self, F12):
        # equal powers: the decided coupled sum is always a nearest point of
        # {-2, 0, 2} to z / weight
        for z in np.linspace(-12.0, 12.0, 97):
            decided, _, _ = final_stage_map(np.array([z]), F12, 4, BPSK)
            got = sum(decided)
            dist = abs(got - z / 4.0)
            best = min(abs(s - z / 4.0) for s in (-2.0, 0.0, 2.0))
            assert dist == pytest.approx(best, abs=1e-12)

    def test_weight_must_be_positive(self, F12):
        with pytest.raises(ValueError):
            final_stage_map(np.array([1.0]), F12, 0, BPSK)
        with pytest.raises(ValueError):
            final_stage_map(np.array([1.0]), F12, -4, BPSK)

    def test_hypothesis_cap(self):
        # 2^12 hypotheses fill DEFAULT_HYPOTHESIS_CAP (4096); 2^13 exceed it
        decided, _, _ = final_stage_map(np.array([12.0]), PatternMatrix(np.ones((1, 12))), 1, BPSK)
        assert decided == (1.0,) * 12
        with pytest.raises(HypothesisCapExceeded):
            final_stage_map(np.array([1.0]), PatternMatrix(np.ones((1, 13))), 1, BPSK)

    def test_dimension_checks(self, F12):
        with pytest.raises(ValueError):
            final_stage_map(np.array([1.0, 2.0]), F12, 1, BPSK)
        with pytest.raises(ValueError):
            final_stage_map(np.array([1.0]), F12, 1, BPSK, power_offsets=np.ones(3))


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
    from kronnoma import CombinerInfeasible, enumerate_square_candidates

    for P in enumerate_square_candidates(m_p):
        try:
            return find_combiners(P)
        except CombinerInfeasible:
            continue
    raise AssertionError("no feasible design")


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
        sic = dict(sic_symbols=(P.rows - 1,)) if mode == "sic" else {}
        for offs in (np.ones(chain.K), rng.uniform(0.5, 1.5, size=chain.K)):
            cfg = DetectionConfig(chain, design, con, power_offsets=offs, **sic)
            for nv in (0.0, 0.3, 2.0):
                X = con.symbols[rng.integers(0, con.size, size=(6, chain.K))]
                noise = rng.standard_normal((6, chain.M))
                if con.is_complex:
                    noise = (noise + 1j * rng.standard_normal((6, chain.M))) / math.sqrt(2.0)
                Y = (X * offs) @ G.entries.T + math.sqrt(nv) * noise
                if mode == "sic" and r == 0:
                    with pytest.raises(SicPredecessorError):
                        detect_batch(Y, cfg)
                    continue
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
        assert batch.tie_counts[0].tolist() == [2] * 9
        assert batch.tie_counts[1].tolist() == [1] * 9
        assert batch.symbols[0].tolist() == [-1.0] * 9 + [1.0] * 9
        assert batch.symbols[1].tolist() == [1.0] * 18
        assert (batch.report.measured_adds, batch.report.measured_muls) == (108, 144)

    def test_sweep_slicing_does_not_change_results(self, chain_9x18, design3, monkeypatch):
        from kronnoma import detector

        cfg = _cfg(chain_9x18, design3, sic_symbols=(2,))
        G = build_chain(chain_9x18)
        rng = np.random.default_rng(9)
        Y = rng.choice([-1.0, 1.0], size=(7, 18)) @ G.entries.T + rng.standard_normal((7, 9))
        whole = detect_batch(Y, cfg)
        monkeypatch.setattr(detector, "_SWEEP_VALUES", 30)  # a trial or two per slice
        sliced = detect_batch(Y, cfg)
        assert np.array_equal(whole.symbols, sliced.symbols)
        assert np.array_equal(whole.tie_counts, sliced.tie_counts)
        assert np.array_equal(whole.unit_predictions, sliced.unit_predictions)

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

    def test_matches_final_stage_map_at_r0(self, F12):
        # on G = F the oracle and the final stage are the same MAP problem
        # with the same tie-break
        chainF = PatternMatrix(np.array([[1, 1]]))
        rng = np.random.default_rng(99)
        for _ in range(200):
            z = rng.standard_normal(1) * 3.0
            a, _, _ = final_stage_map(z, F12, 1, BPSK)
            b, _ = brute_force_map_oracle(z, chainF, BPSK)
            assert a == tuple(b)

    def test_cap(self, chain_9x18):
        # QPSK on 18 users: 4^18 hypotheses, above DEFAULT_ORACLE_CAP (2^20)
        G = build_chain(chain_9x18)
        with pytest.raises(HypothesisCapExceeded):
            brute_force_map_oracle(np.zeros(9), G, QPSK)

    def test_dimension_check(self, P3):
        with pytest.raises(ValueError):
            brute_force_map_oracle(np.zeros(2), P3, BPSK)


class TestBatchedOracle:
    @pytest.mark.parametrize(
        "r, con", [(0, BPSK), (0, QPSK), (1, BPSK), (1, QPSK), (2, BPSK)],
        ids=["r0-bpsk", "r0-qpsk", "r1-bpsk", "r1-qpsk", "r2-bpsk"],
    )
    @pytest.mark.parametrize("offsets", ["unit", "random"])
    def test_matches_per_row_calls(self, F12, P3, r, con, offsets, monkeypatch):
        from kronnoma import detector

        G = build_chain(FactorChain(F12, P3, r))
        rng = np.random.default_rng(100 + 10 * r + con.size)
        offs = None if offsets == "unit" else rng.uniform(0.5, 1.5, G.cols)
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
        # users i and i + 9 share a pattern column; user 0 is the most
        # significant digit, so swapping x_0 and x_9 moves a hypothesis to
        # another 65,536-hypothesis chunk
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


class TestOracleReference:
    @pytest.mark.parametrize("r", [0, 1])
    @pytest.mark.parametrize("con", [BPSK, QPSK], ids=["bpsk", "qpsk"])
    @pytest.mark.parametrize("offsets", ["unit", "random"])
    @pytest.mark.parametrize("noise", ["noiseless", "noisy"])
    def test_matches_enumeration(self, F12, P3, r, con, offsets, noise, monkeypatch):
        from kronnoma import detector

        G = build_chain(FactorChain(F12, P3, r))
        rng = np.random.default_rng(300 + 10 * r + con.size)
        offs = np.ones(G.cols) if offsets == "unit" else rng.uniform(0.5, 1.5, G.cols)
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
        # one table for all hypotheses, then tables of q, q^2 and one
        # hypothesis (8 rounds down to a power of q), so the leading users
        # hold a constant digit per table and ties accumulate across tables
        for chunk in (detector._ORACLE_CHUNK, 16, 8, con.size, 1):
            monkeypatch.setattr(detector, "_ORACLE_CHUNK", chunk)
            sym, ties = brute_force_map_oracle(Y, G, con, power_offsets=offs)
            assert np.array_equal(sym, want_sym)
            assert np.array_equal(ties, want_ties)

    def test_peak_memory_9x18(self, chain_9x18):
        # one 2^18-hypothesis call on 8 trials: per-user columns, one
        # prediction table and one score block, far below the 2^18 x 9 table
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
        assert peak < 20 * 2**20


class TestSic:
    def test_noiseless_equals_plain_r1_exhaustive(self, chain_3x6, design3):
        plain = _cfg(chain_3x6, design3)
        sic = _cfg(chain_3x6, design3, sic_symbols=(2,))
        G = build_chain(chain_3x6)
        for x in ALL_BPSK_6:
            y = G.entries @ x
            assert np.array_equal(
                recursive_detect(y, plain).symbols,
                recursive_detect(y, sic).symbols,
            )

    def test_noiseless_equals_plain_r2_sampled(self, chain_9x18, design3):
        plain = _cfg(chain_9x18, design3)
        sic = _cfg(chain_9x18, design3, sic_symbols=(2,))
        G = build_chain(chain_9x18)
        for seed in range(30):
            x = np.random.default_rng(seed).choice([-1.0, 1.0], size=18)
            y = G.entries @ x
            assert np.array_equal(
                recursive_detect(y, plain).symbols,
                recursive_detect(y, sic).symbols,
            )

    def test_noiseless_equals_plain_when_classes_share_two_equations(self, F12):
        # class 2 of this factor shares two equations with class 3, so class
        # 3's reconstruction is subtracted twice from class 2's sum
        P = PatternMatrix(np.array([[1, 0, 1, 1], [0, 1, 0, 0], [0, 0, 1, 1], [0, 0, 0, 1]]))
        design = find_combiners(P)
        chain = FactorChain(F12, P, 2)
        plain = _cfg(chain, design)
        sic = _cfg(chain, design, sic_symbols=(2,))
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
        cfg = _cfg(chain_9x18, design3, sic_symbols=(2,))
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

    def test_predecessor_violation(self, chain_9x18, design3):
        # classes 1 and 2 overlap; cancelling both leaves class 1 without a
        # decided class 2 to reconstruct
        cfg = _cfg(chain_9x18, design3, sic_symbols=(1, 2))
        G = build_chain(chain_9x18)
        y = G.entries @ np.ones(18)
        with pytest.raises(SicPredecessorError):
            recursive_detect(y, cfg)

    def test_all_sic_violates(self, chain_9x18, design3):
        cfg = _cfg(chain_9x18, design3, sic_symbols=(0, 1, 2))
        G = build_chain(chain_9x18)
        with pytest.raises(SicPredecessorError):
            recursive_detect(G.entries @ np.ones(18), cfg)

    def test_r0_with_sic_violates(self, F12, P3, design3):
        chain = FactorChain(F12, P3, 0)
        cfg = _cfg(chain, design3, sic_symbols=(2,))
        with pytest.raises(SicPredecessorError):
            recursive_detect(np.zeros(1), cfg)

    def test_direct_call_contract(self, chain_9x18, design3):
        cfg = _cfg(chain_9x18, design3, sic_symbols=(2,))
        with pytest.raises(SicPredecessorError):
            sic_enhanced_final(np.zeros(3), {}, cfg)
        with pytest.raises(ValueError):
            sic_enhanced_final(np.zeros(5), {}, cfg)

    def test_ops_stay_within_sic_bounds(self, chain_9x18, design3):
        cfg = _cfg(chain_9x18, design3, sic_symbols=(2,))
        G = build_chain(chain_9x18)
        res = recursive_detect(G.entries @ np.ones(18), cfg)
        # skipping class 2's combining saves adds; cancellation adds some back
        assert res.report.measured_adds == 111
        assert res.report.measured_muls == 150
        assert res.report.bounds.total_adds == 126
        assert res.report.bounds.total_muls == 162


class TestDetectionConfig:
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

    def test_mode_validated(self, chain_9x18, design3):
        with pytest.raises(DetectionError):
            _cfg(chain_9x18, design3, sic_symbols=(7,))

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
