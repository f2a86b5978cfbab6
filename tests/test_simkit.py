"""Constellations, seeded synthesis, calibration, and the Monte Carlo loop."""

import dataclasses
import hashlib
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kronnoma import (
    BPSK,
    QPSK,
    Constellation,
    DetectionConfig,
    DetectionError,
    FactorChain,
    HypothesisCapExceeded,
    PatternMatrix,
    build_chain,
    find_combiners,
    pattern_groups,
    recursive_detect,
    run_monte_carlo,
    synthesize_rx,
    trial_rng,
)
from kronnoma import detector as det
from kronnoma import pattern, simkit
from kronnoma.simkit import wilson_interval
from conftest import reference_noise


class TestConstellation:
    def test_bpsk(self):
        assert BPSK.symbols.tolist() == [-1.0, 1.0]
        assert BPSK.average_power == 1.0
        assert not BPSK.is_complex

    def test_qpsk_unit_power(self):
        assert QPSK.is_complex
        assert QPSK.average_power == pytest.approx(1.0, rel=1e-15)

    def test_priors_validated(self):
        with pytest.raises(ValueError):
            Constellation(np.array([1.0]))


class TestTrialRng:
    def test_streams_are_reproducible_and_distinct(self):
        a = trial_rng(42, 0).standard_normal(8)
        b = trial_rng(42, 0).standard_normal(8)
        c = trial_rng(42, 1).standard_normal(8)
        d = trial_rng(43, 0).standard_normal(8)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)
        assert not np.array_equal(a, d)

    @pytest.mark.parametrize("seed", [0, 1, 123456789, 2**64 - 1, np.uint64(2**64 - 1)])
    @pytest.mark.parametrize("index", [0, 1, 7, 1000, 2**40, 2**64, 2**64 + 5, 2**100 + 3])
    def test_same_bits_as_jumped_stream(self, seed, index):
        # the stream is defined as Philox(key=seed).jumped(index)
        ref = np.random.Generator(np.random.Philox(key=seed).jumped(index))
        got = trial_rng(seed, index)
        assert np.array_equal(got.integers(0, 4, size=54), ref.integers(0, 4, size=54))
        assert np.array_equal(got.standard_normal(27), ref.standard_normal(27))
        for word in ("counter", "key"):
            assert np.array_equal(
                got.bit_generator.state["state"][word], ref.bit_generator.state["state"][word]
            )

    def test_negative_index_rejected(self):
        with pytest.raises(ValueError):
            trial_rng(0, -1)

    def test_index_beyond_counter_rejected(self):
        # the counter holds the index in two 64-bit words; 2^128 would wrap
        # to the stream of index 0
        trial_rng(5, 2**128 - 1)
        with pytest.raises(ValueError):
            trial_rng(5, 2**128)

    @pytest.mark.parametrize("q, K", [(2, 17), (2, 54), (4, 17), (4, 54)])
    @pytest.mark.parametrize("seed", [0, 1, 123456789, 2**64 - 1])
    def test_repositioned_generator_is_the_trial_stream(self, seed, q, K):
        # one generator moved from stream to stream in shuffled order draws
        # what a fresh trial_rng draws; an odd K leaves half a 64-bit word
        # buffered, which moving must drop
        indices = [0, 1, 7, 1000, 2**40, 2**64, 2**64 + 5, 2**100 + 3]
        np.random.default_rng(seed % 97).shuffle(indices)
        streams = simkit._TrialStreams(seed)
        for index in indices:
            got = streams.seek(index)
            ref = trial_rng(seed, index)
            assert np.array_equal(got.integers(0, q, size=K), ref.integers(0, q, size=K))
            assert np.array_equal(got.standard_normal(27), ref.standard_normal(27))
            assert got.bit_generator.state["has_uint32"] == K % 2


def _reference_draws(seed: int, index: range, K: int, q: int, M: int, complex_valued: bool):
    """Each trial's symbol indices and standard normals as run_monte_carlo
    drew them one trial at a time: integers(0, q, size=K), then
    standard_normal(M), twice for complex noise."""
    drawn, normals = [], []
    for i in index:
        gen = trial_rng(seed, i)
        drawn.append(gen.integers(0, q, size=K))
        normals.append(np.concatenate([gen.standard_normal(M) for _ in range(1 + complex_valued)]))
    return np.array(drawn).reshape(len(index), K), np.array(normals).reshape(len(index), -1)


# trial indices at the start of the counter, across the 64-bit word
# boundary and at the top of the index range
CHUNK_INDICES = [range(0, 6), range(2**64 - 2, 2**64 + 2), range(2**128 - 3, 2**128)]


def _chunk_draw(streams, index: range, K: int, q: int, n: int):
    """_TrialStreams.draw with a fresh (T, n) array for the normals."""
    normals = np.empty((len(index), n))
    return streams.draw(index, K, q, normals), normals


class TestChunkDraw:
    """_TrialStreams.draw decodes a chunk's symbols from raw Philox words;
    it must equal the per-trial integers and standard_normal calls bit for
    bit, so a numpy release that changed its bounded-integer rule fails here
    instead of changing outputs."""

    @pytest.mark.parametrize("complex_valued", [False, True], ids=["real", "complex"])
    @pytest.mark.parametrize("K", [1, 3, 54, 55])
    @pytest.mark.parametrize("q", [2, 3, 4, 5, 8, 16, 255])
    def test_equals_per_trial_reference(self, q, K, complex_valued):
        streams = simkit._TrialStreams(20261020)
        n = 2 * 27 if complex_valued else 27
        for index in CHUNK_INDICES:
            drawn, Z = _chunk_draw(streams, index, K, q, n)
            ref_drawn, ref_Z = _reference_draws(20261020, index, K, q, 27, complex_valued)
            assert drawn.dtype == ref_drawn.dtype and np.array_equal(drawn, ref_drawn)
            assert Z.tobytes() == ref_Z.tobytes()

    @pytest.mark.parametrize("q", [3 * 2**30, 2**31 + 1], ids=["quarter", "half"])
    def test_rejected_values_are_drawn_again(self, q):
        # these q reject about 1/4 and 1/2 of all 32-bit values, so most
        # trials go through the fallback and redraw their symbols
        streams = simkit._TrialStreams(7)
        words = np.array([streams.seek(i).bit_generator.random_raw(27) for i in range(8)])
        assert simkit._bounded(words, 54, q)[1].sum() >= 4
        drawn, Z = _chunk_draw(streams, range(8), 54, q, 9)
        ref_drawn, ref_Z = _reference_draws(7, range(8), 54, q, 9, False)
        assert np.array_equal(drawn, ref_drawn)
        assert Z.tobytes() == ref_Z.tobytes()

    @pytest.mark.parametrize("q", [2, 3, 2**31 + 1, 2**32 - 1, 2**32])
    def test_largest_products(self, q):
        # every half at 2^32 - 1 gives the top index, from a product near
        # 2^64 that must not wrap; its low half, 2^32 - q mod 2^32, is
        # never below the threshold (2^32 - q) mod q
        drawn, rejected = simkit._bounded(np.full((2, 3), 2**64 - 1, dtype=np.uint64), 5, q)
        assert drawn.dtype == np.int64 and drawn.tolist() == [[q - 1] * 5] * 2
        assert not rejected.any()

    @pytest.mark.parametrize("q", [2, 5])
    def test_forced_fallback_equals_integers(self, q, monkeypatch):
        real = simkit._bounded

        def flag_row_one(words, K, q):
            drawn, rejected = real(words, K, q)
            drawn[1], rejected[1] = -1, True
            return drawn, rejected

        monkeypatch.setattr(simkit, "_bounded", flag_row_one)
        drawn, Z = _chunk_draw(simkit._TrialStreams(3), range(10, 14), 55, q, 2 * 9)
        ref_drawn, ref_Z = _reference_draws(3, range(10, 14), 55, q, 9, True)
        assert np.array_equal(drawn, ref_drawn)
        assert Z.tobytes() == ref_Z.tobytes()

    def test_index_bound_checked(self):
        streams = simkit._TrialStreams(5)
        assert _chunk_draw(streams, range(2**128 - 1, 2**128), 4, 2, 3)[0].shape == (1, 4)
        for index in (range(2**128 - 2, 2**128 + 1), range(-1, 3)):
            with pytest.raises(ValueError, match="below 2\\^128"):
                _chunk_draw(streams, index, 4, 2, 3)

    @pytest.mark.parametrize("con", [BPSK, QPSK], ids=["bpsk", "qpsk"])
    def test_one_move_per_trial(self, chain_9x18, design3, monkeypatch, con):
        moved = []
        real = simkit._TrialStreams._move

        def counting(self, index):
            moved.append(index)
            return real(self, index)

        monkeypatch.setattr(simkit._TrialStreams, "_move", counting)
        run_monte_carlo(DetectionConfig(chain_9x18, design3, con), [1.0, 10.0], 30, seed=4)
        assert moved == list(range(60))


def _mc_noise(seed: int, trials: int, variance: float, complex_valued: bool) -> np.ndarray:
    """The noise run_monte_carlo draws for trials 0 ... trials - 1 of one
    point, each from its own stream (here with no symbols drawn first)."""
    streams = simkit._TrialStreams(seed)
    return np.array(
        [reference_noise(streams.seek(i), 9, variance, complex_valued) for i in range(trials)]
    )


# seed factors for the structural checks: F12's two equal columns, a zero
# column (users 3, 4, 5 of F (x) P3 share it), both with a lone column, and
# a zero row
SEED_FACTORS = [[[1, 1]], [[1, 0, 1], [0, 0, 1]], [[1, 1, 0, 1], [0, 0, 0, 1]], [[0, 1, 1]],
                [[0, 0, 0], [1, 0, 1]]]


def _chains(P3, P4):
    """Chains of every seed factor, random 2 x 4 ones too, over P3 and P4 at
    r = 0 ... 3."""
    rng = np.random.default_rng(21)
    seeds = SEED_FACTORS + [rng.integers(0, 2, size=(2, 4)).tolist() for _ in range(4)]
    return [
        FactorChain(PatternMatrix(np.array(F)), P, r)
        for F in seeds for P in (P3, P4) for r in range(4)
    ]


class TestSynthesizeRx:
    def test_noiseless_is_exact(self, chain_9x18):
        G = build_chain(chain_9x18)
        x = np.ones(18)
        assert np.array_equal(synthesize_rx(x, chain_9x18, np.zeros(9)), G.entries @ x)

    def test_equals_dense_product(self, P3, P4):
        # the dense G @ x is the reference: exact for integer symbols, and
        # within a few ulp of the summed magnitudes otherwise, since the
        # cascade sums in another order
        rng = np.random.default_rng(8)
        for chain in _chains(P3, P4):
            G = build_chain(chain).entries
            x = rng.integers(-3, 4, size=(3, chain.K)).astype(float)
            y = synthesize_rx(x, chain, np.zeros((3, chain.M)))
            assert y.tobytes() == (x @ G.T).tobytes()
            x = QPSK.symbols[rng.integers(0, 4, size=(3, chain.K))] * rng.uniform(0.5, 2.0, chain.K)
            y = synthesize_rx(x, chain, np.zeros((3, chain.M)))
            assert np.all(np.abs(y - x @ G.T) <= 4 * np.finfo(float).eps * (abs(x) @ G.T))

    def test_coupled_cancellation(self, chain_9x18):
        x = np.concatenate([np.ones(9), -np.ones(9)])
        assert np.array_equal(synthesize_rx(x, chain_9x18, np.zeros(9)), np.zeros(9))

    def test_deterministic_under_seed(self, chain_9x18):
        x = np.ones((3, 18))
        a = synthesize_rx(x, chain_9x18, _mc_noise(7, 3, 0.5, False))
        b = synthesize_rx(x, chain_9x18, _mc_noise(7, 3, 0.5, False))
        c = synthesize_rx(x, chain_9x18, _mc_noise(8, 3, 0.5, False))
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_chunk_rows_are_single_trials(self, chain_9x18, P3, P4):
        # a chunk's rows are, bit for bit, its trials synthesized one by one
        rng = np.random.default_rng(4)
        x = QPSK.symbols[rng.integers(0, 4, size=(6, 18))] * np.linspace(0.6, 1.4, 18)
        noise = _mc_noise(2, 6, 0.7, True)
        y = synthesize_rx(x, chain_9x18, noise)
        assert y.shape == (6, 9) and y.dtype == complex
        for row in range(6):
            assert synthesize_rx(x[row], chain_9x18, noise[row]).tobytes() == y[row].tobytes()
        for chain in _chains(P3, P4):
            x = rng.standard_normal((5, chain.K))
            noise = rng.standard_normal((5, chain.M))
            y = synthesize_rx(x, chain, noise)
            for row in range(5):
                assert synthesize_rx(x[row], chain, noise[row]).tobytes() == y[row].tobytes()

    def test_noise_calibration_within_2_percent(self, chain_9x18):
        # empirical variance of y - Gx over 1e5 total samples
        samples = synthesize_rx(np.zeros((11112, 18)), chain_9x18, _mc_noise(0, 11112, 2.0, False))
        assert samples.size >= 100_000
        assert abs(samples.var() / 2.0 - 1.0) < 0.02

    def test_complex_noise_split(self, chain_9x18):
        x = np.zeros((4000, 18), dtype=complex)
        samples = synthesize_rx(x, chain_9x18, _mc_noise(1, 4000, 2.0, True))
        assert np.iscomplexobj(samples)
        assert abs(samples.real.var() / 1.0 - 1.0) < 0.05  # half the power per part
        assert abs((np.abs(samples) ** 2).mean() / 2.0 - 1.0) < 0.05

    def test_validation(self, chain_9x18):
        with pytest.raises(ValueError):
            synthesize_rx(np.ones(5), chain_9x18, np.zeros(9))
        with pytest.raises(ValueError):
            synthesize_rx(np.ones(18), chain_9x18, np.zeros(8))
        with pytest.raises(ValueError):
            synthesize_rx(np.ones((2, 18)), chain_9x18, np.zeros(9))


def _as_tuples(members) -> tuple[tuple[int, ...], ...]:
    """Group member arrays as pattern_groups lists them: one tuple of
    users per group, in group order."""
    groups = [None] * members.count
    for positions, users in members.by_size:
        for p, u in zip(positions.tolist(), users.tolist()):
            groups[p] = tuple(u)
    return tuple(groups)


class TestUserGroups:
    def test_equal_dense_groups(self, P3, P4):
        # groups from the factors against pattern_groups of the dense G
        for chain in _chains(P3, P4):
            assert _as_tuples(simkit._user_groups(chain)) == pattern_groups(build_chain(chain))

    def test_zero_column_is_one_group(self, P3):
        chain = FactorChain(PatternMatrix(np.array(SEED_FACTORS[1])), P3, 1)
        assert _as_tuples(simkit._user_groups(chain)) == ((0,), (1,), (2,), (3, 4, 5), (6,), (7,), (8,))

    def test_coupled_sums_take_either_form(self, P3, P4):
        # the member arrays and pattern_groups' tuples give the same sums
        rng = np.random.default_rng(31)
        for chain in _chains(P3, P4):
            x = rng.choice([-1.0, 1.0], size=(3, chain.K))
            offs = rng.uniform(0.5, 1.5, chain.K)
            groups = pattern_groups(build_chain(chain))
            assert np.array_equal(det.coupled_sums(x, simkit._user_groups(chain), offs),
                                  det.coupled_sums(x, groups, offs))


class TestEstimateGain:
    """Each path's combining gain, measured exactly on the detector's own
    combining and compared with the gain its final set reports."""

    @staticmethod
    def gains(chain, design):
        # m_f = 1: one combined value per path.  A user's column of G combines
        # to the path's weight, the unit inputs to its combining-map row, so
        # the gain is weight^2 over the row's squared norm
        cfg = DetectionConfig(chain, design, BPSK)

        def combined(y):
            return [fs.values[0] for fs in recursive_detect(y, cfg).trace.final_sets]

        rows = np.array([combined(e) for e in np.eye(chain.M)])
        cols = np.array([combined(g) for g in build_chain(chain).entries.T])
        out = {}
        for p, fs in enumerate(recursive_detect(np.zeros(chain.M), cfg).trace.final_sets):
            measured = Fraction(int(cols[fs.users[0], p]) ** 2, int((rows[:, p] ** 2).sum()))
            assert measured == fs.gain
            out[fs.path] = measured
        return out

    def test_identity_design_gains_are_one(self, F12, P3, design3):
        eye = PatternMatrix(np.eye(3, dtype=int))
        assert set(self.gains(FactorChain(F12, eye, 1), find_combiners(eye)).values()) == {1}
        # no combining at r = 0: the one final set is the received value
        assert self.gains(FactorChain(F12, P3, 0), design3) == {(): 1}

    def test_reference_design_paths(self, chain_9x18, design3):
        gains = self.gains(chain_9x18, design3)
        assert len(gains) == 9
        assert set(gains.values()) == {Fraction(16, 9)}

    def test_reference_4x4_design_mixed_paths(self, F12, P4, design4):
        by_path = self.gains(FactorChain(F12, P4, 2), design4)
        assert len(by_path) == 16
        # the gamma = 1 branch contributes no gain: path through it twice
        assert by_path[(3, 3)] == 1
        assert by_path[(0, 3)] == Fraction(4, 3)
        assert by_path[(0, 0)] == Fraction(16, 9)

    def test_design_for_another_inner_factor_refused(self, chain_9x18, design4):
        with pytest.raises(DetectionError, match="different inner factor"):
            DetectionConfig(chain_9x18, design4, BPSK)


class TestWilsonInterval:
    def test_brackets_the_point_estimate(self):
        lo, hi = wilson_interval(10, 100)
        assert lo < 0.1 < hi
        assert 0.0 <= lo and hi <= 1.0

    def test_degenerate_cases(self):
        assert wilson_interval(0, 0) == (0.0, 1.0)
        lo, hi = wilson_interval(0, 50)
        assert lo == 0.0 and hi < 0.15
        lo, hi = wilson_interval(50, 50)
        assert hi == 1.0 and lo > 0.85


def _per_point_monte_carlo(
    cfg: DetectionConfig,
    snr_grid,
    trials: int,
    seed: int,
    *,
    detector: str = "recursive",
    with_oracle: bool = False,
    keep_records: bool = False,
) -> list[simkit.MonteCarloPoint]:
    """The loop of one SNR point at a time that run_monte_carlo replaced,
    kept as its reference: each point detects its own trials in chunks."""
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
    chunk = max(1, simkit._CHUNK_VALUES // G.rows)

    points = []
    if trials == 0:
        return points
    streams = simkit._TrialStreams(seed)
    rx_dtype = np.result_type(con.symbols, cfg.power_offsets)
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
                    drawn = np.empty((len(index), G.cols), dtype=np.int64)
                    N = np.empty((len(index), G.rows), dtype=rx_dtype)
                    for row, i in enumerate(index):
                        gen = streams.seek(i)
                        drawn[row] = gen.integers(0, q, size=G.cols)
                        N[row] = reference_noise(gen, G.rows, noise_variance, con.is_complex)
                    X = con.symbols[drawn]
                    S = cfg.power_offsets * X
                    Y = np.empty_like(N)
                    for row in range(len(index)):
                        Y[row] = synthesize_rx(S[row], cfg.chain, N[row])

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
                            simkit.TrialRecord(
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
                    simkit.MonteCarloPoint(
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


@pytest.fixture(scope="module")
def mc_cfg(chain_3x6, design3):
    return DetectionConfig(chain=chain_3x6, design=design3, constellation=BPSK)


class TestRunMonteCarlo:
    @pytest.mark.parametrize("sic", [False, True])
    def test_dense_g_only_for_the_oracle(self, F12, P3, monkeypatch, sic):
        # synthesis and the coupled groups come from the factors: without
        # the oracle the dense G is never built
        def refuse(chain):
            raise AssertionError("build_chain called")

        monkeypatch.setattr(simkit, "build_chain", refuse)
        monkeypatch.setattr(pattern, "build_chain", refuse)
        cfg = DetectionConfig(FactorChain(F12, P3, 3), find_combiners(P3), BPSK, sic=sic)
        pts = run_monte_carlo(cfg, [1.0, 10.0], 20, seed=2)
        assert [pt.trials for pt in pts] == [20, 20]

    def test_deep_run_traced_peak(self, F12, P3):
        # [1 1] (x) P3^7, 30 trials: 10.6 MiB traced (2 vCPUs), where the
        # dense G and its float copy took 154 MiB
        cfg = DetectionConfig(FactorChain(F12, P3, 7), find_combiners(P3), BPSK)
        tracemalloc.start()
        try:
            pts = run_monte_carlo(cfg, [1.0], 30, seed=7)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert pts[0].trials == 30
        assert peak <= 16 * 2**20

    def test_high_snr_coupled_ser_is_zero(self, mc_cfg):
        pts = run_monte_carlo(mc_cfg, [1e6], 2000, seed=0)
        assert pts[0].coupled_ser == 0.0
        assert pts[0].trials == 2000

    def test_deterministic(self, mc_cfg):
        a = run_monte_carlo(mc_cfg, [1.0, 10.0], 500, seed=9)
        b = run_monte_carlo(mc_cfg, [1.0, 10.0], 500, seed=9)
        assert a == b
        c = run_monte_carlo(mc_cfg, [1.0, 10.0], 500, seed=10)
        assert a != c

    def test_ser_nonincreasing_within_wilson(self, mc_cfg):
        pts = run_monte_carlo(mc_cfg, [1.0, 10.0, 100.0], 1500, seed=4)
        # allow statistical slack: each point's interval must not sit fully
        # above the previous point's interval
        for lo_pt, hi_pt in zip(pts, pts[1:]):
            assert hi_pt.coupled_ser_interval[0] <= lo_pt.coupled_ser_interval[1]
        assert pts[0].coupled_ser >= pts[-1].coupled_ser

    def test_oracle_agreement_high_snr(self, mc_cfg):
        pts = run_monte_carlo(mc_cfg, [100.0], 400, seed=1, with_oracle=True)
        assert pts[0].oracle_agreement is not None
        assert pts[0].oracle_agreement >= 0.99

    def test_oracle_marked_unavailable_above_cap(self, chain_9x18, design3):
        # QPSK on 18 users: 4^18 hypotheses, above DEFAULT_ORACLE_CAP (2^20)
        cfg = DetectionConfig(chain_9x18, design3, QPSK)
        pts = run_monte_carlo(cfg, [100.0], 50, seed=1, with_oracle=True)
        assert pts[0].oracle_agreement is None
        assert pts[0].coupled_ser is not None

    def test_oracle_as_primary(self, mc_cfg, chain_9x18, design3):
        pts = run_monte_carlo(mc_cfg, [1e6], 200, seed=2, detector="oracle")
        assert pts[0].coupled_ser == 0.0
        assert pts[0].measured_adds == 0  # oracle is outside the op budget
        with pytest.raises(HypothesisCapExceeded):
            run_monte_carlo(DetectionConfig(chain_9x18, design3, QPSK), [1.0], 10, seed=0,
                            detector="oracle")

    def test_chunking_does_not_change_results(self, mc_cfg, chain_9x18, design3, monkeypatch):
        from kronnoma import simkit

        sic = DetectionConfig(
            chain=chain_9x18, design=design3, constellation=QPSK,
            sic=True,
        )
        runs = []
        for values in (simkit._CHUNK_VALUES, 7, 20):  # one chunk, then chunks of 1 to 6 trials
            monkeypatch.setattr(simkit, "_CHUNK_VALUES", values)
            runs.append((
                run_monte_carlo(mc_cfg, [1.0, 10.0], 23, seed=3, with_oracle=True),
                run_monte_carlo(sic, [2.0], 19, seed=4),
            ))
        assert runs[0] == runs[1] == runs[2]

    @pytest.mark.parametrize(
        "offsets, digest",
        [
            (None, "c5123bd247e030b99dd779658c27379536fb4b90f787494d3e92b737046d9f86"),
            ("ramp", "b33449c043cc67d1bf7b09394949512bf7a019eedba82bf0ae142c0797f54fe6"),
        ],
        ids=["unit", "ramp"],
    )
    def test_golden_oracle_records_9x18(self, chain_9x18, design3, offsets, digest):
        # the oracle's decisions and ambiguity flags of every trial, pinned;
        # with unit offsets every trial has cross-chunk ties
        offs = np.linspace(0.6, 1.4, 18) if offsets == "ramp" else None
        cfg = DetectionConfig(chain_9x18, design3, BPSK, power_offsets=offs)
        pts = run_monte_carlo(
            cfg, [1.0, 10.0, 100.0], 4, 20261018, with_oracle=True, keep_records=True
        )
        h = hashlib.sha256()
        for pt in pts:
            for rec in pt.records:
                h.update(rec.decisions["oracle"].tobytes())
                h.update(bytes([rec.ambiguous["oracle"]]))
        assert h.hexdigest() == digest

    def test_sic_no_worse_than_plain_9x18(self, chain_9x18, design3):
        # paired runs (same seed: same symbols and noise) from 3 dB up.  Below
        # that, cancelling wrongly decided classes costs more than the larger
        # gain brings: with 40,000 trials at 0 dB SIC's coupled SER (0.1401)
        # sits above plain's (0.1377) beyond both Wilson intervals
        snrs = [10 ** (db / 10) for db in (3, 6, 10)]
        plain = run_monte_carlo(DetectionConfig(chain_9x18, design3, BPSK), snrs, 4000, 31)
        sic = run_monte_carlo(
            DetectionConfig(chain_9x18, design3, BPSK, sic=True), snrs, 4000, 31
        )
        for p, s in zip(plain, sic):
            assert s.coupled_ser_interval[0] <= p.coupled_ser_interval[1]

    @pytest.mark.parametrize("con", [BPSK, QPSK], ids=["bpsk", "qpsk"])
    def test_records_match_synthesize_rx(self, chain_9x18, design3, con):
        # non-integer received values: each record is the trial's own
        # stream through synthesize_rx, bit for bit; the one chunk spans all
        # three points, the middle one noiseless (variance 0)
        offs = np.linspace(0.6, 1.4, 18)
        cfg = DetectionConfig(chain_9x18, design3, con, power_offsets=offs)
        snrs = [0.5, math.inf, 4.0]
        pts = run_monte_carlo(cfg, snrs, 12, 20261019, keep_records=True)
        for pt in pts:
            variance = con.average_power / pt.snr
            for rec in pt.records:
                rng = trial_rng(20261019, rec.index)
                x = con.symbols[rng.integers(0, con.size, size=18)]
                assert x.tobytes() == rec.transmitted.tobytes()
                y = synthesize_rx(offs * x, chain_9x18, reference_noise(rng, 9, variance, con.is_complex))
                assert y.dtype == rec.received.dtype
                assert y.tobytes() == rec.received.tobytes()

    def test_one_bit_generator_per_run(self, mc_cfg, monkeypatch):
        built = []
        real = np.random.Philox

        def counting(*args, **kwargs):
            built.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(np.random, "Philox", counting)
        pts = run_monte_carlo(mc_cfg, [1.0, 10.0, 100.0], 50, seed=8)
        assert [pt.trials for pt in pts] == [50, 50, 50]
        assert len(built) <= 1

    def test_zero_trials_empty(self, mc_cfg):
        assert run_monte_carlo(mc_cfg, [1.0], 0, seed=0) == []

    def test_counters_columns_filled(self, mc_cfg):
        pts = run_monte_carlo(mc_cfg, [10.0], 50, seed=5)
        pt = pts[0]
        assert pt.measured_adds <= pt.bound_adds
        assert pt.measured_muls <= pt.bound_muls
        assert pt.measured_adds > 0 and pt.measured_muls > 0

    def test_records_kept_on_request(self, mc_cfg):
        pts = run_monte_carlo(mc_cfg, [10.0], 8, seed=5, keep_records=True)
        recs = pts[0].records
        assert len(recs) == 8
        assert all(r.snr == 10.0 for r in recs)
        assert all(r.received.shape == (3,) for r in recs)
        # reproducibility: same seed and index, same draw
        again = run_monte_carlo(mc_cfg, [10.0], 8, seed=5, keep_records=True)
        assert np.array_equal(recs[0].received, again[0].records[0].received)

    def test_individual_ser_with_offsets(self, chain_3x6, design3):
        offs = np.array([1.0] * 3 + [0.5] * 3)
        cfg = DetectionConfig(
            chain=chain_3x6, design=design3, constellation=BPSK, power_offsets=offs
        )
        pts = run_monte_carlo(cfg, [1e6], 500, seed=6)
        assert pts[0].ser == 0.0  # offsets separate the coupled users
        assert pts[0].ambiguity_rate == 0.0

    @pytest.mark.parametrize("seed", [1.5, 1.9, np.float64(2.0)])
    def test_non_integer_seed_refused(self, mc_cfg, seed):
        # Philox truncates a float key: 1.5 and 1.9 would run seed 1's
        # streams while every TrialRecord.seed reads 1.5 or 1.9
        with pytest.raises(TypeError):
            trial_rng(seed, 0)
        for trials in (50, 0):
            with pytest.raises(TypeError):
                run_monte_carlo(mc_cfg, [1.0], trials, seed)

    def test_numpy_integer_seed_accepted(self, mc_cfg):
        assert run_monte_carlo(mc_cfg, [1.0], 20, np.int64(4)) == run_monte_carlo(mc_cfg, [1.0], 20, 4)
        draws = [trial_rng(seed, 3).standard_normal(5) for seed in (np.uint64(4), 4)]
        assert np.array_equal(*draws)

    def test_nan_snr_is_not_positive(self, mc_cfg):
        # NaN fails no `<= 0` test; refused later, it would be named a noise
        # variance beyond the float range
        for grid in ([math.nan], [1.0, math.nan]):
            with pytest.raises(ValueError, match="^linear SNRs must be positive$"):
                run_monte_carlo(mc_cfg, grid, 10, seed=0)

    def test_validation(self, mc_cfg):
        with pytest.raises(ValueError):
            run_monte_carlo(mc_cfg, [0.0], 10, seed=0)
        with pytest.raises(ValueError):
            run_monte_carlo(mc_cfg, [1.0], -1, seed=0)
        with pytest.raises(ValueError):
            run_monte_carlo(mc_cfg, [1.0], 1, seed=0, detector="belief-prop")


def _outcome(run, *args, **kwargs):
    """A run's points, or the type and text of the error it raised."""
    try:
        return run(*args, **kwargs)
    except ValueError as exc:
        return type(exc), str(exc)


def _assert_same_run(got, ref):
    # records hold arrays, so points compare without them and records by bytes
    if not isinstance(ref, list):
        assert got == ref
        return
    assert [dataclasses.replace(p, records=()) for p in got] == [
        dataclasses.replace(p, records=()) for p in ref
    ]
    for p, r in zip(got, ref):
        assert len(p.records) == len(r.records) == p.trials
        for a, b in zip(p.records, r.records):
            assert (a.seed, a.index, a.snr, a.ambiguous) == (b.seed, b.index, b.snr, b.ambiguous)
            assert a.decisions.keys() == b.decisions.keys()
            pairs = [(a.transmitted, b.transmitted), (a.received, b.received)]
            pairs += [(a.decisions[name], b.decisions[name]) for name in b.decisions]
            for x, y in pairs:
                assert x.dtype == y.dtype and x.tobytes() == y.tobytes()


class TestChunkedPass:
    """run_monte_carlo walks the trials of all points in one chunked pass;
    _per_point_monte_carlo is the loop of one point at a time it replaced."""

    MODES = {
        # name: (sic, detector, with_oracle)
        "plain": (False, "recursive", False),
        "plain_oracle": (False, "recursive", True),
        "sic": (True, "recursive", False),
        "sic_oracle": (True, "recursive", True),
        "oracle": (False, "oracle", False),
    }

    @pytest.mark.parametrize("values", [1 << 16, 18, 99], ids=["one_chunk", "split", "three_points"])
    @pytest.mark.parametrize("mode", sorted(MODES))
    @pytest.mark.parametrize("offsets", ["unit", "ramp", "integer"])
    @pytest.mark.parametrize("con", [BPSK, QPSK], ids=["bpsk", "qpsk"])
    def test_equals_per_point_loop(self, chain_9x18, design3, monkeypatch, con, offsets, mode,
                                   values):
        # 3 points of 5 trials on 9 REs: 18 values are chunks of 2 trials, so
        # points 0 and 1 each end inside a chunk; 99 values are chunks of 11,
        # the first holding trials of all three points.  QPSK has 4^18
        # hypotheses, above the oracle's cap
        offs = {
            "unit": None,
            "ramp": np.linspace(0.6, 1.4, 18),
            "integer": np.random.default_rng(5).integers(1, 3, size=18).astype(float),
        }[offsets]
        sic, detector, with_oracle = self.MODES[mode]
        cfg = DetectionConfig(chain_9x18, design3, con, power_offsets=offs, sic=sic)
        monkeypatch.setattr(simkit, "_CHUNK_VALUES", values)
        kwargs = dict(detector=detector, with_oracle=with_oracle, keep_records=True)
        if detector == "oracle" and con is QPSK:
            for run in (run_monte_carlo, _per_point_monte_carlo):
                with pytest.raises(HypothesisCapExceeded):
                    run(cfg, [0.5, 2.0, 8.0], 5, 20261019, **kwargs)
            return
        got = run_monte_carlo(cfg, [0.5, 2.0, 8.0], 5, 20261019, **kwargs)
        ref = _per_point_monte_carlo(cfg, [0.5, 2.0, 8.0], 5, 20261019, **kwargs)
        _assert_same_run(got, ref)

    def test_oracle_and_detector_run_once(self, chain_9x18, design3, monkeypatch):
        # the oracle_9x18 benchmark's shape: 3 points x 8 trials in one chunk
        calls = {"detect_batch": [], "brute_force_map_oracle": []}
        for name, rows in calls.items():
            real = getattr(det, name)

            def spy(Y, *args, real=real, rows=rows, **kwargs):
                rows.append(len(Y))
                return real(Y, *args, **kwargs)

            monkeypatch.setattr(det, name, spy)
        cfg = DetectionConfig(chain_9x18, design3, BPSK)
        pts = run_monte_carlo(cfg, [1.0, 10.0, 100.0], 8, 3, with_oracle=True)
        assert [pt.trials for pt in pts] == [8, 8, 8]
        assert calls == {"detect_batch": [24], "brute_force_map_oracle": [24]}

    @pytest.mark.parametrize("values, rows", [(1 << 16, [24]), (99, [11, 11, 2])],
                             ids=["one_chunk", "three_chunks"])
    def test_one_synthesis_per_chunk(self, chain_9x18, design3, monkeypatch, values, rows):
        # the oracle_9x18 benchmark's shape: every received value of a chunk
        # comes from one synthesize_rx call
        calls = []
        real = simkit.synthesize_rx

        def spy(x, chain, noise):
            calls.append(len(x))
            return real(x, chain, noise)

        monkeypatch.setattr(simkit, "synthesize_rx", spy)
        monkeypatch.setattr(simkit, "_CHUNK_VALUES", values)
        pts = run_monte_carlo(DetectionConfig(chain_9x18, design3, BPSK), [1.0, 10.0, 100.0], 8, 3)
        assert [pt.trials for pt in pts] == [8, 8, 8]
        assert calls == rows

    MODEL_OVERFLOW = "the model's values exceed the float range (overflow encountered in square)"

    @pytest.mark.parametrize("values", [1 << 16, 18], ids=["one_chunk", "split"])
    @pytest.mark.parametrize(
        "grid, message",
        [
            # the second point overflows, in the chunk the first point shares
            ([10.0, 1e-307], f"at snr=1e-307 {MODEL_OVERFLOW}"),
            # the first point's overflow comes before the second's variance
            ([1e-307, 1e-309], f"at snr=1e-307 {MODEL_OVERFLOW}"),
            # the first point runs; the second's variance has no float
            ([10.0, 1e-309], "at snr=1e-309 the noise variance exceeds the float range"),
        ],
        ids=["later_point_overflows", "overflow_before_variance", "variance_after_run"],
    )
    def test_failure_names_first_failing_point(self, chain_9x18, design3, monkeypatch, values,
                                               grid, message):
        monkeypatch.setattr(simkit, "_CHUNK_VALUES", values)
        cfg = DetectionConfig(chain_9x18, design3, BPSK)
        for run in (run_monte_carlo, _per_point_monte_carlo):
            assert _outcome(run, cfg, grid, 5, 1) == (ValueError, message)
            assert _outcome(run, cfg, grid, 5, 1, with_oracle=True) == (ValueError, message)

    def test_noise_flag_computed_once(self, mc_cfg, monkeypatch):
        # the constellation's type is looked up once per run, not per trial
        looked = []
        real = type(BPSK).is_complex

        monkeypatch.setattr(type(BPSK), "is_complex",
                            property(lambda con: looked.append(1) or real.fget(con)))
        run_monte_carlo(mc_cfg, [1.0, 10.0], 20, seed=2)
        assert len(looked) == 1


@given(st.integers(0, 2**63 - 1))
@settings(max_examples=15, deadline=None)
def test_mc_points_reproducible_property(chain_3x6, design3, seed):
    cfg = DetectionConfig(chain=chain_3x6, design=design3, constellation=BPSK)
    a = run_monte_carlo(cfg, [5.0], 20, seed=seed)
    b = run_monte_carlo(cfg, [5.0], 20, seed=seed)
    assert a == b
