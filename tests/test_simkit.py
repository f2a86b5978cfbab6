"""Constellations, seeded synthesis, calibration, and the Monte Carlo loop."""

import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kronnoma import (
    BPSK,
    QPSK,
    Constellation,
    DetectionConfig,
    FactorChain,
    HypothesisCapExceeded,
    PatternMatrix,
    build_chain,
    estimate_gain,
    find_combiners,
    run_monte_carlo,
    synthesize_rx,
    trial_rng,
    wilson_interval,
)


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

    @pytest.mark.parametrize("seed", [0, 1, 123456789, 2**64 - 1])
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


class TestSynthesizeRx:
    def test_noiseless_is_exact(self, chain_9x18):
        G = build_chain(chain_9x18)
        x = np.ones(18)
        assert np.array_equal(synthesize_rx(x, G, 0.0), G.entries @ x)

    def test_coupled_cancellation(self, chain_9x18):
        G = build_chain(chain_9x18)
        x = np.concatenate([np.ones(9), -np.ones(9)])
        assert np.array_equal(synthesize_rx(x, G, 0.0), np.zeros(9))

    def test_deterministic_under_seed(self, chain_9x18):
        G = build_chain(chain_9x18)
        x = np.ones(18)
        a = synthesize_rx(x, G, 0.5, seed=7)
        b = synthesize_rx(x, G, 0.5, seed=7)
        c = synthesize_rx(x, G, 0.5, seed=8)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_noise_calibration_within_2_percent(self, chain_9x18):
        # empirical variance of y - Gx over 1e5 total samples
        G = build_chain(chain_9x18)
        x = np.zeros(18)
        rng = trial_rng(0, 0)
        samples = np.concatenate(
            [synthesize_rx(x, G, 2.0, rng=rng) for _ in range(11112)]
        )
        assert samples.size >= 100_000
        assert abs(samples.var() / 2.0 - 1.0) < 0.02

    def test_complex_noise_split(self, chain_9x18):
        G = build_chain(chain_9x18)
        x = np.zeros(18, dtype=complex)
        rng = trial_rng(1, 0)
        samples = np.concatenate(
            [synthesize_rx(x, G, 2.0, rng=rng) for _ in range(4000)]
        )
        assert np.iscomplexobj(samples)
        assert abs(samples.real.var() / 1.0 - 1.0) < 0.05  # half the power per part
        assert abs((np.abs(samples) ** 2).mean() / 2.0 - 1.0) < 0.05

    def test_validation(self, chain_9x18):
        G = build_chain(chain_9x18)
        with pytest.raises(ValueError):
            synthesize_rx(np.ones(5), G, 0.0)
        with pytest.raises(ValueError):
            synthesize_rx(np.ones(18), G, -1.0)


class TestEstimateGain:
    def test_identity_design_gains_are_one(self):
        eye = PatternMatrix(np.eye(3, dtype=int))
        design = find_combiners(eye)
        chain = FactorChain(PatternMatrix(np.array([[1, 1]])), eye, 1)
        for pg in estimate_gain(design, chain, 1.0, 30_000, seed=3):
            assert pg.expected == 1
            assert pg.within < 3.0

    def test_reference_design_paths(self, chain_9x18, design3):
        from fractions import Fraction

        gains = estimate_gain(design3, chain_9x18, 0.7, 100_000, seed=0)
        assert len(gains) == 9
        for pg in gains:
            assert pg.expected == Fraction(16, 9)
            assert pg.within < 3.0

    def test_reference_4x4_design_mixed_paths(self, P4, design4):
        from fractions import Fraction

        chain = FactorChain(PatternMatrix(np.array([[1, 1]])), P4, 2)
        gains = estimate_gain(design4, chain, 1.0, 100_000, seed=0)
        assert len(gains) == 16
        by_path = {pg.path: pg for pg in gains}
        # the gamma = 1 branch contributes no gain: path through it twice
        assert by_path[(3, 3)].expected == 1
        assert by_path[(0, 3)].expected == Fraction(4, 3)
        assert by_path[(0, 0)].expected == Fraction(16, 9)
        for pg in gains:
            assert pg.within < 3.0

    def test_validation(self, chain_9x18, design3):
        with pytest.raises(ValueError):
            estimate_gain(design3, chain_9x18, 0.0, 1000)
        with pytest.raises(ValueError):
            estimate_gain(design3, chain_9x18, 1.0, 2)


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


@pytest.fixture(scope="module")
def mc_cfg(chain_3x6, design3):
    return DetectionConfig(chain=chain_3x6, design=design3, constellation=BPSK)


class TestRunMonteCarlo:
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
            sic_symbols=(2,),
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
            DetectionConfig(chain_9x18, design3, BPSK, sic_symbols=(2,)), snrs, 4000, 31
        )
        for p, s in zip(plain, sic):
            assert s.coupled_ser_interval[0] <= p.coupled_ser_interval[1]

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

    def test_validation(self, mc_cfg):
        with pytest.raises(ValueError):
            run_monte_carlo(mc_cfg, [0.0], 10, seed=0)
        with pytest.raises(ValueError):
            run_monte_carlo(mc_cfg, [1.0], -1, seed=0)
        with pytest.raises(ValueError):
            run_monte_carlo(mc_cfg, [1.0], 1, seed=0, detector="belief-prop")


@given(st.integers(0, 2**63 - 1))
@settings(max_examples=15, deadline=None)
def test_mc_points_reproducible_property(chain_3x6, design3, seed):
    cfg = DetectionConfig(chain=chain_3x6, design=design3, constellation=BPSK)
    a = run_monte_carlo(cfg, [5.0], 20, seed=seed)
    b = run_monte_carlo(cfg, [5.0], 20, seed=seed)
    assert a == b
