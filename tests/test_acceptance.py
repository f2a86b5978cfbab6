"""Acceptance gate: one test per release criterion, run with `pytest -v`.

Each test prints an `ACCEPTANCE NN (...): PASS` line on success (visible
with -s); the pytest verbose listing itself gives the one-line pass/fail
verdict per criterion.  Stated runtime budgets are asserted with wall-clock
measurements, and exact-value claims use exact types (int / Fraction), not
tolerances.
"""

import math
import time
from fractions import Fraction

import numpy as np

from kronnoma import (
    BPSK,
    DetectionConfig,
    FactorChain,
    PatternMatrix,
    build_chain,
    path_gain_profile,
    recursive_detect,
    run_algorithm1,
    run_monte_carlo,
    sum_rate_oma,
    sum_rate_pdma,
    sum_rate_recursive,
    sum_rate_sic_reference,
    synthesize_rx,
    trial_rng,
)
from kronnoma.cli import main
from conftest import dump_chain, reference_noise, search_space_size

THIRD = Fraction(4, 3)


def _announce(num: int, text: str) -> None:
    print(f"ACCEPTANCE {num:02d} ({text}): PASS")


def test_criterion_01_search_golden_3x3(P3):
    t0 = time.perf_counter()
    results = run_algorithm1(3)
    elapsed = time.perf_counter() - t0
    best = results[0]
    assert best.design.P == P3
    assert best.design.gains == (THIRD, THIRD, THIRD)
    assert elapsed < 1.0, f"3x3 search took {elapsed:.2f}s"
    _announce(1, "3x3 search returns the reference design, gains (4/3)^3, <1s")


def test_criterion_02_search_4x4_tie_structure(P4):
    t0 = time.perf_counter()
    results = run_algorithm1(4)
    elapsed = time.perf_counter() - t0
    top_score = results[0].score
    top = [sd for sd in results if sd.score == top_score]
    assert len(top) == 4
    for sd in top:
        assert sorted(sd.design.gains, reverse=True) == [THIRD, THIRD, THIRD, 1]
    assert P4.canonicalized().column_values() in [
        sd.design.P.column_values() for sd in top
    ]
    assert results[4].score < top_score
    assert elapsed < 60.0, f"4x4 search took {elapsed:.2f}s"
    _announce(2, "4x4 search: exactly four tied optima incl. the reference one, <60s")


def test_criterion_03_search_space_accounting():
    n = search_space_size(6, 9)
    assert n == math.comb(63, 9) == 23_667_689_815
    assert abs(n - 2.366e10) / 2.366e10 < 1e-3
    assert search_space_size(2, 3) * search_space_size(3, 3) == 35
    _announce(3, "direct count binom(63,9) ~ 2.366e10; factorized count 35")


def test_criterion_04_recursion_algebra_exact(chain_9x18, design3):
    cfg = DetectionConfig(chain_9x18, design3, BPSK)
    rng = np.random.default_rng(7)
    y = synthesize_rx(rng.choice([-1.0, 1.0], 18), chain_9x18, np.zeros(9))
    res = recursive_detect(y, cfg)
    assert set(res.trace.recursions[0].noise_multipliers) == {3}
    assert set(res.trace.recursions[1].noise_multipliers) == {9}
    for fs in res.trace.final_sets:
        assert fs.weight == 4
        assert fs.noise_multiplier == 9
        assert fs.gain == Fraction(16, 9)
    _announce(4, "noiseless trace: weight 4, noise 3s^2 then 9s^2, exact")


def test_criterion_05_operation_counters(chain_9x18, design3):
    cfg = DetectionConfig(chain_9x18, design3, BPSK)
    noise = reference_noise(trial_rng(11, 0), 9, 0.5, complex_valued=False)
    y = synthesize_rx(np.ones(18), chain_9x18, noise)
    res = recursive_detect(y, cfg)
    combining_adds = res.trace.recursions[-1].adds_so_far
    assert combining_adds <= 36
    assert res.report.final_invocations == 9
    _announce(5, "measured combining adds <= 36, final-stage invocations == 9")


def test_criterion_06_general_rate_matches_specialization(chain_9x18):
    gains = [THIRD] * 3
    for e in range(-3, 4):
        snr = 10.0**e
        general = sum_rate_recursive(chain_9x18, gains, snr)
        closed = 0.5 * math.log2(1.0 + 2.0 * (4.0 / 3.0) ** 2 * snr)
        assert abs(general - closed) <= 1e-12 * closed
    for m_p in range(1, 7):
        for gains in ([THIRD] * m_p, [Fraction(1)] + [THIRD] * (m_p - 1), range(1, m_p + 1)):
            for r in range(0, 9):
                assert sum(path_gain_profile(gains, r).values()) == m_p**r
    _announce(6, "general rate == closed form to 1e-12; path counts sum to m_p^r")


def test_criterion_07_cancellation_reference_dominates(chain_9x18):
    gains = [THIRD] * 3
    for snr_db in range(0, 31):
        snr = 10.0 ** (snr_db / 10.0)
        assert sum_rate_sic_reference(snr) > sum_rate_recursive(chain_9x18, gains, snr)
    tiny = 1e-15
    assert sum_rate_sic_reference(tiny) <= 1e-12
    assert sum_rate_recursive(chain_9x18, gains, tiny) <= 1e-12
    _announce(7, "cancellation reference curve dominates; both vanish at snr -> 0")


def test_criterion_08_oracle_equivalence(chain_3x6, design3):
    cfg = DetectionConfig(chain_3x6, design3, BPSK)
    t0 = time.perf_counter()
    (mid,) = run_monte_carlo(cfg, [100.0], 10_000, seed=1, with_oracle=True)
    assert mid.oracle_agreement is not None and mid.oracle_agreement >= 0.99
    (high,) = run_monte_carlo(cfg, [1e6], 10_000, seed=2)
    assert high.coupled_ser == 0.0
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0, f"paired Monte Carlo took {elapsed:.1f}s"
    _announce(8, "recursive vs exhaustive MAP: >=99% agreement at 20dB, 0 errors at 60dB, <2min")


def test_criterion_09_gain_calibration(chain_9x18, design3, P4, design4):
    # each path's gain measured exactly on the detector's own combining: its
    # weight is what a user's column of G combines to, its noise multiplier
    # the sum of what the unit inputs combine to, squared
    chain4 = FactorChain(PatternMatrix(np.array([[1, 1]])), P4, 2)
    for chain, design in ((chain_9x18, design3), (chain4, design4)):
        cfg = DetectionConfig(chain, design, BPSK)

        def combined(y):  # (paths,): one equation per path, as m_f = 1
            return [fs.values[0] for fs in recursive_detect(y, cfg).trace.final_sets]

        rows = np.array([combined(e) for e in np.eye(chain.M)])
        cols = np.array([combined(g) for g in build_chain(chain).entries.T])
        for p, fs in enumerate(recursive_detect(np.zeros(chain.M), cfg).trace.final_sets):
            measured = Fraction(int(cols[fs.users[0], p]) ** 2, int((rows[:, p] ** 2).sum()))
            assert measured == fs.gain == math.prod(design.gains[j] for j in fs.path)
    _announce(9, "exact path gains on the combining cascade equal the branch gain products, both designs")


def test_criterion_10_baseline_band(chain_9x18):
    G = build_chain(chain_9x18)
    gains = [THIRD] * 3
    for snr_db in range(0, 31):
        snr = 10.0 ** (snr_db / 10.0)
        c_rec = sum_rate_recursive(chain_9x18, gains, snr)
        assert c_rec >= sum_rate_oma(snr)
        ratio = c_rec / sum_rate_pdma(G, snr)
        assert 0.8 <= ratio <= 1.05, f"ratio {ratio:.4f} at {snr_db} dB"
    _announce(10, "c_recursive >= c_oma and c_recursive/c_pdma in [0.8, 1.05] over 0-30 dB")


def test_criterion_11_seeded_byte_determinism(tmp_path, chain_9x18):
    chain_file = tmp_path / "chain.json"
    dump_chain(chain_9x18, str(chain_file))
    outputs = []
    for name in ("a.csv", "b.csv"):
        out = tmp_path / name
        code = main(
            ["simulate", "--chain", str(chain_file), "--snr-db", "0,10",
             "--trials", "200", "--seed", "42", "--csv-out", str(out)]
        )
        assert code == 0
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]

    searches = []
    for name in ("s1.json", "s2.json"):
        out = tmp_path / name
        assert main(["search", "--mp", "3", "--json-out", str(out)]) == 0
        searches.append(out.read_bytes())
    assert searches[0] == searches[1]
    _announce(11, "identical seeds give byte-identical CSV/JSON outputs")
