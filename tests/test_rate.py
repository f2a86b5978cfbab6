"""Closed-form sum rates against independent oracles."""

import itertools
import json
import math
import time
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kronnoma import (
    BPSK,
    DetectionConfig,
    FactorChain,
    PatternMatrix,
    build_chain,
    path_gain_profile,
    recursive_detect,
    run_algorithm1,
    sum_rate_oma,
    sum_rate_pdma,
    sum_rate_recursive,
    sum_rate_sic_reference,
)
from kronnoma import cli, rate

SNR_SWEEP = [10.0**e for e in range(-3, 4)]  # 0.001 ... 1000
I2 = PatternMatrix(np.eye(2, dtype=np.int64))


# distinct primes are multiplicatively independent, so each split k of r
# among them is its own boost prod p_i^k_i, and a boost names its split
PRIMES = (2, 3, 5, 7, 11)


def _split(boost, primes):
    """The exponents k of `primes` with prod p_i^k_i == boost, an integer."""
    exps = []
    boost = int(boost)
    for p in primes:
        k = 0
        while boost % p == 0:
            boost //= p
            k += 1
        exps.append(k)
    assert boost == 1
    return tuple(exps)


class TestCompositions:
    """The profile's terms over d independent distinct gains are the
    compositions of r into d parts."""

    def test_golden_list_total2_parts3(self):
        # descending boost order, whatever order the splits are made in
        got = list(path_gain_profile((2, 3, 5), 2).items())
        assert got == [(25, 1), (15, 2), (10, 2), (9, 1), (6, 2), (4, 1)]
        assert all(type(boost) is Fraction for boost, _ in got)

    def test_count_is_stars_and_bars(self):
        for total in range(0, 6):
            for parts in range(1, 5):
                primes = PRIMES[:parts]
                got = [_split(boost, primes) for boost in path_gain_profile(primes, total)]
                assert len(got) == math.comb(total + parts - 1, parts - 1)
                assert len(set(got)) == len(got)
                assert all(sum(c) == total for c in got)

    def test_single_part(self):
        for m_p in range(1, 5):
            assert dict(path_gain_profile((Fraction(4, 3),) * m_p, 4)) == {
                Fraction(4, 3) ** 4: m_p**4}


class TestMultinomial:
    def test_against_factorial_oracle(self):
        # gain PRIMES[i] held by c[i] branches: a split k counts
        # r! / (k_1! ... k_d!) * c_1^k_1 ... c_d^k_d paths
        for c in [(1, 1, 1), (1, 2, 1), (3, 1, 2), (1, 1, 1, 1), (2, 1, 1, 3)]:
            gains = [p for p, n in zip(PRIMES, c) for _ in range(n)]
            for counts in [(2, 0, 0), (1, 1, 0), (3, 2, 1), (0, 0, 4), (2, 2, 2, 2)]:
                if len(counts) != len(c):
                    continue
                total = sum(counts)
                expected = math.factorial(total)
                for k, n in zip(counts, c):
                    expected = expected // math.factorial(k) * n**k
                boost = math.prod(p**k for p, k in zip(PRIMES, counts))
                assert path_gain_profile(gains, total)[boost] == expected

    def test_weight_check_closed_form(self):
        # the path counts sum to m_p^r, whether the gains are equal,
        # distinct, repeated or multiplicatively dependent
        for m_p in range(1, 5):
            for gains in [(Fraction(4, 3),) * m_p, PRIMES[:m_p], (1, 2, 2, 4)[:m_p],
                          (Fraction(1, 2), 2, 1, 2)[:m_p]]:
                for r in range(0, 5):
                    assert sum(path_gain_profile(gains, r).values()) == m_p**r


class TestSumRateRecursive:
    def test_reference_chain_matches_scalar_closed_form(self, chain_9x18, design3):
        # independent oracle: with m_f=1, k_f=2 and equal gains 4/3 the whole
        # sum over paths collapses to 0.5 log2(1 + 2 (4/3)^2 snr)
        for snr in SNR_SWEEP:
            expected = 0.5 * math.log2(1.0 + 2.0 * (4.0 / 3.0) ** 2 * snr)
            got = sum_rate_recursive(chain_9x18, design3.gains, snr)
            assert got == pytest.approx(expected, rel=1e-12)

    def test_r0_equals_single_shot(self, F12, P3):
        chain = FactorChain(F12, P3, 0)
        for snr in (0.5, 2.0, 37.0):
            got = sum_rate_recursive(chain, (Fraction(4, 3),) * 3, snr)
            assert got == pytest.approx(0.5 * math.log2(1 + 2 * snr), rel=1e-12)

    def test_unequal_gains_against_direct_sum(self, F12, P4):
        # independent oracle: enumerate all m_p^r paths directly instead of
        # grouping them by boost
        chain = FactorChain(F12, P4, 2)
        gains = (Fraction(4, 3), Fraction(4, 3), Fraction(4, 3), Fraction(1))
        snr = 7.0
        total = 0.0
        for a in range(4):
            for b in range(4):
                boost = float(gains[a] * gains[b])
                total += math.log2(1.0 + 2.0 * boost * snr)
        expected = total / (2 * chain.M)
        got = sum_rate_recursive(chain, gains, snr)
        assert got == pytest.approx(expected, rel=1e-12)

    def test_zero_snr_is_zero(self, chain_9x18, design3):
        assert sum_rate_recursive(chain_9x18, design3.gains, 0.0) == 0.0

    def test_input_validation(self, chain_9x18):
        with pytest.raises(ValueError):
            sum_rate_recursive(chain_9x18, (Fraction(4, 3),) * 2, 1.0)  # wrong count
        with pytest.raises(ValueError):
            sum_rate_recursive(chain_9x18, (Fraction(4, 3),) * 3, -1.0)
        with pytest.raises(ValueError):
            sum_rate_recursive(chain_9x18, (Fraction(0),) * 3, 1.0)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("r, snr", [(3000, 1.0), (2400, 1e10), (1, 1e308)])
    def test_float_range_exceeded(self, F12, P3, r, snr):
        # float((4/3)^3000) overflows; the other two make I + snr*boost*F F^T infinite
        with pytest.raises(ValueError, match="exceeds the float range"):
            sum_rate_recursive(FactorChain(F12, P3, r), (Fraction(4, 3),) * 3, snr)

    @given(st.floats(min_value=1e-6, max_value=1e6), st.floats(min_value=1.0, max_value=8.0))
    @settings(max_examples=60, deadline=None)
    def test_monotone_in_snr(self, chain_9x18, design3, snr, factor):
        lo = sum_rate_recursive(chain_9x18, design3.gains, snr)
        hi = sum_rate_recursive(chain_9x18, design3.gains, snr * factor)
        assert hi >= lo


def _per_path_profile(gains, r):
    """Every one of the m_p^r paths, with its exact boost: a Counter
    {boost: path count}, independent of `path_gain_profile`."""
    gains = [Fraction(g) for g in gains]
    # every path by the branches it takes, then each branch multiset's boost
    paths = Counter(tuple(sorted(path))
                    for path in itertools.product(range(len(gains)), repeat=r))
    profile = Counter()
    for branches, count in paths.items():
        profile[math.prod((gains[j] for j in branches), start=Fraction(1))] += count
    return profile


def _per_composition_rate(chain, gains, snr):
    """The rate as a Python float loop over the exact boosts of a per-path
    enumeration, in descending order, one log-det per term:
    float(Fraction(count, 2M)) * log2 det(I + snr * float(boost) * F F^T)."""
    F = chain.F.entries.astype(float)
    gram = F @ F.T
    peak = float(gram.max())
    eye = np.eye(chain.m_f)
    total = 0.0
    for boost, count in sorted(_per_path_profile(gains, chain.r).items(), reverse=True):
        coeff = snr * float(boost)
        assert math.isfinite(coeff * peak)
        sign, logdet = np.linalg.slogdet(eye + coeff * gram)
        assert sign > 0
        total += float(Fraction(count, 2 * chain.M)) * (logdet / rate.LOG2)
    return total


# wide seed factors with m_f = 1 and 2, so the stacked log-dets cover 1x1
# and 2x2 Gram matrices
_SEEDS = [[[1, 1]], [[1, 1, 0], [0, 1, 1]], [[1, 0, 1], [1, 1, 1]]]
_GAINS = st.fractions(min_value=Fraction(1, 64), max_value=64, max_denominator=64)
# a few gains, some products of others, so that branches share gains and
# paths through different gains share boosts
_FEW_GAINS = st.sampled_from([Fraction(1), Fraction(2), Fraction(4), Fraction(1, 2),
                              Fraction(4, 3), Fraction(2, 3)])


class TestPathGainProfile:
    """`path_gain_profile` counts every path's exact boost, and
    `sum_rate_recursive` reads each (gains, r) profile once and equals a
    loop over the per-path boosts bit for bit."""

    @given(gains=st.lists(st.one_of(_FEW_GAINS, _GAINS), min_size=1, max_size=5),
           r=st.integers(0, 6))
    @settings(max_examples=150, deadline=None)
    def test_equals_per_path_enumeration(self, gains, r):
        got = path_gain_profile(gains, r)
        assert got == _per_path_profile(gains, r)
        assert list(got) == sorted(got, reverse=True)
        assert all(type(boost) is Fraction and type(count) is int
                   for boost, count in got.items())

    @given(data=st.data(), m_p=st.integers(2, 5), r=st.integers(0, 6),
           seed=st.sampled_from(_SEEDS),
           snr=st.one_of(st.sampled_from([0.0, 1.0, 1e12]),
                         st.floats(min_value=0.0, max_value=1e12)))
    @settings(max_examples=150, deadline=None)
    def test_equals_per_composition_loop(self, data, m_p, r, seed, snr):
        gains = data.draw(st.lists(st.one_of(_FEW_GAINS, _GAINS), min_size=m_p, max_size=m_p))
        chain = FactorChain(PatternMatrix(np.array(seed)),
                            PatternMatrix(np.eye(m_p, dtype=np.int64)), r)
        assert sum_rate_recursive(chain, gains, snr) == _per_composition_rate(chain, gains, snr)

    @pytest.mark.parametrize("m_p, r", [(2, 60), (3, 40)])
    def test_equals_per_composition_loop_past_2_53(self, monkeypatch, m_p, r):
        # path counts above 2^53 have no float; each enters as its share
        # float(Fraction(count, 2M)).  Too many paths to enumerate, so the
        # loop reads the profile, whose counts the tests above check.
        # Blocks of 10 terms leave a short last block
        monkeypatch.setattr(rate, "_BLOCK_TERMS", 10)
        chain = FactorChain(PatternMatrix(np.array([[1, 1, 0], [0, 1, 1]])),
                            PatternMatrix(np.eye(m_p, dtype=np.int64)), r)
        gains = [Fraction(4, 3), Fraction(1, 2), Fraction(5, 4), Fraction(3, 2)][:m_p]
        assert max(path_gain_profile(gains, r).values()) > 2**53
        for snr in (0.0, 1e-3, 1.0, 1e6):
            assert sum_rate_recursive(chain, gains, snr) == _pointwise_rate(chain, gains, snr)

    def test_sweep_builds_profile_once(self, tmp_path, chain_9x18):
        path = tmp_path / "chain.json"
        path.write_text(json.dumps(chain_9x18.to_json_dict()))
        rate._path_gain_profile.cache_clear()
        # the sweep rates each column over all 31 points at once: the
        # chain's profile and the SIC reference's (example4) are each read
        # once
        assert cli.main(["rate", "--chain", str(path), "--baselines", "oma,example4",
                         "--csv-out", str(tmp_path / "out.csv")]) == 0
        info = rate._path_gain_profile.cache_info()
        assert (info.misses, info.hits) == (2, 0)

    def test_profile_is_read_only(self, design3):
        # the cache hands every caller the same map
        profile = path_gain_profile(design3.gains, 2)
        assert path_gain_profile(reversed(design3.gains), 2) is profile
        with pytest.raises(TypeError):
            profile[Fraction(1)] = 1
        assert dict(profile) == {Fraction(16, 9): 9}

    def test_validation(self):
        for gains in [(), (1, 0), (Fraction(-1, 2),)]:
            with pytest.raises(ValueError, match="gain"):
                path_gain_profile(gains, 1)
        for r in (-1, 1.0, True, "2"):
            with pytest.raises(ValueError, match="r must be a nonnegative integer"):
                path_gain_profile((1, 2), r)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("r, reason", [
        (3000, "integer division result too large for a float"),
    ])
    def test_deep_chain_refused_before_enumeration(self, monkeypatch, tmp_path, F12, P3,
                                                   capsys, r, reason):
        # (4/3)^3000 is beyond the float range: the gain bound refuses the
        # chain at every SNR without building its profile
        def refuse(*args):
            raise AssertionError("a profile was built")

        monkeypatch.setattr(rate, "path_gain_profile", refuse)
        monkeypatch.setattr(rate, "_path_gain_profile", refuse)
        path = tmp_path / "deep.json"
        path.write_text(json.dumps(FactorChain(F12, P3, r).to_json_dict()))
        assert cli.main(["rate", "--chain", str(path), "--baselines", "oma"]) == 2
        err = capsys.readouterr().err
        assert f"depth-{r} chain at snr=1000 exceeds the float range ({reason})" in err
        with pytest.raises(ValueError, match=reason):
            sum_rate_recursive(FactorChain(F12, P3, r), (Fraction(4, 3),) * 3, 0.0)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("factor, r", [("P3", 642), ("P3", 646), ("P3", 800),
                                           ("P3", 2000), ("I2", 1022), ("I2", 1023)])
    def test_deep_chain_is_rated(self, F12, P3, factor, r):
        # neither the path counts (up to 3^2000) nor 2M need a float, only
        # the shares do.  [1 1] (x) P has 2 users on each final set and all
        # gains equal, so the rate is 0.5 log2(1 + 2 * gain^r * snr)
        P, gain = (P3, Fraction(4, 3)) if factor == "P3" else (I2, Fraction(1))
        snrs = [0.0, 1e-3, 1.0, 1e3]
        got = sum_rate_recursive(FactorChain(F12, P, r), (gain,) * P.rows, snrs)
        assert got[0] == 0.0
        assert got.tolist() == pytest.approx(
            [0.5 * math.log2(1.0 + 2.0 * float(gain**r) * snr) for snr in snrs], rel=1e-12)

    def test_deep_profile_is_one_term(self):
        # P3's gains are all 4/3: one boost, however deep the chain
        rate._path_gain_profile.cache_clear()
        start = time.perf_counter()
        profile = path_gain_profile((Fraction(4, 3),) * 3, 642)
        assert time.perf_counter() - start < 0.1
        assert dict(profile) == {Fraction(4, 3) ** 642: 3**642}


def _pointwise_rate(chain, gains, snr):
    """One point of `sum_rate_recursive` as a Python float running sum over
    the profile's terms in its descending order, one stacked log-det per
    block of terms, each term weighted by its share float(Fraction(count, 2M))."""
    gram = chain.F.entries.astype(float) @ chain.F.entries.astype(float).T
    eye = np.eye(chain.m_f)
    assert math.isfinite(snr * float(max(map(Fraction, gains)) ** chain.r) * float(gram.max()))
    terms = list(path_gain_profile(gains, chain.r).items())
    total = 0.0
    for start in range(0, len(terms), rate._BLOCK_TERMS):
        block = terms[start:start + rate._BLOCK_TERMS]
        coeffs = np.array([snr * float(boost) for boost, _ in block])
        signs, logdets = np.linalg.slogdet(eye + coeffs[:, None, None] * gram)
        for (_, count), sign, logdet in zip(block, signs.tolist(), logdets.tolist()):
            assert sign > 0
            total += float(Fraction(count, 2 * chain.M)) * (logdet / rate.LOG2)
            assert math.isfinite(total)
    return total


def _pointwise_pdma(A, snr):
    """One point of `sum_rate_pdma` as it was rated before grids."""
    gram = A.entries.astype(float) @ A.entries.astype(float).T
    sign, logdet = np.linalg.slogdet(np.eye(A.rows) + snr * gram)
    assert sign > 0
    return logdet / rate.LOG2 / (2 * A.rows)


# 0 and points from -30 to 60 dB, with a repeat and a descending stretch
GRID = [0.0, 1e-3, 0.5, 1.0, 1.0, 37.0, 10.0, 1e3, 1e6]


class TestSnrGrid:
    """A grid call rates every point bit for bit as a lone point does; a
    number gives a float, a sequence an array."""

    @pytest.mark.parametrize("seed, r", [([[1, 1]], 0), ([[1, 1]], 1), ([[1, 1]], 2),
                                         ([[1, 1]], 200), ([[1, 1, 0], [0, 1, 1]], 2)])
    def test_recursive_grid_equals_points(self, P3, seed, r):
        chain = FactorChain(PatternMatrix(np.array(seed)), P3, r)
        gains = (Fraction(4, 3), Fraction(1, 2), Fraction(5, 3))
        grid = GRID if r < 200 else GRID[::2]
        if r == 200:  # 20,301 terms: two blocks per point
            assert len(path_gain_profile(gains, r)) > rate._BLOCK_TERMS
        got = sum_rate_recursive(chain, gains, grid)
        assert isinstance(got, np.ndarray) and got.shape == (len(grid),)
        want = [_pointwise_rate(chain, gains, snr) for snr in grid]
        assert got.tolist() == want
        assert [sum_rate_recursive(chain, gains, snr) for snr in grid] == want

    @pytest.mark.parametrize("block", [1, 4, 7, 100])
    def test_blocks_do_not_matter(self, monkeypatch, P3, block):
        # blocks of a few matrices split the grid's points, or a point's
        # terms, or both, and leave short last blocks
        chain = FactorChain(PatternMatrix(np.array([[1, 1, 0], [0, 1, 1]])), P3, 3)
        gains = (Fraction(4, 3), Fraction(1, 2), Fraction(5, 3))
        want = [_pointwise_rate(chain, gains, snr) for snr in GRID]
        monkeypatch.setattr(rate, "_BLOCK_TERMS", block)
        assert sum_rate_recursive(chain, gains, GRID).tolist() == want

    def test_scalar_is_one_point_grid(self, chain_9x18, design3):
        got = sum_rate_recursive(chain_9x18, design3.gains, 10.0)
        assert type(got) is float
        assert sum_rate_recursive(chain_9x18, design3.gains, [10.0]).tolist() == [got]
        assert sum_rate_recursive(chain_9x18, design3.gains, np.float64(10.0)) == got
        assert sum_rate_recursive(chain_9x18, design3.gains, []).shape == (0,)
        for fn in (sum_rate_oma, sum_rate_sic_reference):
            assert type(fn(10.0)) is float and fn([10.0]).tolist() == [fn(10.0)]

    def test_sic_reference_grid_equals_points(self):
        want = [_pointwise_rate(rate._SIC_REFERENCE_CHAIN, rate._SIC_REFERENCE_GAINS, snr)
                for snr in GRID]
        assert sum_rate_sic_reference(GRID).tolist() == want
        assert [sum_rate_sic_reference(snr) for snr in GRID] == want

    @pytest.mark.parametrize("budget", [None, 729, 1500])
    def test_pdma_27x54_grid_equals_points(self, monkeypatch, F12, P3, budget):
        # the whole grid in one stacked log-det, one matrix, or two
        G = build_chain(FactorChain(F12, P3, 3))
        assert G.rows == 27
        if budget is not None:
            monkeypatch.setattr(rate, "_BLOCK_PDMA_VALUES", budget)
        want = [_pointwise_pdma(G, snr) for snr in GRID]
        assert sum_rate_pdma(G, GRID).tolist() == want
        assert [sum_rate_pdma(G, snr) for snr in GRID] == want

    def test_oma_grid_equals_points(self):
        assert sum_rate_oma(GRID).tolist() == [0.5 * math.log2(1.0 + snr) for snr in GRID]

    @pytest.mark.parametrize("fn", ["recursive", "pdma", "oma", "sic"])
    def test_grid_validation(self, chain_9x18, design3, fn):
        call = {"recursive": lambda s: sum_rate_recursive(chain_9x18, design3.gains, s),
                "pdma": lambda s: sum_rate_pdma(build_chain(chain_9x18), s),
                "oma": sum_rate_oma, "sic": sum_rate_sic_reference}[fn]
        with pytest.raises(ValueError, match="nonnegative"):
            call([1.0, -1.0])
        with pytest.raises(ValueError, match="1-D"):
            call([[1.0]])

    @pytest.mark.parametrize("fn", ["recursive", "pdma", "oma", "sic"])
    def test_nan_snr_is_refused_as_not_nonnegative(self, chain_9x18, design3, fn):
        # NaN fails no `< 0` test; refused later, it would be named a value
        # beyond the float range ("snr * gain * F F^T is not finite")
        call = {"recursive": lambda s: sum_rate_recursive(chain_9x18, design3.gains, s),
                "pdma": lambda s: sum_rate_pdma(build_chain(chain_9x18), s),
                "oma": sum_rate_oma, "sic": sum_rate_sic_reference}[fn]
        for snr in (math.nan, [1.0, math.nan]):
            with pytest.raises(ValueError, match="^snr must be nonnegative$"):
                call(snr)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_refusal_names_first_failing_point(self, chain_9x18, design3):
        # snr * (4/3)^2 * 2 is finite at 1e300 and 1e307, not at 1e308: a
        # refusal names the first point of the grid that fails
        with pytest.raises(ValueError, match=r"snr=1e\+308 exceeds"):
            sum_rate_recursive(chain_9x18, design3.gains, [1.0, 1e308, 1e300, 1e307])
        with pytest.raises(ValueError, match=r"snr=1\.5e\+308 exceeds"):
            sum_rate_recursive(chain_9x18, design3.gains, [1e300, 1.5e308, 1e308])
        with pytest.raises(ValueError, match=r"PDMA rate at snr=1e\+308 exceeds"):
            sum_rate_pdma(build_chain(chain_9x18), [1.0, 1e308, 1e300])

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_gain_bound_refusal_names_first_failing_point(self, monkeypatch, F12, P3):
        # at r = 2400 the largest boost, (4/3)^2400, is about 7.1e299, so
        # snr * boost * 2 leaves the float range once snr > 1.2e8; the
        # refusal comes before the profile is built
        def refuse(*args):
            raise AssertionError("a profile was built")

        monkeypatch.setattr(rate, "_path_gain_profile", refuse)
        chain = FactorChain(F12, P3, 2400)
        with pytest.raises(ValueError, match=r"depth-2400 chain at snr=1e\+09 exceeds .*"
                                             r"\(snr \* gain \* F F\^T is not finite\)"):
            sum_rate_recursive(chain, (Fraction(4, 3),) * 3, [1.0, 7.0, 1e9, 1e12, 10.0])


class TestSumRatePdma:
    def test_identity_matrix(self):
        eye = PatternMatrix(np.eye(3, dtype=int))
        for snr in (0.5, 1.0, 9.0):
            assert sum_rate_pdma(eye, snr) == pytest.approx(
                0.5 * math.log2(1 + snr), rel=1e-12
            )

    def test_reference_chain_against_eigenvalue_oracle(self, chain_9x18):
        G = build_chain(chain_9x18)
        gram = G.entries.astype(float) @ G.entries.astype(float).T
        eigs = np.linalg.eigvalsh(gram)
        # Gram spectrum of the 9x18 chain: 32 once, 8 four times, 2 four times
        assert sorted(round(e) for e in eigs) == [2, 2, 2, 2, 8, 8, 8, 8, 32]
        for snr in SNR_SWEEP:
            expected = sum(math.log2(1 + snr * e) for e in eigs) / (2 * 9)
            assert sum_rate_pdma(G, snr) == pytest.approx(expected, rel=1e-10)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_float_range_exceeded(self, chain_9x18):
        # the largest Gram entry of the 9x18 chain is 8: 8 * 2.3e307 overflows
        G = build_chain(chain_9x18)
        assert math.isfinite(sum_rate_pdma(G, 2.2e307))
        with pytest.raises(ValueError, match="exceeds the float range"):
            sum_rate_pdma(G, 2.3e307)


class TestSumRateOma:
    def test_unit_points(self):
        assert sum_rate_oma(3.0) == pytest.approx(1.0, rel=1e-12)
        assert sum_rate_oma(15.0) == pytest.approx(2.0, rel=1e-12)
        assert sum_rate_oma(0.0) == 0.0


class TestSicReference:
    def test_value_at_unit_snr_against_direct_formula(self):
        expected = (
            (4 / 18) * math.log2(1 + 2 * (4 / 3) ** 2)
            + (4 / 18) * math.log2(1 + 2 * (8 / 3))
            + (1 / 18) * math.log2(1 + 8)
        )
        assert sum_rate_sic_reference(1.0) == pytest.approx(expected, rel=1e-12)

    def test_dominates_plain_recursive(self, chain_9x18, design3):
        for snr in SNR_SWEEP:
            assert sum_rate_sic_reference(snr) > sum_rate_recursive(
                chain_9x18, design3.gains, snr
            )

    def test_vanishes_with_snr(self):
        assert sum_rate_sic_reference(1e-15) <= 1e-12
        assert sum_rate_sic_reference(0.0) == 0.0


def _final_set_gains(chain, design, sic=False):
    """The Counter of the final sets' exact gains in a detection trace."""
    cfg = DetectionConfig(chain, design, BPSK, sic=sic)
    trace = recursive_detect(np.zeros(chain.M), cfg).trace
    return Counter(final.gain for final in trace.final_sets)


class TestSameReceiver:
    """The rates' profile holds the gains the detector's final sets see."""

    @pytest.mark.parametrize("which, r", [("P3", 2), ("P3", 3), ("top4", 2)])
    def test_final_set_gains_are_the_profile(self, F12, P3, design3, which, r):
        # 9x18, 27x54, and the best m_p = 4 design of the search (gains 1
        # and 4/3, so two distinct gains)
        design = design3 if which == "P3" else run_algorithm1(4, top=1)[0].design
        chain = FactorChain(F12, design.P, r)
        assert _final_set_gains(chain, design) == path_gain_profile(design.gains, r)

    def test_sic_reference_docstring(self, chain_9x18, design3):
        # the SIC detector cancels at the last level only; the reference
        # cancels branch 2 at every level
        assert _final_set_gains(chain_9x18, design3, sic=True) == {
            Fraction(16, 9): 6, Fraction(8, 3): 3}
        assert path_gain_profile(rate._SIC_REFERENCE_GAINS, 2) == {
            Fraction(16, 9): 4, Fraction(8, 3): 4, Fraction(4): 1}
