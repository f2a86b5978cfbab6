"""Closed-form sum rates against independent oracles."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kronnoma import (
    FactorChain,
    PatternMatrix,
    build_chain,
    compositions,
    multinomial,
    multinomial_weight_check,
    sum_rate_oma,
    sum_rate_pdma,
    sum_rate_recursive,
    sum_rate_sic_reference,
)

SNR_SWEEP = [10.0**e for e in range(-3, 4)]  # 0.001 ... 1000


class TestCompositions:
    def test_golden_list_total2_parts3(self):
        # colex order: later positions grow last
        got = list(compositions(2, 3))
        assert got == [
            (2, 0, 0),
            (1, 1, 0),
            (0, 2, 0),
            (1, 0, 1),
            (0, 1, 1),
            (0, 0, 2),
        ]

    def test_count_is_stars_and_bars(self):
        for total in range(0, 6):
            for parts in range(1, 5):
                got = list(compositions(total, parts))
                assert len(got) == math.comb(total + parts - 1, parts - 1)
                assert len(set(got)) == len(got)
                assert all(sum(c) == total for c in got)

    def test_single_part(self):
        assert list(compositions(4, 1)) == [(4,)]


class TestMultinomial:
    def test_against_factorial_oracle(self):
        for counts in [(2, 0, 0), (1, 1, 0), (3, 2, 1), (0, 0, 4), (2, 2, 2, 2)]:
            total = sum(counts)
            expected = math.factorial(total)
            for c in counts:
                expected //= math.factorial(c)
            assert multinomial(counts) == expected

    def test_weight_check_closed_form(self):
        # sum over compositions of multinomial coefficients = m_p^r
        for m_p in range(1, 5):
            for r in range(0, 5):
                assert multinomial_weight_check(m_p, r) == m_p**r


class TestSumRateRecursive:
    def test_reference_chain_matches_scalar_closed_form(self, chain_9x18, design3):
        # independent oracle: with m_f=1, k_f=2 and equal gains 4/3 the whole
        # multinomial sum collapses to 0.5 log2(1 + 2 (4/3)^2 snr)
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
        # grouping them by composition
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
