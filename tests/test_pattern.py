"""Pattern matrices, factor chains, and search-space accounting."""

import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kronnoma import (
    DimensionOverflowError,
    FactorChain,
    PatternMatrix,
    build_chain,
    kronecker,
    pattern_groups,
    search_space_size,
    validate_distinct_nonzero_columns,
)

binary_matrices = st.integers(1, 4).flatmap(
    lambda m: st.integers(1, 4).flatmap(
        lambda n: st.lists(
            st.lists(st.integers(0, 1), min_size=n, max_size=n),
            min_size=m,
            max_size=m,
        )
    )
)


def _mat(rows) -> PatternMatrix:
    return PatternMatrix(np.array(rows))


# JSON look-alikes of small integers: a loader must refuse every non-integer
json_numbers = st.one_of(
    st.integers(-1, 4),
    st.booleans(),
    st.integers(-1, 4).map(float),
    st.floats(-1, 4, allow_nan=False),
)


@st.composite
def matrix_dicts(draw, rows=st.integers(1, 3), cols=st.integers(1, 4)):
    """A valid matrix record, possibly with one number replaced by a look-alike."""
    m, n = draw(rows), draw(cols)
    obj = {"rows": m, "cols": n, "data": draw(st.lists(st.integers(0, 1), min_size=m * n, max_size=m * n))}
    where = draw(st.sampled_from(["none", "rows", "cols", "data"]))
    if where == "data":
        obj["data"][draw(st.integers(0, m * n - 1))] = draw(json_numbers)
    elif where != "none":
        obj[where] = draw(json_numbers)
    return obj


def _same_json(a, b) -> bool:
    # json text tells 1, 1.0 and true apart, where == does not
    return json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


class TestPatternMatrix:
    def test_entries_are_read_only(self):
        P = _mat([[1, 0], [0, 1]])
        with pytest.raises(ValueError):
            P.entries[0, 0] = 0

    def test_rejects_non_binary(self):
        with pytest.raises(ValueError):
            _mat([[2, 0], [0, 1]])
        with pytest.raises(ValueError):
            _mat([[-1, 0], [0, 1]])

    @pytest.mark.parametrize("bad", [2, -2, -(2**63), 2**63 - 1])
    def test_rejects_out_of_range_entries(self, bad):
        # abs(int64 min) is negative, so a magnitude check would let it through
        with pytest.raises(ValueError, match="must be 0 or 1"):
            _mat(np.array([[1, 0], [0, bad]], dtype=np.int64))

    def test_column_values_row0_is_lsb(self):
        P = _mat([[1, 0], [0, 1]])
        assert P.column_values() == (1, 2)
        P = _mat([[0], [1], [1]])
        assert P.column_values() == (6,)

    def test_canonicalized_sorts_columns(self, P4):
        canon = P4.canonicalized()
        assert canon.column_values() == tuple(sorted(P4.column_values()))
        assert canon.column_values() == (1, 6, 10, 12)
        assert canon.entries.tolist() == [
            [1, 0, 0, 0],
            [0, 1, 1, 0],
            [0, 1, 0, 1],
            [0, 0, 1, 1],
        ]

    def test_canonicalized_is_idempotent(self, P3):
        assert P3.canonicalized() == P3  # already canonical: values (3, 5, 6)
        assert P3.column_values() == (3, 5, 6)

    def test_json_round_trip(self, P4):
        blob = json.dumps(P4.to_json_dict())
        assert PatternMatrix.from_json_dict(json.loads(blob)) == P4

    @pytest.mark.parametrize(
        "obj",
        [
            {"rows": 1, "cols": 2, "data": [1, 1.9]},
            {"rows": 3.5, "cols": 3, "data": [1, 1, 0, 1, 0, 1, 0, 1, 1]},
            {"rows": 1, "cols": 2, "data": [1, True]},
            {"rows": 1, "cols": 2, "data": [1, 2**64]},
        ],
    )
    def test_json_refuses_non_integers(self, obj):
        with pytest.raises(ValueError):
            PatternMatrix.from_json_dict(obj)

    @given(matrix_dicts())
    @settings(max_examples=200, deadline=None)
    def test_json_loader_accepts_only_exact_round_trips(self, obj):
        try:
            m = PatternMatrix.from_json_dict(obj)
        except ValueError:
            return
        assert _same_json(m.to_json_dict(), obj)

    def test_equality_and_hash(self, P3):
        twin = _mat([[1, 1, 0], [1, 0, 1], [0, 1, 1]])
        assert twin == P3 and hash(twin) == hash(P3)
        assert _mat([[1]]) != P3

    @given(binary_matrices)
    def test_overload_factor(self, rows):
        P = _mat(rows)
        assert P.overload_factor == P.cols / P.rows


class TestKronecker:
    def test_matches_definition(self):
        A = _mat([[1, 1]])
        B = _mat([[1, 0], [0, 1]])
        out = kronecker(A, B)
        assert out.entries.tolist() == [[1, 0, 1, 0], [0, 1, 0, 1]]

    @given(binary_matrices, binary_matrices)
    @settings(max_examples=50)
    def test_shape_law(self, a, b):
        A, B = _mat(a), _mat(b)
        out = kronecker(A, B)
        assert (out.rows, out.cols) == (A.rows * B.rows, A.cols * B.cols)

    @given(binary_matrices, binary_matrices, binary_matrices)
    @settings(max_examples=30)
    def test_associativity(self, a, b, c):
        A, B, C = _mat(a), _mat(b), _mat(c)
        left = kronecker(kronecker(A, B), C)
        right = kronecker(A, kronecker(B, C))
        assert left == right

    @given(binary_matrices, binary_matrices)
    @settings(max_examples=30)
    def test_mixed_product_with_vectors(self, a, b):
        # (A (x) B)(u (x) v) = (A u) (x) (B v), the identity the recursive
        # detector exploits level by level
        A, B = _mat(a), _mat(b)
        rng = np.random.default_rng(0)
        u = rng.integers(-2, 3, A.cols)
        v = rng.integers(-2, 3, B.cols)
        lhs = kronecker(A, B).entries @ np.kron(u, v)
        rhs = np.kron(A.entries @ u, B.entries @ v)
        assert np.array_equal(lhs, rhs)


class TestFactorChain:
    def test_dimensions(self, chain_9x18):
        assert (chain_9x18.M, chain_9x18.K) == (9, 18)
        assert (chain_9x18.m_f, chain_9x18.k_f, chain_9x18.m_p) == (1, 2, 3)
        assert chain_9x18.overload_factor == 2

    def test_requires_overload(self, P3):
        square_F = PatternMatrix(np.eye(2, dtype=int))
        with pytest.raises(ValueError):
            FactorChain(square_F, P3, 1)

    def test_requires_square_inner(self, F12):
        rect = _mat([[1, 0, 1], [0, 1, 1]])
        with pytest.raises(ValueError):
            FactorChain(F12, rect, 1)

    def test_rejects_negative_recursion(self, F12, P3):
        with pytest.raises(ValueError):
            FactorChain(F12, P3, -1)

    def test_json_round_trip(self, chain_9x18):
        blob = json.dumps(chain_9x18.to_json_dict())
        assert FactorChain.from_json_dict(json.loads(blob)) == chain_9x18

    @pytest.mark.parametrize("r", [2.7, True, "2"])
    def test_json_refuses_non_integer_depth(self, chain_9x18, r):
        obj = chain_9x18.to_json_dict()
        obj["r"] = r
        with pytest.raises(ValueError):
            FactorChain.from_json_dict(obj)

    @given(
        F=matrix_dicts(rows=st.just(1), cols=st.integers(2, 3)),
        P=matrix_dicts(rows=st.just(2), cols=st.just(2)),
        r=st.one_of(st.integers(0, 3), json_numbers),
    )
    @settings(max_examples=200, deadline=None)
    def test_json_loader_accepts_only_exact_round_trips(self, F, P, r):
        obj = {"F": F, "P": P, "r": r}
        try:
            chain = FactorChain.from_json_dict(obj)
        except ValueError:
            return
        assert _same_json(chain.to_json_dict(), obj)


class TestBuildChain:
    def test_reference_chain_shape_and_duplicates(self, chain_9x18):
        G = build_chain(chain_9x18)
        assert (G.rows, G.cols) == (9, 18)
        # the [1 1] seed duplicates the square part: columns k and k+9 match
        groups = pattern_groups(G)
        assert groups == tuple((k, k + 9) for k in range(9))

    def test_r0_reduces_to_seed(self, F12, P3):
        chain = FactorChain(F12, P3, 0)
        assert build_chain(chain) == F12

    def test_explicit_small_product(self, F12, P3):
        G = build_chain(FactorChain(F12, P3, 1))
        expected = np.kron(F12.entries, P3.entries)
        assert np.array_equal(G.entries, expected)

    def test_overflow_refused(self, F12, P3):
        chain = FactorChain(F12, P3, 20)
        with pytest.raises(DimensionOverflowError):
            build_chain(chain)

    @pytest.mark.parametrize("r", [3000, 20000])
    def test_overflow_message_is_bounded(self, F12, P3, r):
        # M and K have ~r/2 digits; past 4300 digits str() of them fails
        with pytest.raises(DimensionOverflowError) as exc:
            build_chain(FactorChain(F12, P3, r))
        message = str(exc.value)
        assert "\n" not in message and len(message) < 200
        assert f"3^{r}" in message

    def test_distinctness_propagates(self):
        # if F has distinct nonzero columns and P is invertible-like with
        # distinct nonzero columns, the product keeps columns distinct
        F = _mat([[1, 0, 1], [0, 1, 1]])
        P = _mat([[1, 0], [0, 1]])
        G = build_chain(FactorChain(F, P, 2))
        assert validate_distinct_nonzero_columns(G).ok

    def test_duplicate_column_reporting(self, chain_9x18):
        G = build_chain(chain_9x18)
        check = validate_distinct_nonzero_columns(G)
        assert not check.ok
        assert len(check.duplicate_groups) == 9
        assert check.zero_columns == ()


class TestPatternGroups:
    def test_groups_all_columns_once(self, chain_9x18):
        G = build_chain(chain_9x18)
        groups = pattern_groups(G)
        flat = sorted(k for g in groups for k in g)
        assert flat == list(range(G.cols))

    def test_first_occurrence_order(self):
        G = _mat([[1, 0, 1], [0, 1, 0]])
        assert pattern_groups(G) == ((0, 2), (1,))


class TestSearchSpaceSize:
    def test_against_explicit_enumeration(self):
        # independent oracle: literally enumerate distinct nonzero columns
        for m in range(1, 5):
            nonzero = list(range(1, 2**m))
            for k in range(1, min(len(nonzero), 6) + 1):
                explicit = sum(1 for _ in itertools.combinations(nonzero, k))
                assert search_space_size(m, k) == explicit

    def test_full_scale_value(self):
        # binomial(2^6 - 1, 9) via an independent falling-factorial product
        num = 1
        for i in range(9):
            num *= 63 - i
        expected = num // math.factorial(9)
        assert search_space_size(6, 9) == expected == 23_667_689_815
        assert abs(search_space_size(6, 9) - 2.366e10) / 2.366e10 < 1e-3

    def test_factorized_collapse(self):
        # the (2x3) seed admits exactly one candidate; the 3x3 square factor
        # admits binomial(7,3) = 35 — the whole factorized search is 35 designs
        assert search_space_size(2, 3) == 1
        assert search_space_size(3, 3) == 35
        assert search_space_size(2, 3) * search_space_size(3, 3) == 35

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            search_space_size(0, 1)
        with pytest.raises(ValueError):
            search_space_size(3, 0)
