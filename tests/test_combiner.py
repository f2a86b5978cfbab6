"""Combining-coefficient search: golden designs, tie-break oracle, caps."""

import functools
import itertools
import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kronnoma import (
    CombinerDesign,
    CombinerInfeasible,
    CombiningContractError,
    EnumerationCapExceeded,
    FactorChain,
    PatternMatrix,
    find_combiners,
    run_algorithm1,
    sum_rate_recursive,
)
from kronnoma import combiner, rate
from kronnoma.combiner import DEFAULT_REFERENCE_SNR, coefficient_vectors
from conftest import ALPHA3_ROWS, ALPHA4_ROWS, enumerate_square_candidates, search_space_size

THIRD = Fraction(4, 3)
_DESIGN = combiner._design


def _count_designs(monkeypatch) -> list:
    """Patch the one place designs are built; returns the column values of
    each design built from then on."""
    built = []

    def counting(P, best, weights):
        built.append(P.column_values())
        return _DESIGN(P, best, weights)

    monkeypatch.setattr(combiner, "_design", counting)
    return built


@pytest.fixture
def fresh_catalogs(monkeypatch):
    """An empty catalog cache for one test: every size it searches is
    solved anew, and the catalogs it builds are dropped after it."""
    monkeypatch.setattr(combiner, "_CATALOG_CACHE", {})


class TestCoefficientVectors:
    def test_shape_and_order(self):
        vecs, norms = coefficient_vectors(2)
        assert vecs.shape == (9, 2)
        assert vecs[0].tolist() == [-1, -1]
        assert vecs[-1].tolist() == [1, 1]
        # lexicographic under -1 < 0 < +1 coincides with integer tuple order
        as_tuples = [tuple(v) for v in vecs]
        assert as_tuples == sorted(as_tuples)
        assert norms.tolist() == [int(v @ v) for v in vecs]


class TestFindCombiners:
    def test_reference_3x3(self, P3, design3):
        assert design3.alpha.tolist() == ALPHA3_ROWS
        assert design3.weights == (2, 2, 2)
        assert design3.gains == (THIRD, THIRD, THIRD)

    def test_reference_4x4(self, P4, design4):
        assert design4.alpha.tolist() == ALPHA4_ROWS
        assert design4.weights == (2, 2, 2, 1)
        assert design4.gains == (THIRD, THIRD, THIRD, Fraction(1))

    def test_identity_gets_unit_rows(self):
        eye = PatternMatrix(np.eye(4, dtype=int))
        design = find_combiners(eye)
        assert design.alpha.tolist() == np.eye(4, dtype=int).tolist()
        assert design.gains == (Fraction(1),) * 4

    def test_duplicate_columns_infeasible(self):
        P = PatternMatrix(np.array([[1, 1, 0], [1, 1, 1], [0, 0, 1]]))
        with pytest.raises(CombinerInfeasible) as exc:
            find_combiners(P)
        assert exc.value.columns == (0, 1)

    def test_tie_break_oracle(self):
        """Independent re-derivation of the selection rule on every feasible
        small candidate: among all vectors that isolate column j, flip signs
        to make the weight positive, take maximal gain, then the
        lexicographically smallest coefficients."""
        for m_p in (2, 3):
            vecs, norms = coefficient_vectors(m_p)
            for P in enumerate_square_candidates(m_p):
                resp = vecs @ P.entries
                expected_rows = []
                feasible = True
                for j in range(m_p):
                    best = None
                    for v, n, row in zip(vecs, norms, resp):
                        w = int(row[j])
                        if w == 0 or int(np.abs(row).sum()) != abs(w):
                            continue
                        canon = tuple(v) if w > 0 else tuple(-v)
                        key = (-Fraction(w * w, int(n)), canon)
                        if best is None or key < best:
                            best = key
                    if best is None:
                        feasible = False
                        break
                    expected_rows.append(best[1])
                if not feasible:
                    with pytest.raises(CombinerInfeasible):
                        find_combiners(P)
                else:
                    design = find_combiners(P)
                    assert [tuple(r) for r in design.alpha.tolist()] == expected_rows

    def test_weights_always_positive(self):
        for P in enumerate_square_candidates(3):
            try:
                design = find_combiners(P)
            except CombinerInfeasible:
                continue
            assert all(w > 0 for w in design.weights)
            assert all(g > 0 for g in design.gains)


class TestCombinerDesign:
    def test_json_round_trip(self, design4):
        blob = json.dumps(design4.to_json_dict())
        assert CombinerDesign.from_json_dict(json.loads(blob)) == design4

    def test_rejects_non_diagonal_alpha(self, P3):
        bad = np.array([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
        with pytest.raises(CombiningContractError):
            CombinerDesign(P=P3, alpha=bad, weights=(1, 1, 1), gains=(Fraction(1),) * 3)

    def test_rejects_wrong_bookkeeping(self, P3, design3):
        with pytest.raises(ValueError):
            CombinerDesign(
                P=P3, alpha=design3.alpha, weights=(1, 1, 1), gains=design3.gains
            )
        with pytest.raises(ValueError):
            CombinerDesign(
                P=P3, alpha=design3.alpha, weights=design3.weights, gains=(Fraction(1),) * 3
            )

    def test_reference_row_gain(self, P3):
        # row [1, 1, -1] isolates column 0 of P3 with w = 2, ||alpha||^2 = 3
        design = CombinerDesign(P3, np.array(ALPHA3_ROWS), (2, 2, 2), (THIRD,) * 3)
        assert design.alpha[0].tolist() == [1, 1, -1]
        assert design.gains[0] == THIRD

    def test_identity_rows_have_unit_gain(self):
        eye = PatternMatrix(np.eye(3, dtype=int))
        design = CombinerDesign(eye, np.eye(3, dtype=int), (1, 1, 1), (Fraction(1),) * 3)
        assert design.gains[1] == Fraction(1)

    def test_rejects_zero_weight(self, P3):
        # [0, 0, 0] produces no signal on column 0 (C2)
        alpha = np.array([[0, 0, 0]] + ALPHA3_ROWS[1:])
        with pytest.raises(CombiningContractError, match="nonzero diagonal"):
            CombinerDesign(P3, alpha, (0, 2, 2), (Fraction(0),) + (THIRD,) * 2)

    def test_rejects_leakage(self, P3):
        # [1, 0, 0] hits column 0 but leaks into column 1 (C3)
        alpha = np.array([[1, 0, 0]] + ALPHA3_ROWS[1:])
        with pytest.raises(CombiningContractError, match="must be diagonal"):
            CombinerDesign(P3, alpha, (1, 2, 2), (Fraction(1),) + (THIRD,) * 2)

    @pytest.mark.parametrize("bad", [2, -2, -(2**63), 2**63 - 1])
    def test_rejects_out_of_range_entry(self, P3, bad):
        # abs(int64 min) is negative, so a magnitude check would let it through
        alpha = np.array(ALPHA3_ROWS, dtype=np.int64)
        alpha[1, 2] = bad
        with pytest.raises(CombiningContractError, match="must be in"):
            CombinerDesign(P=P3, alpha=alpha, weights=(2, 2, 2), gains=(THIRD,) * 3)

    def test_rejects_out_of_alphabet(self, P3):
        bad = np.array(ALPHA3_ROWS)
        bad = bad * 2
        with pytest.raises(CombiningContractError):
            CombinerDesign(P=P3, alpha=bad, weights=(4, 4, 4), gains=(Fraction(16, 12),) * 3)


class TestEnumeration:
    def test_counts_match_search_space(self):
        for m_p in (1, 2, 3, 4):
            n = sum(1 for _ in enumerate_square_candidates(m_p))
            assert n == search_space_size(m_p, m_p)

    def test_canonical_order(self):
        vals = [P.column_values() for P in enumerate_square_candidates(2)]
        assert vals == [(1, 2), (1, 3), (2, 3)]
        assert all(tuple(sorted(v)) == v for v in vals)

    def test_cap(self):
        with pytest.raises(EnumerationCapExceeded) as exc:
            list(enumerate_square_candidates(6))
        assert exc.value.m_p == 6 and exc.value.cap == 5


class TestRunAlgorithm1:
    def test_reference_search(self, P3):
        results = run_algorithm1(3)
        assert len(results) == 29  # 35 candidates, 29 admit combiners
        best = results[0]
        assert best.design.P == P3
        assert best.design.gains == (THIRD,) * 3
        assert all(results[i].score >= results[i + 1].score for i in range(len(results) - 1))

    def test_trivial_size_one(self):
        results = run_algorithm1(1)
        assert len(results) == 1
        assert results[0].design.P.entries.tolist() == [[1]]
        assert results[0].design.gains == (Fraction(1),)

    def test_four_way_tie_at_size_four(self, P4):
        results = run_algorithm1(4)
        assert len(results) == 759
        top_score = results[0].score
        top = [sd for sd in results if sd.score == top_score]
        assert len(top) == 4
        assert [sd.design.P.column_values() for sd in top] == [
            (1, 6, 10, 12),
            (2, 5, 9, 12),
            (3, 4, 9, 10),
            (3, 5, 6, 8),
        ]
        for sd in top:
            assert sorted(sd.design.gains, reverse=True) == [THIRD, THIRD, THIRD, 1]
        assert results[4].score < top_score
        # the reference matrix is one of the four, up to canonical ordering
        assert P4.canonicalized().column_values() in [
            sd.design.P.column_values() for sd in top
        ]

    def test_cap_refusal(self):
        for m_p in (6, 9):
            with pytest.raises(EnumerationCapExceeded):
                run_algorithm1(m_p)

    def test_top_truncation(self):
        assert len(run_algorithm1(3, top=5)) == 5

    @pytest.mark.parametrize("top", [-1, 0, 2.5, True])
    def test_top_must_be_a_positive_integer(self, top):
        # -1 used to drop the last design, 0 to return nothing, 2.5 to raise
        # a bare TypeError from the slice
        with pytest.raises(ValueError, match="top must be a positive integer"):
            run_algorithm1(3, top=top)

    def test_top_accepts_numpy_integers(self):
        assert len(run_algorithm1(3, top=np.int64(4))) == 4

    @pytest.mark.parametrize("ref_snr", ["10", True, np.bool_(True), None, 1 + 0j])
    def test_ref_snr_must_be_a_real_number(self, fresh_catalogs, ref_snr):
        # "10" used to rank at 10 and True at 1.0, through float(ref_snr)
        with pytest.raises(ValueError, match="ref_snr must be a real number"):
            run_algorithm1(3, ref_snr=ref_snr)
        assert combiner._CATALOG_CACHE == {}  # refused before the catalog is read

    @pytest.mark.parametrize("ref_snr", [np.float64(2.5), np.float32(2.5), 2, np.int64(2)])
    def test_ref_snr_accepts_numpy_and_integer_reals(self, ref_snr):
        want = run_algorithm1(4, ref_snr=float(ref_snr))
        got = run_algorithm1(4, ref_snr=ref_snr)
        assert np.array_equal(got.scores, want.scores) and np.array_equal(got.cols, want.cols)

    def test_top_builds_only_returned_designs(self, monkeypatch):
        built = _count_designs(monkeypatch)
        got = run_algorithm1(4, top=7)
        assert len(got) == 7 and built == []  # nothing is built until read
        items = list(got)
        assert built == [sd.design.P.column_values() for sd in items]
        assert len(built) == 7
        monkeypatch.setattr(combiner, "_design", _DESIGN)
        assert [(sd.design, sd.score) for sd in items] == [
            (sd.design, sd.score) for sd in run_algorithm1(4)[:7]
        ]

    def test_deterministic_ranking(self):
        a = run_algorithm1(3)
        b = run_algorithm1(3)
        assert [(sd.design.P.column_values(), sd.score) for sd in a] == [
            (sd.design.P.column_values(), sd.score) for sd in b
        ]


def _reference_search(m_p: int, scorer) -> list[tuple[CombinerDesign, float]]:
    """Algorithm 1 one candidate at a time: a per-column loop over the
    feasible vectors of each candidate, every design scored, then the
    ranking by score (descending) and column values (ascending)."""
    vecs, norms = coefficient_vectors(m_p)
    out = []
    for P in enumerate_square_candidates(m_p):
        resp = vecs @ P.entries
        rows, weights, gains = [], [], []
        for j in range(m_p):
            w = resp[:, j]
            idx = np.flatnonzero((w > 0) & (np.abs(resp).sum(axis=1) == w))
            if idx.size == 0:
                break
            best = idx[int(np.argmax(w[idx].astype(float) ** 2 / norms[idx]))]
            rows.append(vecs[best])
            weights.append(int(w[best]))
            gains.append(Fraction(int(w[best]) ** 2, int(norms[best])))
        else:
            design = CombinerDesign(P, np.array(rows), tuple(weights), tuple(gains))
            out.append((design, float(scorer(design))))
    out.sort(key=lambda item: (-item[1], item[0].P.column_values()))
    return out


def _rate_scorer(snr: float):
    F = PatternMatrix(np.ones((1, 2), dtype=np.int64))
    return lambda d: sum_rate_recursive(FactorChain(F, d.P, 1), sorted(d.gains, reverse=True), snr)


class TestBlockSearch:
    @pytest.mark.parametrize("m_p", [1, 2, 3, 4])
    def test_matches_per_candidate_reference(self, m_p):
        for snr in (DEFAULT_REFERENCE_SNR, 0.5):
            want = _reference_search(m_p, _rate_scorer(snr))
            got = run_algorithm1(m_p, ref_snr=snr)
            assert [(sd.design, sd.score) for sd in got] == want

    @pytest.mark.parametrize("block_values", [1, 2000])
    def test_block_size_does_not_matter(self, monkeypatch, block_values):
        want = run_algorithm1(4)
        monkeypatch.setattr(combiner, "_BLOCK_VALUES", block_values)
        monkeypatch.setattr(combiner, "_CATALOG_CACHE", {})  # solved and encoded anew
        got = run_algorithm1(4)
        assert [(sd.design, sd.score) for sd in got] == [(sd.design, sd.score) for sd in want]
        assert got.json_text() == want.json_text()

    def test_default_scorer_rates_each_gain_multiset_once(self, monkeypatch):
        calls = []

        def counting(F, gains, denominator, snr):
            calls.append([tuple(row) for row in gains.tolist()])
            return rate._single_recursion_rates(F, gains, denominator, snr)

        monkeypatch.setattr(combiner, "_single_recursion_rates", counting)
        assert len(run_algorithm1(4)) == 759
        # one stacked evaluation rates the 20 multisets, each once
        assert len(calls) == 1
        assert len(calls[0]) == len(set(calls[0])) == 20
        # each search rates its own multisets; nothing is kept between searches
        run_algorithm1(4)
        assert len(calls) == 2 and calls[1] == calls[0]

    @pytest.mark.parametrize("m_p", [3, 4, 5])
    def test_stacked_scores_equal_per_multiset_rates(self, m_p):
        # every score is the lone sum_rate_recursive of its gain multiset,
        # sorted descending, bit for bit
        F = PatternMatrix(np.ones((1, 2), dtype=np.int64))
        chain = FactorChain(F, PatternMatrix(np.eye(m_p, dtype=np.int64)), 1)
        lcm = math.lcm(*range(1, m_p + 1))
        for snr_db in (0.0, -10.0, 10.0, 40.0):
            snr = 10.0 ** (snr_db / 10.0)
            ranking = run_algorithm1(m_p, ref_snr=snr)
            keys = -np.sort(-ranking.gains, axis=1)
            multisets, which = np.unique(keys, axis=0, return_inverse=True)
            want = [sum_rate_recursive(chain, [Fraction(k, lcm) for k in row], snr)
                    for row in multisets.tolist()]
            assert ranking.scores.tolist() == [want[i] for i in which.reshape(-1).tolist()]

    @pytest.mark.parametrize("m_p", [1, 2, 3, 4])
    def test_feasible_columns_have_one_isolating_vector(self, m_p):
        # why the solver needs no tie-break: a feasible P is invertible, so
        # each column's isolating vector is w e_j^T P^-1 with its scale fixed
        vecs, _ = coefficient_vectors(m_p)
        feasible = 0
        for P in enumerate_square_candidates(m_p):
            resp = vecs @ P.entries
            ok = (resp > 0) & (np.abs(resp).sum(axis=1, keepdims=True) == resp)
            if ok.any(axis=0).all():
                feasible += 1
                assert ok.sum(axis=0).tolist() == [1] * m_p
        assert feasible == len(run_algorithm1(m_p))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_no_runtime_warning(self):
        for m_p in (1, 2, 3, 4):
            run_algorithm1(m_p)
            for P in itertools.islice(enumerate_square_candidates(m_p), 40):
                try:
                    find_combiners(P)
                except CombinerInfeasible:
                    pass

    def test_zero_column_is_infeasible(self):
        P = PatternMatrix(np.array([[1, 0, 0], [0, 1, 0], [0, 0, 0]]))
        with pytest.raises(CombinerInfeasible) as exc:
            find_combiners(P)
        assert exc.value.columns == (2,)
        assert all(type(j) is int for j in exc.value.columns)


@functools.lru_cache(maxsize=None)
def _block_solve(m_p: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every one of the C(2^m - 1, m) candidates solved, a block at a time:
    the column values, isolating vectors and weights of the feasible ones."""
    vecs, _ = coefficient_vectors(m_p)
    bits = combiner._matrix_from_column_values(m_p, range(1, 2**m_p)).entries
    table = (vecs @ bits).astype(np.int32)
    per_block = max(1, combiner._BLOCK_VALUES // (len(vecs) * m_p))
    candidates = itertools.combinations(range(1, 2**m_p), m_p)
    cols, best = [], []
    while block := list(itertools.islice(candidates, per_block)):
        block = np.array(block)
        feasible, b = combiner._isolating_vectors(table[:, block - 1])
        keep = feasible.all(axis=1)
        cols.append(block[keep])
        best.append(b[keep])
    cols, best = np.concatenate(cols), np.concatenate(best)
    return cols, best, table[best, cols - 1].astype(np.int64)


def _block_search(m_p: int, ref_snr: float) -> combiner.Ranking:
    """Algorithm 1 over every candidate: each feasible candidate's gains
    keyed and rated, the ranking sorted as arrays.  The reference for the
    orbit search."""
    _, norms = coefficient_vectors(m_p)
    cols, best, weights = _block_solve(m_p)
    lcm = math.lcm(*range(1, m_p + 1))
    keys = -np.sort(-(weights * weights * (lcm // norms[best])), axis=1)
    multisets, which = np.unique(keys, axis=0, return_inverse=True)
    F = PatternMatrix(np.ones((1, 2), dtype=np.int64))
    scores = rate._single_recursion_rates(F, multisets, lcm, float(ref_snr))[which.reshape(-1)]
    order = np.lexsort((*cols.T[::-1], -scores))
    best, weights = best[order], weights[order]
    gains = weights * weights * (lcm // norms[best])
    return combiner.Ranking(m_p, cols[order], best, weights, gains, scores[order])


def _orbits(m_p: int) -> list[set[tuple[int, ...]]]:
    """The orbit of each representative the search solves: every sorted
    tuple its column values become when the rows of P are permuted."""
    moves = [[sum(((c >> i) & 1) << perm[i] for i in range(m_p)) for c in range(2**m_p)]
             for perm in itertools.permutations(range(m_p))]
    return [{tuple(sorted(move[c] for c in rep)) for move in moves}
            for rep in combiner._orbit_representatives(m_p).tolist()]


class TestOrbitSearch:
    """The search solves one representative per orbit of the row
    permutations and expands the feasible orbits into their members."""

    @pytest.mark.parametrize("m_p, orbits, feasible", [
        (1, 1, 1), (2, 2, 2), (3, 10, 8), (4, 97, 46), (5, 2160, 542)])
    def test_orbit_counts(self, m_p, orbits, feasible):
        reps = combiner._orbit_representatives(m_p)
        assert len(reps) == orbits
        solvable = 0
        for cols in reps.tolist():
            try:
                find_combiners(combiner._matrix_from_column_values(m_p, cols))
                solvable += 1
            except CombinerInfeasible:
                pass
        assert solvable == feasible

    @pytest.mark.parametrize("m_p", [1, 2, 3, 4, 5])
    def test_representatives_are_orbit_minima_and_partition(self, m_p):
        reps = [tuple(r) for r in combiner._orbit_representatives(m_p).tolist()]
        orbits = _orbits(m_p)
        assert reps == sorted(reps)
        assert all(rep == min(orbit) for rep, orbit in zip(reps, orbits))
        # disjoint, and together every candidate
        assert sum(map(len, orbits)) == search_space_size(m_p, m_p)
        assert set().union(*orbits) == set(itertools.combinations(range(1, 2**m_p), m_p))

    @pytest.mark.parametrize("m_p", [1, 2, 3, 4, 5])
    def test_equals_block_search(self, m_p):
        for snr in (0.5, 10.0, 1e4):
            want, got = _block_search(m_p, snr), run_algorithm1(m_p, ref_snr=snr)
            for name in ("cols", "best", "weights", "gains", "scores"):
                a, b = getattr(got, name), getattr(want, name)
                assert a.dtype == b.dtype and np.array_equal(a, b), name

    def test_permutation_tables_move_responses(self):
        # the permuted vector responds to the permuted column as the vector
        # did to the column, for every permutation, vector and column
        for m_p in (1, 2, 3, 4):
            vecs, _ = coefficient_vectors(m_p)
            pv, vv = combiner._row_permutation_tables(m_p)
            bits = (np.arange(2**m_p)[:, None] >> np.arange(m_p)) & 1
            resp = vecs @ bits.T  # resp[v, c]
            assert (resp[vv[:, :, None], pv[:, None, :]] == resp).all()

    def test_peak_memory_mp5(self, fresh_catalogs):
        # the block solver over all 169,911 candidates peaked at 15.3 MiB
        import tracemalloc

        tracemalloc.start()
        try:
            run_algorithm1(5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 16 * 2**20


class TestMatrixFromColumnValues:
    def test_row0_is_lsb(self):
        for m_p in (1, 2, 3, 4, 5):
            for cols in itertools.islice(itertools.combinations(range(1, 2**m_p), m_p), 50):
                P = combiner._matrix_from_column_values(m_p, cols)
                assert P.column_values() == cols
                assert P.entries.tolist() == [[(v >> i) & 1 for v in cols] for i in range(m_p)]


@given(st.integers(2, 3))
@settings(max_examples=10, deadline=None)
def test_every_feasible_design_validates(m_p):
    """Whatever find_combiners returns must satisfy the full design contract
    (checked independently by CombinerDesign's own validators)."""
    for P in itertools.islice(enumerate_square_candidates(m_p), 12):
        try:
            design = find_combiners(P)
        except CombinerInfeasible:
            continue
        rebuilt = CombinerDesign(
            P=design.P, alpha=design.alpha, weights=design.weights, gains=design.gains
        )
        assert rebuilt == design


def _json_reference(items) -> str:
    return json.dumps([sd.design.to_json_dict() for sd in items], indent=2) + "\n"


class TestRanking:
    """run_algorithm1's array-backed ranking: a lazy sequence of designs,
    and their JSON written from the arrays."""

    @pytest.mark.parametrize("m_p", [1, 2, 3, 4])
    @pytest.mark.parametrize("top", [1, 5, 10**6])
    def test_text_equals_json_dumps(self, m_p, top):
        ranking = run_algorithm1(m_p, top=top)
        assert len(ranking) == min(top, len(run_algorithm1(m_p)))
        assert ranking.json_text() == _json_reference(ranking)

    def test_empty_ranking_text(self):
        assert run_algorithm1(3)[:0].json_text() == json.dumps([], indent=2) + "\n" == "[]\n"

    def test_sequence_protocol(self):
        ranking = run_algorithm1(3)
        items = list(ranking)
        assert len(items) == len(ranking) == 29
        assert ranking[-1].design == items[-1].design
        assert ranking[np.int64(2)].design == items[2].design
        part = ranking[3:9:2]
        assert [sd.design for sd in part] == [sd.design for sd in items[3:9:2]]
        assert part.json_text() == _json_reference(items[3:9:2])
        with pytest.raises(IndexError):
            ranking[29]
        with pytest.raises(TypeError):
            ranking[1.0]

    def test_reading_k_items_builds_k(self, monkeypatch):
        built = _count_designs(monkeypatch)
        ranking = run_algorithm1(4)
        part = ranking[10:15]
        assert built == []
        ranking[3], ranking[-1]
        list(part)
        assert built == [tuple(ranking.cols[i].tolist()) for i in (3, -1, 10, 11, 12, 13, 14)]
        ranking.json_text()
        assert len(built) == 7


def _corrupt(ranking, how: str):
    """The ranking with one value of its fifth design made wrong: an alpha
    entry flipped, a weight changed, or a gain that is no longer
    w^2 / ||alpha||^2."""
    m = ranking.m_p
    best, weights, gains = ranking.best.copy(), ranking.weights.copy(), ranking.gains.copy()
    if how == "alpha":
        alpha = coefficient_vectors(m)[0][best[4, 1]].copy()
        alpha[0] = 0 if alpha[0] else 1
        best[4, 1] = int(((alpha + 1) * 3 ** np.arange(m - 1, -1, -1)).sum())
    elif how == "weight":
        weights[4, 1] += 1
    else:
        gains[4, 1] += 1
    return combiner.Ranking(m, ranking.cols, best, weights, gains, ranking.scores)


class TestBatchedCheck:
    """The writer checks its block before it writes: C1-C3, the weights and
    the gains, raising CombiningContractError (no assert, so -O keeps it)."""

    @pytest.mark.parametrize("how, message", [
        ("alpha", "must be diagonal|nonzero diagonal|weights do not match"),
        ("weight", "weights do not match"),
        ("gain", "gains do not match"),
    ])
    def test_corrupted_block_is_refused(self, how, message):
        ranking = run_algorithm1(4)
        with pytest.raises(CombiningContractError, match=message):
            _corrupt(ranking, how).json_text()
        ranking.json_text()  # the original is untouched

    def test_refused_under_python_O(self):
        root = Path(__file__).resolve().parent.parent
        probe = (
            "import sys\n"
            "from kronnoma import run_algorithm1, CombiningContractError\n"
            "from test_combiner import _corrupt\n"
            "print('optimize', sys.flags.optimize)\n"
            "ranking = run_algorithm1(4)\n"
            "for how in ('alpha', 'weight', 'gain'):\n"
            "    try:\n"
            "        _corrupt(ranking, how).json_text()\n"
            "    except CombiningContractError:\n"
            "        print(how, 'refused')\n"
        )
        env = dict(os.environ, PYTHONPATH=f"{root / 'src'}{os.pathsep}{root / 'tests'}")
        proc = subprocess.run([sys.executable, "-O", "-c", probe], env=env,
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == [
            "optimize 1", "alpha refused", "weight refused", "gain refused"]

    def test_alpha_outside_alphabet_is_refused(self, P3):
        alpha = np.array(ALPHA3_ROWS)[None] * 2
        with pytest.raises(CombiningContractError, match="must be in"):
            combiner._records_json(P3.entries[None], alpha, np.array([[4, 4, 4]]),
                                   np.array([[8, 8, 8]]))


_RECORDS_JSON = combiner._records_json


def _encoded_columns(monkeypatch) -> list:
    """Patch the checked encoder; returns the column values of each record
    it encodes from then on."""
    encoded = []

    def counting(P, alpha, weights, gains):
        values = (P << np.arange(P.shape[1])[:, None]).sum(axis=1)
        encoded.extend(map(tuple, values.tolist()))
        return _RECORDS_JSON(P, alpha, weights, gains)

    monkeypatch.setattr(combiner, "_records_json", counting)
    return encoded


class TestCatalog:
    """Each size is solved, expanded and encoded once per process; a call
    rates the gain multisets at its SNR and orders the catalog's members."""

    @pytest.mark.parametrize("m_p, top", [
        *itertools.product([1, 2, 3, 4], [None, 1, 7]), (5, 7)])
    def test_rankings_at_a_b_a(self, fresh_catalogs, m_p, top):
        # 10 and 0.3 order the 4x4 designs differently (from row 221 on)
        for snr in (10.0, 0.3, 10.0):
            ranking = run_algorithm1(m_p, ref_snr=snr, top=top)
            want = _block_search(m_p, snr)[:top]
            for name in ("cols", "best", "weights", "gains", "scores"):
                assert np.array_equal(getattr(ranking, name), getattr(want, name)), name
            assert ranking.json_text() == _json_reference(ranking)

    def test_solved_once_per_size(self, fresh_catalogs, monkeypatch):
        solved = []
        representatives = combiner._orbit_representatives

        def counting(m_p):
            solved.append(m_p)
            return representatives(m_p)

        monkeypatch.setattr(combiner, "_orbit_representatives", counting)
        for m_p, snr, top in [(3, 10.0, None), (4, 0.5, 3), (3, 0.5, 1), (4, 10.0, None),
                              (3, 1e4, 7)]:
            run_algorithm1(m_p, ref_snr=snr, top=top).json_text()
        assert solved == [3, 4]

    def test_each_record_encoded_once(self, fresh_catalogs, monkeypatch):
        encoded = _encoded_columns(monkeypatch)
        head = run_algorithm1(4, ref_snr=0.5, top=3)
        assert encoded == []  # nothing is encoded until written
        head.json_text()
        assert encoded == list(map(tuple, head.cols.tolist()))
        full = run_algorithm1(4)
        assert full.json_text() == _json_reference(full)
        assert len(encoded) == len(set(encoded)) == 759
        assert set(encoded) == set(map(tuple, full.cols.tolist()))
        full.json_text()
        run_algorithm1(4, ref_snr=2.0)[10:20].json_text()
        assert len(encoded) == 759

    def test_hand_built_ranking_is_encoded_on_every_write(self, monkeypatch):
        ranking = run_algorithm1(4, top=12)
        arrays = [getattr(ranking, name).copy() for name in ("cols", "best", "weights", "gains", "scores")]
        built = combiner.Ranking(4, *arrays)
        encoded = _encoded_columns(monkeypatch)
        assert built.json_text() == built.json_text() == _json_reference(ranking)
        assert encoded == 2 * list(map(tuple, ranking.cols.tolist()))

    def test_slices_write_reference_bytes(self, fresh_catalogs):
        ranking = run_algorithm1(4, ref_snr=0.5)
        parts = (ranking[100:300:7], ranking[::-5], ranking[750:], ranking[5:5], ranking[-3:2:-40])
        for part in parts:
            assert part.json_text() == _json_reference(part)
        assert ranking.json_text() == _json_reference(ranking)
        for part in parts:
            assert part.json_text() == _json_reference(part)

    def test_ranking_arrays_are_read_only(self):
        # the catalog's texts are the texts of these rows
        ranking = run_algorithm1(3)
        for name in ("cols", "best", "weights", "gains", "scores"):
            with pytest.raises(ValueError, match="read-only"):
                getattr(ranking, name)[0] += 1
            with pytest.raises(ValueError, match="read-only"):
                getattr(ranking[2:5], name)[0] += 1
