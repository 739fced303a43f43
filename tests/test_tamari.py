import pytest

from kronmot.errors import DEFAULT_MAX_PATHS, ResourceLimitError
from kronmot.tamari import (
    TamariPoset,
    covers,
    fuss_catalan,
    generate_paths,
    interval_count_bruteforce,
    interval_count_formula,
)


class TestGeneration:
    def test_counts(self):
        assert len(generate_paths(1, 3)) == 5
        assert generate_paths(1, 1) == ["NE"]
        assert len(generate_paths(2, 2)) == 3

    def test_counts_match_fuss_catalan(self):
        for mprime in (1, 2, 3):
            for n in (1, 2, 3, 4):
                assert len(generate_paths(mprime, n)) == fuss_catalan(mprime, n)

    def test_lexicographic_and_valid(self):
        paths = generate_paths(2, 3)
        assert paths == sorted(paths, key=lambda w: [0 if c == "N" else 1 for c in w])
        for p in paths:
            balance = 0
            for c in p:
                balance += 2 if c == "N" else -1
                assert balance >= 0
            assert balance == 0

    def test_resource_cap(self):
        with pytest.raises(ResourceLimitError):
            generate_paths(1, 10, max_paths=100)


class TestCovers:
    def test_classical_rotation(self):
        assert covers("NENE", 1) == ["NNEE"]
        assert covers("NNEE", 1) == []

    def test_top_element_has_no_covers(self):
        for mprime, n in [(1, 4), (2, 3)]:
            top = "N" * n + "E" * (mprime * n)
            assert covers(top, mprime) == []

    def test_cover_moves_one_e_right(self):
        for mprime, n in [(1, 4), (2, 3), (3, 2)]:
            for p in generate_paths(mprime, n):
                for q in covers(p, mprime):
                    assert sorted(q) == sorted(p)
                    # exactly one E moved right: the N-positions shift left
                    diff = [i for i in range(len(p)) if p[i] != q[i]]
                    assert diff and p[diff[0]] == "E" and q[diff[0]] == "N"

    def test_covers_stay_valid(self):
        for p in generate_paths(2, 3):
            valid = set(generate_paths(2, 3))
            for q in covers(p, 2):
                assert q in valid


class TestPoset:
    def test_element_count(self):
        assert len(TamariPoset(2, 4).elements) == 55


class TestIntervalCounts:
    def test_small_chains(self):
        assert interval_count_bruteforce(1, 2) == 3
        assert interval_count_bruteforce(2, 2) == 6

    def test_a000260(self):
        assert [interval_count_bruteforce(1, n) for n in range(1, 5)] == [
            1, 3, 13, 68,
        ]

    def test_formula_values(self):
        assert interval_count_formula(1, 3) == 13
        assert interval_count_formula(1, 5) == 399
        assert interval_count_formula(2, 3) == 58

    @pytest.mark.parametrize("mprime", [1, 2, 3])
    def test_bruteforce_matches_formula(self, mprime):
        for n in range(1, 6 - mprime + 1):
            assert interval_count_bruteforce(mprime, n) == \
                interval_count_formula(mprime, n)


class TestCoverOrder:
    @pytest.mark.parametrize("mprime, frozen", [
        (1, [1, 3, 13, 68, 399, 2530, 16965, 118668, 857956]),
        (2, [1, 6, 58, 703, 9729, 146916, 2359968]),
        (3, [1, 10, 170, 3685, 91881, 2509584]),
    ])
    def test_covers_precede_their_paths_up_to_the_cap(self, mprime, frozen):
        # every n whose paths fit under the default cap
        assert fuss_catalan(mprime, len(frozen) + 1) > DEFAULT_MAX_PATHS
        counts = []
        for n in range(1, len(frozen) + 1):
            poset = TamariPoset(mprime, n)
            for u, ups in enumerate(poset.covers):
                assert all(w < u for w in ups), (n, u)
            counts.append(poset.interval_count())
        assert counts == frozen

    def test_a_cover_after_its_path_is_refused(self):
        poset = TamariPoset(1, 3)
        poset.covers[0] = [len(poset.elements) - 1]
        with pytest.raises(AssertionError):
            poset.interval_count()
