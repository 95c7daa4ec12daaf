import numpy as np
import pytest

from esspm import game as game_module
from esspm import (
    GameMatrix,
    GameParseError,
    MixedStrategy,
    Support,
    mutation_population,
    normalize,
    read_game,
    utility,
    write_game,
)


class TestGameMatrix:
    def test_construction_and_m(self):
        g = GameMatrix(np.array([[1.0, 2.0], [3.0, 4.0]]))
        assert g.m == 2
        assert g.payoffs[1, 0] == 3.0

    def test_rejects_nonsquare(self):
        with pytest.raises(ValueError, match="square"):
            GameMatrix(np.ones((2, 3)))

    def test_rejects_m_below_two(self):
        with pytest.raises(ValueError, match="at least 2"):
            GameMatrix(np.ones((1, 1)))

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError, match="finite"):
            GameMatrix(np.array([[1.0, np.inf], [0.0, 1.0]]))

    def test_payoffs_immutable(self):
        g = mutation_population()
        with pytest.raises(ValueError):
            g.payoffs[0, 0] = 99.0

    def test_is_normalized(self):
        assert GameMatrix(np.array([[0.0, 1.0], [0.5, 0.25]])).is_normalized
        assert not mutation_population().is_normalized

    def test_equal_games_hash_equal(self):
        # -0.0 == 0.0, so games that differ only in the sign of a zero are one game.
        g1 = GameMatrix([[0.0, 1.0], [1.0, 0.0]])
        g2 = GameMatrix([[-0.0, 1.0], [1.0, 0.0]])
        assert g1 == g2 and hash(g1) == hash(g2)
        assert len({g1, g2}) == 1
        assert g1 != GameMatrix([[0.0, 1.0], [1.0, 0.5]])

    def test_unequal_to_a_non_game(self):
        g = mutation_population()
        assert g != "x" and g != g.payoffs.tolist()
        assert GameMatrix.__eq__(g, "x") is NotImplemented


class TestMixedStrategy:
    def test_pure(self):
        s = MixedStrategy.pure(1, 3)
        assert s.probs.tolist() == [0.0, 1.0, 0.0]

    def test_pure_is_one_shared_read_only_instance(self):
        s = MixedStrategy.pure(1, 4)
        assert MixedStrategy.pure(1, 4) is s
        assert MixedStrategy.pure(np.int64(1), np.int32(4)) is s
        assert MixedStrategy.pure(2, 4) is not s and MixedStrategy.pure(1, 3) is not s
        with pytest.raises(ValueError, match="read-only"):
            s.probs[0] = 1.0
        assert s == MixedStrategy([0.0, 1.0, 0.0, 0.0])

    @pytest.mark.parametrize("i, m", [(-1, 3), (3, 3), (np.int64(5), 2), (0, 0)])
    def test_pure_out_of_range_raises_and_is_not_cached(self, i, m):
        cached = game_module._pure_strategy.cache_info().currsize
        for _ in range(2):
            with pytest.raises(ValueError, match="out of range"):
                MixedStrategy.pure(i, m)
        assert game_module._pure_strategy.cache_info().currsize == cached

    @pytest.mark.parametrize(("i", "m", "name"), [(1.5, 3, "i"), (1, "3", "m")])
    def test_pure_refuses_non_integers(self, i, m, name):
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            MixedStrategy.pure(i, m)

    def test_rejects_negative(self):
        with pytest.raises(ValueError, match="negative"):
            MixedStrategy([-0.1, 1.1])

    def test_rejects_bad_sum(self):
        with pytest.raises(ValueError, match="sum"):
            MixedStrategy([0.5, 0.4])

    @pytest.mark.parametrize(
        "probs", [[np.nan, np.nan], [0.5, np.nan], [np.inf, 0.0], [1.0, np.inf, -np.inf]]
    )
    def test_rejects_non_finite(self, probs):
        with pytest.raises(ValueError, match="non-finite"):
            MixedStrategy(probs)

    def test_rejects_two_dimensional(self):
        with pytest.raises(ValueError, match="1-d"):
            MixedStrategy([[0.5, 0.5]])

    def test_support(self):
        s = MixedStrategy([0.5, 0.0, 0.5])
        assert s.support().indices == (0, 2)

    def test_equal_strategies_hash_equal(self):
        s1, s2 = MixedStrategy([0.0, 1.0]), MixedStrategy([-0.0, 1.0])
        assert s1 == s2 and hash(s1) == hash(s2)
        assert len({s1, s2}) == 1
        assert s1 != MixedStrategy([1.0, 0.0])

    def test_unequal_to_a_non_strategy(self):
        s = MixedStrategy([0.0, 1.0])
        assert s != "x" and s != Support((1,))
        assert MixedStrategy.__eq__(s, [0.0, 1.0]) is NotImplemented


class TestSupport:
    def test_ordering_enforced(self):
        with pytest.raises(ValueError, match="increasing"):
            Support((2, 1))

    def test_nonempty(self):
        with pytest.raises(ValueError, match="nonempty"):
            Support(())

    def test_rejects_negative_index(self):
        with pytest.raises(ValueError, match="negative support index -1"):
            Support((-1, 0))

    def test_range_check(self):
        with pytest.raises(ValueError, match="out of range"):
            Support((0, 5)).validate_for(3)

    @pytest.mark.parametrize(
        "indices", [(0, 1.5), (0.0, 1), (0, np.float64(2.0)), (False, True), (np.False_, 1)]
    )
    def test_rejects_non_integer_indices(self, indices):
        with pytest.raises(ValueError, match="integers"):
            Support(indices)

    def test_iterates_its_indices(self):
        assert tuple(Support((0, 2))) == (0, 2)
        assert list(MixedStrategy([0.5, 0.0, 0.5]).support()) == [0, 2]

    def test_numpy_integer_indices(self):
        support = Support(tuple(np.array([0, 2], dtype=np.int64)))
        assert support.indices == (0, 2)
        assert all(type(i) is int for i in support.indices)


class TestUtility:
    def test_mp_dove_vs_hawk(self):
        # Row Dove against column Hawk reads entry (0, 1) of the table.
        mp = mutation_population()
        got = utility(mp, MixedStrategy.pure(0, 2), MixedStrategy.pure(1, 2))
        assert got == 2.0

    def test_pure_diagonal(self):
        g = GameMatrix(np.array([[7.0, 1.0], [0.0, 3.0]]))
        for i in range(2):
            p = MixedStrategy.pure(i, 2)
            assert utility(g, p, p) == g.payoffs[i, i]

    def test_mp_mixed_value(self):
        # Direct arithmetic: 0.2*(4*0.2 + 2*0.8) + 0.8*(8*0.2 + 1*0.8) = 2.4
        mp = mutation_population()
        s = MixedStrategy([0.2, 0.8])
        assert utility(mp, s, s) == pytest.approx(2.4, abs=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension"):
            utility(mutation_population(), MixedStrategy([1.0, 0.0, 0.0]), MixedStrategy([1.0, 0.0]))

    def test_bilinearity(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            m = int(rng.integers(2, 6))
            g = GameMatrix(rng.random((m, m)))
            raw = rng.random((3, m))
            v, v2, w = (MixedStrategy(r / r.sum()) for r in raw)
            lam = float(rng.random())
            mix = MixedStrategy(lam * v.probs + (1 - lam) * v2.probs)
            left = utility(g, mix, w)
            right = lam * utility(g, v, w) + (1 - lam) * utility(g, v2, w)
            assert left == pytest.approx(right, rel=1e-12, abs=1e-12)


class TestNormalize:
    def test_mp_values(self):
        # min 1, max 8 so the affine map is (a - 1) / 7.
        n = normalize(mutation_population())
        expected = np.array([[3.0 / 7.0, 1.0 / 7.0], [1.0, 0.0]])
        np.testing.assert_allclose(n.payoffs, expected, rtol=0, atol=1e-15)

    def test_zero_one_game_unchanged(self):
        g = GameMatrix(np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert normalize(g) == g

    def test_constant_game_maps_to_zero(self):
        g = GameMatrix(np.full((3, 3), 5.0))
        assert normalize(g).payoffs.max() == 0.0

    def test_output_always_normalized(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            m = int(rng.integers(2, 6))
            g = GameMatrix(rng.normal(scale=100.0, size=(m, m)))
            assert normalize(g).is_normalized

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("big", [1e307, 1e308, np.finfo(float).max])
    def test_range_above_the_largest_double(self, big):
        # At 1e308 and above, max - min overflows; the result must not depend on it.
        n = normalize(GameMatrix(np.array([[-big, big], [0.0, 1.0]])))
        assert n.payoffs.tolist() == [[0.0, 1.0], [0.5, 0.5]]

    def test_ordinary_range_keeps_its_bytes(self):
        a = np.random.default_rng(12).normal(scale=1e300, size=(4, 4))
        lo, hi = a.min(), a.max()
        assert normalize(GameMatrix(a)).payoffs.tobytes() == ((a - lo) / (hi - lo)).tobytes()


class TestGameText:
    def test_read_mp(self):
        assert read_game("2\n4 2\n8 1\n") == mutation_population()

    def test_write_then_read_round_trip(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            m = int(rng.integers(2, 6))
            g = GameMatrix(rng.random((m, m)))
            assert read_game(write_game(g)) == g

    def test_canonical_text_stable(self):
        text = write_game(mutation_population())
        assert write_game(read_game(text)) == text

    def test_comments_ignored(self):
        text = "# generated game\n2\n# row one\n4 2\n8 1\n"
        assert read_game(text) == mutation_population()

    def test_short_row_message(self):
        with pytest.raises(GameParseError, match=r"row 2 has 1 of 2 entries"):
            read_game("2\n4 2\n8\n")

    def test_bad_header(self):
        with pytest.raises(GameParseError, match="line 1"):
            read_game("two\n1 2\n3 4\n")
        with pytest.raises(GameParseError, match="line 1: empty input"):
            read_game("# only a comment\n")
        with pytest.raises(GameParseError, match="strategy count must be >= 2, got 1"):
            read_game("1\n0.5\n")

    def test_non_numeric_entry(self):
        with pytest.raises(GameParseError, match="non-numeric"):
            read_game("2\n4 x\n8 1\n")

    @pytest.mark.parametrize("tok", ["inf", "nan", "-inf"])
    def test_non_finite_entry(self, tok):
        with pytest.raises(GameParseError, match=rf"line 2: row 1 has non-finite entry '{tok}'"):
            read_game(f"2\n1 {tok}\n0 1\n")

    def test_missing_rows(self):
        with pytest.raises(GameParseError, match="expected 3 payoff rows"):
            read_game("3\n1 2 3\n4 5 6\n")
