import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from operadforge.braids import (
    BraidWord,
    DimensionError,
    braid_compose,
    braid_equal,
    braid_inverse,
    braid_is_trivial,
    cable,
    direct_sum,
    exponent_sum,
    format_braid,
    handle_reduce,
    parse_braid,
    permute_contents,
    remove_strand_one,
    trivial,
    underlying_permutation,
)

from braid_oracle import handle_reduce_letters
from conftest import braid_words, long_braid_pairs, paired_braid_words


class TestLiterals:
    def test_round_trip(self):
        for src in ("{3; -2 1}", "{2; 1}", "{3;}", "{0;}", "{4; 1 2 1 -2 -1 -2}"):
            assert format_braid(parse_braid(src)) == src

    def test_rejects_out_of_range_letters(self):
        with pytest.raises(ValueError):
            parse_braid("{2; 2}")
        with pytest.raises(ValueError):
            parse_braid("{1; 1}")
        with pytest.raises(ValueError):
            parse_braid("{nope}")


class TestCompose:
    def test_concatenation(self):
        assert braid_compose(parse_braid("{2; 1}"), parse_braid("{2; -1}")) == parse_braid(
            "{2; 1 -1}"
        )

    def test_inverse_cancellation(self):
        u = braid_compose(parse_braid("{2; 1}"), parse_braid("{2; -1}"))
        assert braid_is_trivial(u)

    def test_far_generators_commute(self):
        assert braid_equal(
            braid_compose(parse_braid("{4; 1}"), parse_braid("{4; 3}")),
            braid_compose(parse_braid("{4; 3}"), parse_braid("{4; 1}")),
        )

    def test_empty_unit(self):
        u = parse_braid("{3; 1 -2}")
        assert braid_compose(trivial(3), u) == u
        assert braid_compose(u, trivial(3)) == u

    def test_strand_mismatch(self):
        with pytest.raises(DimensionError):
            braid_compose(parse_braid("{2; 1}"), parse_braid("{3; 1}"))
        with pytest.raises(DimensionError):
            braid_equal(parse_braid("{2; 1}"), parse_braid("{3; 1}"))


class TestInverse:
    def test_definition(self):
        assert braid_inverse(parse_braid("{3; 1 -2}")) == parse_braid("{3; 2 -1}")
        assert braid_inverse(trivial(4)) == trivial(4)

    @settings(max_examples=80, deadline=None)
    @given(braid_words())
    def test_two_sided_inverse(self, u):
        assert braid_is_trivial(braid_compose(u, braid_inverse(u)))
        assert braid_is_trivial(braid_compose(braid_inverse(u), u))


class TestTriviality:
    def test_examples(self):
        assert braid_is_trivial(parse_braid("{2; 1 -1}"))
        assert not braid_is_trivial(parse_braid("{2; 1 1}"))
        assert braid_is_trivial(parse_braid("{4; 1 2 1 -2 -1 -2}"))

    def test_b4_relations(self):
        assert braid_equal(parse_braid("{4; 3 1}"), parse_braid("{4; 1 3}"))
        assert braid_equal(parse_braid("{4; 1 2 1}"), parse_braid("{4; 2 1 2}"))
        assert braid_equal(parse_braid("{4; 2 3 2}"), parse_braid("{4; 3 2 3}"))

    def test_generator_vs_inverse(self):
        assert not braid_equal(parse_braid("{2; 1}"), parse_braid("{2; -1}"))

    def test_three_strand_cycles_differ(self):
        # both are 3-cycles on strands, but distinct braids
        assert not braid_equal(parse_braid("{3; 1 2}"), parse_braid("{3; 2 1}"))

    def test_unequal_despite_equal_permutations(self):
        u, v = parse_braid("{2; 1 1}"), trivial(2)
        assert underlying_permutation(u) == underlying_permutation(v)
        assert exponent_sum(u) != exponent_sum(v)
        assert not braid_equal(u, v)
        # and a pair the abelianization cannot separate either
        w = parse_braid("{3; 1 1 -2 -2}")
        assert underlying_permutation(w) == (1, 2, 3)
        assert exponent_sum(w) == 0
        assert not braid_is_trivial(w)

    def test_full_twist_nontrivial(self):
        assert not braid_is_trivial(parse_braid("{3; 1 1}"))
        assert braid_is_trivial(parse_braid("{2; 1 -1 1 -1 1 1 -1 -1}"))

    def test_handle_reduce_fixpoint_empty_for_trivial(self):
        w = parse_braid("{4; 1 2 1 -2 -1 -2}")
        assert handle_reduce(w).letters == ()


class TestLongWords:
    """Known answers by construction, at lengths the brute-force relator
    search of criterion 1 cannot reach."""

    def test_rewritten_words_equal_commutator_unequal(self):
        for w, v, equal in long_braid_pairs(60, seed=11):
            assert braid_equal(w, v) is equal, (w, v)


class TestHandleReduceOracle:
    """The incremental scan returns exactly the rescanning oracle's word."""

    @settings(max_examples=300, deadline=None)
    @given(braid_words(min_strands=2, max_strands=6, max_len=30))
    def test_short_words(self, u):
        assert handle_reduce(u).letters == handle_reduce_letters(u.letters)

    def test_long_pairs(self):
        for w, v, _ in long_braid_pairs(200, seed=7):
            x = braid_compose(w, braid_inverse(v))
            assert handle_reduce(x).letters == handle_reduce_letters(x.letters)

    def test_random_b8_words(self):
        rng = random.Random(8)
        for length in (200, 400, 800):
            x = BraidWord(8, tuple(rng.choice((1, -1)) * rng.randrange(1, 8) for _ in range(length)))
            assert handle_reduce(x).letters == handle_reduce_letters(x.letters)


class TestPermutation:
    def test_examples(self):
        assert underlying_permutation(parse_braid("{2; 1}")) == (2, 1)
        assert underlying_permutation(parse_braid("{3; 1 2}")) == (3, 1, 2)
        assert underlying_permutation(parse_braid("{2; 1 1}")) == (1, 2)

    @settings(max_examples=60, deadline=None)
    @given(paired_braid_words())
    def test_homomorphism(self, uv):
        u, v = uv
        pu, pv = underlying_permutation(u), underlying_permutation(v)
        assert underlying_permutation(braid_compose(u, v)) == tuple(
            pv[pu[k] - 1] for k in range(u.strands)
        )


class TestExponentSum:
    def test_examples(self):
        assert exponent_sum(parse_braid("{2; 1 1 1}")) == 3
        assert exponent_sum(parse_braid("{3; 1 -2}")) == 0

    @settings(max_examples=60, deadline=None)
    @given(paired_braid_words())
    def test_invariant_under_equality(self, uv):
        u, v = uv
        if braid_equal(u, v):
            assert exponent_sum(u) == exponent_sum(v)


class TestCable:
    def test_paper_example(self):
        got = cable(parse_braid("{3; -2 1}"), [1, 2, 1])
        assert got.letters == (-3, 2, 1)
        assert braid_equal(got, parse_braid("{4; -3 2 1}"))

    def test_identity_widths(self):
        u = parse_braid("{3; -2 1}")
        assert cable(u, [1, 1, 1]) == u

    def test_zero_width_deletes(self):
        assert cable(parse_braid("{2; 1}"), [1, 0]) == trivial(1)
        assert cable(parse_braid("{2; 1 -1 1}"), [0, 0]) == trivial(0)

    def test_width_count_mismatch(self):
        with pytest.raises(DimensionError):
            cable(parse_braid("{2; 1}"), [1, 1, 1])

    @settings(max_examples=40, deadline=None)
    @given(braid_words(max_strands=4, max_len=5))
    def test_permutation_compatibility(self, u):
        widths = [(i * 7 + 1) % 3 for i in range(u.strands)]
        cb = cable(u, widths)
        p = underlying_permutation(u)
        start_w = [widths[p[k - 1] - 1] for k in range(1, u.strands + 1)]
        img = [0] * sum(widths)
        for k in range(1, u.strands + 1):
            so = sum(start_w[: k - 1])
            eo = sum(widths[: p[k - 1] - 1])
            for j in range(start_w[k - 1]):
                img[so + j] = eo + j + 1
        assert underlying_permutation(cb) == tuple(img)

    def test_functorial_in_widths(self, rng):
        for _ in range(60):
            n = rng.randint(2, 3)
            letters = tuple(
                rng.choice([i for i in range(-(n - 1), n) if i != 0])
                for _ in range(rng.randint(0, 4))
            )
            u = BraidWord(n, letters)
            js = [rng.randint(0, 2) for _ in range(n)]
            ks = [[rng.randint(0, 2) for _ in range(j)] for j in js]
            flat = [x for sub in ks for x in sub]
            lhs = cable(cable(u, js), flat)
            rhs = cable(u, [sum(sub) for sub in ks])
            assert lhs.strands == rhs.strands
            assert braid_equal(lhs, rhs)

    @settings(max_examples=150, deadline=None)
    @given(paired_braid_words(max_strands=5, max_len=6), st.data())
    def test_cabling_a_product_is_the_product_of_the_cablings(self, pair, data):
        # letter for letter, with the widths carried back through t
        s, t = pair
        w = data.draw(st.lists(st.integers(0, 3), min_size=s.strands, max_size=s.strands))
        back = permute_contents(braid_inverse(t), w)
        assert cable(braid_compose(s, t), w) == braid_compose(cable(s, back), cable(t, w))


class TestDirectSum:
    def test_examples(self):
        assert direct_sum([trivial(2), trivial(2)]) == trivial(4)
        assert direct_sum([parse_braid("{2; 1}"), parse_braid("{2; 1}")]) == parse_braid(
            "{4; 1 3}"
        )

    @settings(max_examples=40, deadline=None)
    @given(braid_words(max_strands=3, max_len=4), braid_words(max_strands=3, max_len=4))
    def test_permutation_block_sum(self, u, v):
        got = underlying_permutation(direct_sum([u, v]))
        want = block_sum(underlying_permutation(u), underlying_permutation(v))
        assert got == want


def block_sum(p: tuple[int, ...], q: tuple[int, ...]) -> tuple[int, ...]:
    """The one-line images p and q side by side, q on the points above p's."""
    return p + tuple(v + len(p) for v in q)


class TestStrandRemoval:
    def test_clean_strand(self):
        u = parse_braid("{3; 2 2 -2}")
        assert remove_strand_one(u) == parse_braid("{2; 1}")

    def test_entangled_strand(self):
        assert remove_strand_one(parse_braid("{3; 1 1}")) is None
        # trivial permutation on strand 1 but still entangled
        assert remove_strand_one(parse_braid("{2; 1 1}")) is None

    def test_conjugate_still_moves_strand_one(self):
        # sigma1 sigma2 sigma1^-1 carries strand 1 to position 3, so it can
        # never be rewritten without index-1 letters.
        assert remove_strand_one(parse_braid("{3; 1 2 -1}")) is None

    def test_removal_is_sound(self, rng):
        for _ in range(40):
            letters = tuple(rng.choice([2, -2, 3, -3]) for _ in range(rng.randint(0, 5)))
            shifted = BraidWord(4, letters)
            got = remove_strand_one(shifted)
            assert got is not None
            assert braid_equal(direct_sum([trivial(1), got]), shifted)
