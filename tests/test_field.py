import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import code_key, package_calls
from freewick import field, fock, grid, ncpart, xfock
from freewick.errors import CapacityError
from freewick.ncpart import MarkedPartition, SetPartition


def rel(u, v):
    return fock.norm(u - v) / max(fock.norm(u), fock.norm(v), 1e-300)


def random_grid(m, rng):
    return grid.make_grid(m, lam=rng.standard_normal(m))


def marked(blocks, marks):
    n = max(x for b in blocks for x in b)
    return MarkedPartition(SetPartition.from_blocks(n, blocks), tuple(marks))


# Tier-1 oracles on the private kernels that field's routes run.

def word_apply(ops, f, v, g):
    """One smeared operator word, one factor per kernel axis.

    ``ops[j]`` picks the factor carried by integration variable ``j``:
    ``'+'`` creation, ``'-'`` annihilation, ``'0'`` the coefficient-weighted
    neutral factor.  Runs the batched peel kernel keeping one part per
    factor, to verify single terms of the monomial expansion.
    """
    f = np.asarray(f, dtype=float)
    return field._to_vector(field._peel(field._lift(f, v), tuple(ops), g), v.base)


def three_parts(f, v, g):
    """The field as the sum of its three Fock primitives: the oracle of the
    order-1 monomial, which is the package's field."""
    return fock.create(f, v) + fock.annihilate(f, v) + fock.neutral(g.lambda_values * f, v)


def reduce_kernel(kappa, f, g):
    """A kernel collapsed along the blocks of an admissible marked partition,
    one output axis per +1 block."""
    f = np.asarray(f, dtype=float)
    return field._reduce(kappa, f, field._power_table(g, f.ndim))


class TestField:
    """The field is the order-1 monomial."""

    def test_on_vacuum_creates(self, rng):
        g = random_grid(5, rng)
        f = rng.standard_normal(5)
        v = field.monomial_apply(f, fock.vacuum(g, 1), g)
        assert np.allclose(v.levels[1], f)
        assert float(v.levels[0]) == 0.0

    def test_gaussian_second_moment(self, rng):
        g = grid.make_grid(6, lam=0.0)
        f = np.ones(6)
        v = field.monomial_apply(f, field.monomial_apply(f, fock.vacuum(g, 2), g), g)
        assert abs(float(v.levels[0]) - 1.0) < 1e-12

    def test_poisson_third_moment(self):
        g = grid.make_grid(6, lam=1.0)
        f = np.ones(6)
        v = fock.vacuum(g, 3)
        for _ in range(3):
            v = field.monomial_apply(f, v, g)
        assert abs(float(v.levels[0]) - 1.0) < 1e-12


    def test_levels_stop_at_content(self, rng):
        # a degree-8 word over a Meixner joint quadrature stores no zero level
        g = grid.make_grid(2, lam=1.0, eta=1.0)
        pg = grid.ProductGrid(g, [grid.semicircle_fiber(1.0, 1.0, 2) for _ in range(2)])
        v = fock.vacuum(pg, 8)
        for _ in range(8):
            v = field.monomial_apply(pg.lift(rng.standard_normal(2)), v)
            assert len(v.levels) - 1 == fock.top_level(v)
            assert v.max_level == 8


def raises_capacity(call) -> bool:
    try:
        call()
    except CapacityError:
        return True
    return False


class TestFieldIsThreeParts:
    """The order-1 monomial equals the sum of the three Fock primitives."""

    def vectors(self, g, rng):
        top_zero = fock.random_vector(g, 3, rng)
        top_zero.levels[3][:] = 0
        return [
            fock.vacuum(g, 2),
            fock.FockVector(g, fock.random_vector(g, 1, rng).levels, 3),
            fock.FockVector(g, fock.random_vector(g, 2, rng).levels, 4),
            top_zero,
        ]

    def test_equals_the_sum_of_its_parts(self, rng):
        g = random_grid(5, rng)
        f = rng.standard_normal(5)
        for v in self.vectors(g, rng):
            parts = three_parts(f, v, g)
            one = field.monomial_apply(f, v, g)
            assert one.max_level == parts.max_level and len(one.levels) == len(parts.levels)
            assert fock.distance(one, parts) <= 1e-14 * fock.norm(parts)

    def test_raises_where_creation_does(self, rng):
        g = random_grid(4, rng)
        f = rng.standard_normal(4)
        full = fock.random_vector(g, 2, rng)
        top_zero = fock.random_vector(g, 2, rng)
        top_zero.levels[2][:] = 0
        cases = [
            (f, full),
            (np.zeros(4), full),
            (f, top_zero),
            (f, fock.vacuum(g, 0)),
            (f, fock.vacuum(g, 1)),
        ]
        seen = set()
        for h, v in cases:
            raised = raises_capacity(lambda: field.monomial_apply(h, v, g))
            assert raised == raises_capacity(lambda: fock.create(h, v))
            seen.add(raised)
        assert seen == {True, False}


# the functions that the big-Fock field and a Fock primitive may both run
SHARED = {
    code_key(fock.FockVector.__init__.__code__): "the vector container; it checks level shapes",
    code_key(grid.ProductGrid.size.fget.__code__): "a grid property: the number of joint nodes",
}


def test_big_fock_field_shares_no_code_with_the_fock_primitives(rng):
    # the primitives are tier-1's oracle for the field that the extended
    # realization is checked against, so no step of the field may be theirs
    assert len(SHARED) <= 3 and all(reason.strip() for reason in SHARED.values())
    g = grid.make_grid(3, lam=0.5, eta=1.0)
    pg = grid.ProductGrid(g, grid.semicircle_fibers(g, 4))
    v = fock.FockVector(pg, fock.random_vector(pg, 2, rng).levels, 3)
    f = rng.standard_normal(3)
    lifted = pg.lift(f)
    big = package_calls(lambda: xfock.big_fock_realize(f, v))
    assert code_key(xfock.big_fock_realize.__code__) in big
    for primitive, h in (
        (fock.create, lifted),
        (fock.annihilate, lifted),
        (fock.neutral, pg.lambda_values * lifted),
    ):
        own = package_calls(lambda: primitive(h, v))
        assert code_key(primitive.__code__) in own
        assert big & own <= SHARED.keys(), (primitive.__name__, big & own - SHARED.keys())


class TestOneModel:
    def test_refuses_a_model_other_than_the_base(self, rng):
        # two grids of one size and one set of weights: a g beside v would
        # mix its coefficient table with v's levels without any error
        g, g2 = random_grid(4, rng), random_grid(4, rng)
        v = fock.vacuum(g, 2)
        f, f2 = rng.standard_normal(4), rng.standard_normal((4, 4))
        for call in (
            lambda: field.monomial_apply(f2, v, g2),
            lambda: field.wick_apply(f2, v, g2),
            lambda: field.wick_apply(f2, v, g2, form="recursive"),
            lambda: field.wick_rule_expand(f2, g2, v),
            lambda: field.wick_product_expand((1, 1), f2, g2, v),
            lambda: field.wick_product_sequential([f, f], g2, v),
        ):
            with pytest.raises(ValueError, match="base of its vector"):
                call()
        # naming the base is the same as leaving it out
        assert fock.norm(field.monomial_apply(f2, v, g) - field.monomial_apply(f2, v)) == 0.0


class TestKernelShape:
    def test_refused_with_both_shapes_before_any_work(self, rng):
        # an axis of another length used to fail deep in the level checks or
        # in numpy's matmul, with a message naming one shape or neither
        g = grid.make_grid(6)
        vectors = (fock.vacuum(g, 1), fock.random_vector(g, 2, rng))
        routes = (
            field.monomial_apply,
            field.wick_apply,
            lambda f, v, g: field.wick_apply(f, v, g, form="recursive"),
            lambda f, v, g: field.wick_rule_expand(f, g, v),
            lambda f, v, g: field.wick_product_expand((1,) * f.ndim, f, g, v),
        )
        for f in (np.ones(5), np.ones((6, 5)), np.ones((5, 6, 6))):
            for v, route in itertools.product(vectors, routes):
                with pytest.raises(ValueError) as err:
                    route(f, v, g)
                assert str(f.shape) in str(err.value)
                assert str((6,) * f.ndim) in str(err.value)


class TestMonomialApply:
    def test_product_kernel_iterates(self, rng):
        g = random_grid(5, rng)
        f1, f2 = rng.standard_normal(5), rng.standard_normal(5)
        v = fock.vacuum(g, 2)
        lhs = field.monomial_apply(np.multiply.outer(f1, f2), v, g)
        rhs = three_parts(f1, three_parts(f2, v, g), g)
        assert rel(lhs, rhs) < 1e-13

    def test_worked_word_example(self, rng):
        # creation, annihilation, coefficient-weighted neutral, creation on a
        # level-2 vector: one integration variable survives on the diagonal
        g = random_grid(3, rng)
        f4 = rng.standard_normal((3, 3, 3, 3))
        g2 = rng.standard_normal((3, 3))
        v = fock.FockVector(g, [np.zeros((3,) * k) for k in range(4)])
        v.levels[2] = g2
        out = word_apply("+-0+", f4, v, g)
        contracted = np.einsum("sttt,t->s", f4, g.weights * g.lambda_values)
        expect = np.multiply.outer(contracted, g2)
        assert np.abs(out.levels[3] - expect).max() < 1e-12
        for k in range(3):
            assert not np.any(out.levels[k])

    def test_monomial_equals_word_sum(self, rng):
        # the monomial is the sum of all 3^n operator words
        g = random_grid(3, rng)
        n = 2
        f = rng.standard_normal((3, 3))
        v = fock.random_vector(g, 4, rng)
        v.levels[4][:] = 0
        v.levels[3][:] = 0
        total = fock.FockVector(g, [0.0], 4)
        for ops in itertools.product("+-0", repeat=n):
            total = total + word_apply(ops, f, v, g)
        assert rel(total, field.monomial_apply(f, v, g)) < 1e-13

    # The two tests below check the batched operator kernel against the Fock
    # primitives alone, on rank-one kernels f1 x ... x fn.

    @pytest.mark.parametrize("n", [3, 4])
    def test_rank_one_monomial_equals_nested_fields(self, n, rng):
        g = random_grid(3, rng)
        fs = [rng.standard_normal(3) for _ in range(n)]
        v = low_levels_vector(g, n, rng)
        expect = v
        for f in reversed(fs):
            expect = three_parts(f, expect, g)
        assert rel(field.monomial_apply(_outer(fs), v, g), expect) < 1e-12

    @pytest.mark.parametrize("n", [3, 4])
    def test_rank_one_words_equal_primitive_compositions(self, n, rng):
        g = random_grid(3, rng)
        fs = [rng.standard_normal(3) for _ in range(n)]
        v = low_levels_vector(g, n, rng)
        factor = {
            "+": fock.create,
            "-": fock.annihilate,
            "0": lambda f, u: fock.neutral(g.lambda_values * f, u),
        }
        for ops in itertools.product("+-0", repeat=n):
            expect = v
            for op, f in reversed(list(zip(ops, fs))):
                expect = factor[op](f, expect)
            assert rel(word_apply(ops, _outer(fs), v, g), expect) < 1e-12, ops

    def test_capacity_error_on_creation_past_budget(self, rng):
        g = random_grid(4, rng)
        f = rng.standard_normal((4, 4))
        v = fock.random_vector(g, 2, rng)
        with pytest.raises(CapacityError):
            field.monomial_apply(f, v, g)
        with pytest.raises(CapacityError):
            word_apply("++", f, v, g)
        with pytest.raises(CapacityError):
            field.wick_apply(f, v, g, form="recursive")

    def test_no_capacity_error_without_content_past_budget(self, rng):
        g = random_grid(4, rng)
        f = rng.standard_normal((4, 4))
        v = fock.random_vector(g, 2, rng)
        lowered = word_apply("--", f, v, g)
        expect = float(np.einsum("ab,ba,a,b->", f, v.levels[2], g.weights, g.weights))
        assert abs(float(lowered.levels[0]) - expect) < 1e-12 * max(abs(expect), 1.0)
        assert fock.top_level(lowered) == 0 and lowered.max_level == 2
        zero = np.zeros((4, 4))
        for out in (
            field.monomial_apply(zero, v, g),
            word_apply("++", zero, v, g),
            field.wick_apply(zero, v, g, form="recursive"),
        ):
            assert not any(np.any(level) for level in out.levels)


def low_levels_vector(g, n, rng):
    """Random content on levels 0-2, with room for n creations above it."""
    v = fock.random_vector(g, n + 2, rng)
    for level in v.levels[3:]:
        level[...] = 0.0
    return v


class TestWickApply:
    def test_projection_property(self, rng):
        for n in range(1, 5):
            g = random_grid(4, rng)
            f = rng.standard_normal((4,) * n)
            v = field.wick_apply(f, fock.vacuum(g, n), g)
            assert np.abs(v.levels[n] - f).max() < 1e-12
            for k in range(n):
                assert not np.any(v.levels[k])

    def test_order_one_is_field(self, rng):
        g = random_grid(5, rng)
        f = rng.standard_normal(5)
        v = fock.random_vector(g, 3, rng)
        v.levels[3][:] = 0
        assert rel(field.wick_apply(f, v, g), three_parts(f, v, g)) < 1e-14

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_forms_agree(self, n, rng):
        g = random_grid(4, rng)
        f = rng.standard_normal((4,) * n)
        v = fock.random_vector(g, n + 2, rng)
        for k in range(3, n + 3):
            v.levels[k][:] = 0
        explicit = field.wick_apply(f, v, g, form="explicit")
        recursive = field.wick_apply(f, v, g, form="recursive")
        assert rel(explicit, recursive) < 1e-12

    def test_forms_agree_order_five(self, rng):
        g = random_grid(4, rng)
        f = rng.standard_normal((4,) * 5)
        v = low_levels_vector(g, 5, rng)
        explicit = field.wick_apply(f, v, g, form="explicit")
        recursive = field.wick_apply(f, v, g, form="recursive")
        assert rel(explicit, recursive) < 1e-12

    def test_left_multiplication_recursion(self, rng):
        # applying one field factor to a Wick product splits into the longer
        # Wick product, the coefficient-merged one, and the contraction term
        g = random_grid(5, rng)
        fs = [rng.standard_normal(5) for _ in range(4)]
        v = fock.random_vector(g, 6, rng)
        for k in range(3, 7):
            v.levels[k][:] = 0
        tail = _outer(fs[1:])
        lhs = three_parts(fs[0], field.wick_apply(tail, v, g), g)
        merged = np.multiply.outer(g.lambda_values * fs[0] * fs[1], _outer(fs[2:]))
        rhs = (
            field.wick_apply(np.multiply.outer(fs[0], tail), v, g)
            + field.wick_apply(merged, v, g)
            + g.inner(fs[0], fs[1]) * field.wick_apply(_outer(fs[2:]), v, g)
        )
        assert rel(lhs, rhs) < 1e-12

    def test_two_singleton_merge_identity(self, rng):
        # one field factor times another: plain normal pair + contraction +
        # coefficient-weighted contraction keeping the boundary variable
        g = random_grid(4, rng)
        fa = rng.standard_normal(4)
        fb = rng.standard_normal(4)
        v = fock.random_vector(g, 5, rng)
        for k in range(3, 6):
            v.levels[k][:] = 0
        lhs = field.wick_apply(fa, field.wick_apply(fb, v, g), g)
        rhs = (
            field.wick_apply(np.multiply.outer(fa, fb), v, g)
            + g.inner(fa, fb) * v
            + field.wick_apply(g.lambda_values * fa * fb, v, g)
        )
        assert rel(lhs, rhs) < 1e-12

    def test_constrained_sum_operator_level(self, rng):
        # the product of two order-2 Wick products equals the constrained
        # partition sum on general vectors, not only on the vacuum
        g = random_grid(4, rng)
        fa = rng.standard_normal((4, 4))
        fb = rng.standard_normal((4, 4))
        v = fock.random_vector(g, 6, rng)
        for k in range(2, 7):
            v.levels[k][:] = 0
        lhs = field.wick_apply(fa, field.wick_apply(fb, v, g), g)
        rhs = field.wick_product_expand((2, 2), np.multiply.outer(fa, fb), g, v)
        assert rel(lhs, rhs) < 1e-12

    def test_capacity_error(self, rng):
        g = random_grid(4, rng)
        f = rng.standard_normal((4, 4))
        v = fock.random_vector(g, 2, rng)
        with pytest.raises(CapacityError):
            field.wick_apply(f, v, g)

    def test_zero_kernel_at_full_budget_is_zero(self, rng):
        # nothing nonzero is written past the budget, so no form may raise
        g = random_grid(4, rng)
        v = fock.random_vector(g, 2, rng)
        for out in (
            field.wick_apply(np.zeros((4, 4)), v, g, form="explicit"),
            field.wick_apply(np.zeros((4, 4)), v, g, form="recursive"),
            fock.create(np.zeros(4), v),
        ):
            assert out.max_level == 2
            assert not any(np.any(level) for level in out.levels)


    def test_explicit_stores_only_written_levels(self, rng):
        # content on levels 0..1 under budget 6: the order-2 product writes
        # levels up to 3, and levels 4..6 (1e6 entries at level 6) stay unstored
        g = random_grid(10, rng)
        f = rng.standard_normal((10, 10))
        v = fock.FockVector(g, fock.random_vector(g, 1, rng).levels, 6)
        tracemalloc.start()
        try:
            out = field.wick_apply(f, v, g, form="explicit")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1e6
        assert len(out.levels) == 4 and out.max_level == 6
        assert rel(out, field.wick_apply(f, v, g, form="recursive")) < 1e-10

    def test_zero_kernel_or_input_stores_level_zero_only(self, rng):
        g = random_grid(4, rng)
        f = rng.standard_normal((4, 4))
        v = fock.random_vector(g, 2, rng)
        zero_in = fock.FockVector(g, [0.0, np.zeros(4)], 5)
        for out in (field.wick_apply(np.zeros((4, 4)), v, g), field.wick_apply(f, zero_in, g)):
            assert len(out.levels) == 1 and float(out.levels[0]) == 0.0
        assert field.wick_apply(f, zero_in, g).max_level == 5


class TestReduceKernel:
    def test_pair_contraction(self, rng):
        g = grid.make_grid(6, lam=rng.standard_normal(6))
        chi = np.ones(6)
        kappa = marked([(1, 2)], [-1])
        red = reduce_kernel(kappa, np.multiply.outer(chi, chi), g)
        assert red.shape == ()
        assert abs(float(red) - 1.0) < 1e-12  # the window has unit mass

    def test_identity_reduction(self, rng):
        g = random_grid(4, rng)
        f = rng.standard_normal((4, 4, 4))
        kappa = marked([(1,), (2,), (3,)], [1, 1, 1])
        assert np.allclose(reduce_kernel(kappa, f, g), f)

    def test_eight_point_example(self, rng):
        # blocks {1,2}+, {3,4,8}+, {5,6,7}-: two surviving variables with
        # coefficient powers 1 and 2, one contracted with power 1
        g = random_grid(3, rng)
        f = rng.standard_normal((3,) * 8)
        kappa = marked([(1, 2), (3, 4, 8), (5, 6, 7)], [1, 1, -1])
        red = reduce_kernel(kappa, f, g)
        lam, w = g.lambda_values, g.weights
        expect = np.einsum(
            "aabbcccb,c->ab", f, w * lam
        ) * np.multiply.outer(lam, lam**2)
        assert np.abs(red - expect).max() < 1e-12

    def test_matches_naive_loop_reduction(self, rng):
        # a zero node (0**0 = 1) and a node at |lambda| ~ 30, where the top
        # power reaches 30**4 ~ 8e5
        g = grid.make_grid(3, lam=np.array([0.0, -29.7, 0.8]))
        for n in range(1, 6):
            f = rng.standard_normal((3,) * n)
            for kappa in ncpart.enumerate_gn(n):
                fast = np.asarray(reduce_kernel(kappa, f, g))
                slow = naive_reduce(kappa, f, g)
                assert fast.shape == slow.shape
                assert np.abs(fast - slow).max() <= 1e-12 * np.abs(slow).max(), kappa

    def test_rejects_inadmissible(self, rng):
        g = random_grid(4, rng)
        f = rng.standard_normal((4,) * 3)
        bad = marked([(1, 3), (2,)], [1, 1])  # nested +1 singleton
        with pytest.raises(ValueError):
            reduce_kernel(bad, f, g)


def naive_reduce(kappa, f, g):
    """Loop-based reduction oracle: one index per block, explicit weights."""
    blocks = kappa.partition.blocks
    marks = kappa.marks
    m = g.size
    plus = [j for j, mk in enumerate(marks) if mk == 1]
    out = np.zeros((m,) * len(plus))
    for assign in itertools.product(range(m), repeat=len(blocks)):
        idx = [0] * kappa.n
        weight = 1.0
        for j, (block, mk) in enumerate(zip(blocks, marks)):
            for p in block:
                idx[p - 1] = assign[j]
            if mk == -1:
                weight *= g.weights[assign[j]] * g.lambda_values[assign[j]] ** (len(block) - 2)
            elif len(block) >= 2:
                weight *= g.lambda_values[assign[j]] ** (len(block) - 1)
        out[tuple(assign[j] for j in plus)] += weight * f[tuple(idx)]
    return out


def _outer(kernels):
    out = np.asarray(kernels[0], dtype=float)
    for k in kernels[1:]:
        out = np.multiply.outer(out, np.asarray(k, dtype=float))
    return out


class TestWickRuleExpand:
    def test_order_one_single_term(self, rng):
        g = random_grid(5, rng)
        f = rng.standard_normal(5)
        lhs = field.wick_rule_expand(f, g)
        rhs = three_parts(f, fock.vacuum(g, 1), g)
        assert rel(lhs, rhs) < 1e-14

    def test_three_term_structure_n2(self, rng):
        g = random_grid(5, rng)
        f1, f2 = rng.standard_normal(5), rng.standard_normal(5)
        out = field.wick_rule_expand(np.multiply.outer(f1, f2), g)
        assert abs(float(out.levels[0]) - g.inner(f1, f2)) < 1e-12
        assert np.allclose(out.levels[1], g.lambda_values * f1 * f2)
        assert np.allclose(out.levels[2], np.multiply.outer(f1, f2))

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_matches_monomial(self, n, rng):
        g = random_grid(6, rng)
        f = rng.standard_normal((6,) * n)
        mono = field.monomial_apply(f, fock.vacuum(g, n), g)
        assert rel(mono, field.wick_rule_expand(f, g)) < 1e-10

    def test_matches_monomial_order_six(self, rng):
        g = random_grid(4, rng)
        f = rng.standard_normal((4,) * 6)
        mono = field.monomial_apply(f, fock.vacuum(g, 6), g)
        assert rel(mono, field.wick_rule_expand(f, g)) < 1e-10

    @given(st.integers(0, 2**32 - 1))
    def test_matches_monomial_randomized(self, seed):
        hr = np.random.default_rng(seed)
        g = grid.make_grid(3, lam=hr.standard_normal(3))
        n = int(hr.integers(1, 4))
        f = hr.standard_normal((3,) * n)
        mono = field.monomial_apply(f, fock.vacuum(g, n), g)
        assert rel(mono, field.wick_rule_expand(f, g)) < 1e-10

    def test_operator_level_against_monomial(self, rng):
        # the expansion holds as operators, not only on the vacuum
        g = random_grid(4, rng)
        f = rng.standard_normal((4, 4))
        v = fock.random_vector(g, 5, rng)
        for k in range(3, 6):
            v.levels[k][:] = 0
        lhs = field.monomial_apply(f, v, g)
        rhs = field.wick_rule_expand(f, g, v)
        assert rel(lhs, rhs) < 1e-12

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_matches_per_partition_sum(self, n, rng):
        g = random_grid(3, rng)
        f = rng.standard_normal((3,) * n)
        for v in (fock.vacuum(g, n), low_levels_vector(g, n, rng)):
            expect = per_partition_sum(ncpart.enumerate_gn(n), f, g, v)
            assert rel(field.wick_rule_expand(f, g, v), expect) < 1e-12

    @pytest.mark.parametrize("n", [3, 5])
    def test_one_wick_product_per_order(self, n, rng, monkeypatch):
        g = random_grid(3, rng)
        f = rng.standard_normal((3,) * n)
        orders = {reduce_kernel(kappa, f, g).ndim for kappa in ncpart.enumerate_gn(n)}
        called = []
        wick_apply = field.wick_apply

        def counted(kernel, *args, **kwargs):
            called.append(np.ndim(kernel))
            return wick_apply(kernel, *args, **kwargs)

        monkeypatch.setattr(field, "wick_apply", counted)
        field.wick_rule_expand(f, g, low_levels_vector(g, n, rng))
        assert sorted(called) == sorted(orders)
        called.clear()
        field.wick_product_expand((2, n - 2), f, g)
        assert len(called) == len(set(called)) <= n + 1


def per_partition_sum(partitions, f, g, v):
    """One Wick product per partition, summed in enumeration order."""
    out = fock.FockVector(v.base, [0.0], v.max_level)
    for kappa in partitions:
        out = out + field.wick_apply(reduce_kernel(kappa, f, g), v, g)
    return out


def compositions(n, max_parts):
    """Every ordered split of n into at most max_parts positive parts."""
    for parts in range(1, max_parts + 1):
        for cuts in itertools.combinations(range(1, n), parts - 1):
            bounds = (0,) + cuts + (n,)
            yield tuple(b - a for a, b in zip(bounds, bounds[1:]))


class TestWickProductExpand:
    def test_single_factor_collapses(self, rng):
        g = random_grid(4, rng)
        f = rng.standard_normal((4, 4))
        lhs = field.wick_product_expand((2,), f, g)
        rhs = field.wick_apply(f, fock.vacuum(g, 2), g)
        assert rel(lhs, rhs) < 1e-14

    def test_two_singletons(self, rng):
        g = random_grid(5, rng)
        f1, f2 = rng.standard_normal(5), rng.standard_normal(5)
        joint = np.multiply.outer(f1, f2)
        lhs = field.wick_product_expand((1, 1), joint, g)
        rhs = field.wick_product_sequential([f1, f2], g)
        assert rel(lhs, rhs) < 1e-12

    @pytest.mark.parametrize("comp", [(2, 1), (1, 2), (2, 2), (3, 1), (2, 2, 1)])
    def test_matches_sequential(self, comp, rng):
        g = random_grid(4, rng)
        kernels = [rng.standard_normal((4,) * k) for k in comp]
        joint = _outer(kernels)
        lhs = field.wick_product_expand(comp, joint, g)
        rhs = field.wick_product_sequential(kernels, g)
        assert rel(lhs, rhs) < 1e-10

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_matches_per_partition_sum(self, n, rng):
        g = random_grid(3, rng)
        f = rng.standard_normal((3,) * n)
        v = low_levels_vector(g, n, rng)
        for comp in compositions(n, 3):
            # the factor of each element: p lies in factor j when it falls
            # between the j-th and (j+1)-th cut
            ends = list(itertools.accumulate(comp))
            factor = [next(j for j, e in enumerate(ends) if p <= e) for p in range(1, n + 1)]
            kept = [
                kappa
                for kappa in ncpart.enumerate_gn(n)
                if all(
                    factor[p - 1] != factor[q - 1]
                    for block in kappa.partition.blocks
                    for p, q in itertools.combinations(block, 2)
                )
            ]
            expect = per_partition_sum(kept, f, g, v)
            assert rel(field.wick_product_expand(comp, f, g, v), expect) < 1e-12, comp
