import numpy as np
import pytest

from fracarray import (
    SensorArray,
    cantor,
    difference_coarray,
    expand,
    is_symmetric,
)
from conftest import oracle_expand, oracle_hole_free, random_elements


def test_cantor_small_orders():
    assert cantor(0).elements == (0,)
    assert cantor(1).elements == (0, 1)
    assert cantor(2).elements == (0, 1, 3, 4)
    assert cantor(3).elements == (0, 1, 3, 4, 9, 10, 12, 13)


@pytest.mark.parametrize("r", range(9))
def test_cantor_counts_and_coarray(r):
    arr = cantor(r)
    assert len(arr) == 2 ** r
    assert arr.aperture == (3 ** r - 1) // 2
    prof = difference_coarray(arr)
    assert prof.hole_free
    assert prof.dof == 3 ** r


def test_cantor_rejects_bad_order():
    with pytest.raises(ValueError):
        cantor(-1)
    with pytest.raises(ValueError):
        cantor(9)


def test_expand_unit_generator_gives_cantor():
    gen = SensorArray((0, 1))
    for r in range(4):
        assert expand(gen, r).elements == cantor(r).elements


def test_expand_order_zero_and_one():
    gen = SensorArray((0, 1, 4, 6))
    assert expand(gen, 0).elements == (0,)
    assert expand(gen, 1).elements == gen.elements


def test_expand_hole_expander_order_two():
    arr = expand(SensorArray((0, 1, 4, 6)), 2)
    assert arr.elements == (0, 1, 4, 6, 13, 14, 17, 19, 52, 53, 56, 58, 78, 79, 82, 84)
    prof = difference_coarray(arr)
    assert prof.hole_free
    assert prof.dof == 169  # 13 ** 2


@pytest.mark.parametrize("seed", range(12))
def test_expand_matches_digit_sum_oracle(seed):
    rng = np.random.default_rng(seed)
    elems = random_elements(rng, 7)
    gen = SensorArray(elems)
    m = difference_coarray(gen).central_ula_halfwidth
    for r in (1, 2, 3):
        assert expand(gen, r).elements == oracle_expand(elems, m, r)


def test_expand_base_uses_central_ula_not_aperture():
    # generator with holes: base comes from the contiguous segment
    gen = SensorArray((0, 1, 5))  # halfwidth 1 -> base 3
    assert expand(gen, 2).elements == oracle_expand((0, 1, 5), 1, 2)


def test_hole_free_generators_multiply_dof(hole_free_pool):
    for elems in hole_free_pool:
        gen = SensorArray(elems)
        d = difference_coarray(gen).dof
        for r in (1, 2, 3):
            prof = difference_coarray(expand(gen, r))
            assert prof.hole_free
            assert prof.dof == d ** r


def test_holey_generator_keeps_large_central_ula():
    # even with coarray holes the expanded central segment grows geometrically
    for elems in ((0, 1, 5), (0, 2, 3, 4, 9), (0, 3, 4, 6, 8, 9, 12, 16, 20)):
        gen = SensorArray(elems)
        u = 2 * difference_coarray(gen).central_ula_halfwidth + 1
        for r in (2, 3):
            halfwidth = difference_coarray(expand(gen, r)).central_ula_halfwidth
            assert 2 * halfwidth + 1 >= u ** r


def test_expansion_preserves_symmetry(small_pool):
    for elems in small_pool:
        if not is_symmetric(SensorArray(elems)):
            continue
        gen = SensorArray(elems)
        for r in (2, 3):
            assert is_symmetric(expand(gen, r))


def test_self_similarity():
    gen = SensorArray((0, 1, 4, 6))
    m = difference_coarray(gen).central_ula_halfwidth
    base = 2 * m + 1
    for r in (1, 2):
        lower = expand(gen, r)
        upper = expand(gen, r + 1)
        shifted = set()
        for n in gen.elements:
            shifted.update(e + n * base ** r for e in lower.elements)
        assert set(upper.elements) == shifted
        # smaller order embeds as the leading block
        assert upper.elements[: len(lower)] == lower.elements


def test_expand_order_cap():
    gen = SensorArray((0, 1))
    with pytest.raises(ValueError):
        expand(gen, 9)
    with pytest.raises(ValueError):
        expand(gen, -1)
    assert len(expand(gen, 9, max_order=9)) == 2 ** 9


def test_expand_names():
    named = expand(SensorArray((0, 1, 4, 6), name="H4"), 2)
    assert "H4" in named.name and "2" in named.name


def test_multi_generator_example():
    arrs = [SensorArray((0, 1)), SensorArray((0, 1, 2))]
    out = expand(arrs, 2)
    assert out.elements == (0, 1, 3, 4, 6, 7)
    assert difference_coarray(out).dof == 15


def test_multi_generator_order_matters_but_dof_does_not():
    a = expand([SensorArray((0, 1)), SensorArray((0, 1, 2))], 2)
    b = expand([SensorArray((0, 1, 2)), SensorArray((0, 1))], 2)
    assert a.elements != b.elements
    assert difference_coarray(a).dof == difference_coarray(b).dof == 15


def test_multi_generator_with_equal_parts_matches_expand():
    gen = SensorArray((0, 1, 3))
    for r in (1, 2, 3):
        same = expand([gen] * 3, r)
        assert same.elements == expand(gen, r).elements


def test_multi_generator_order_bounds():
    gens = [SensorArray((0, 1)), SensorArray((0, 1))]
    with pytest.raises(ValueError):
        expand(gens, 0)
    with pytest.raises(ValueError):
        expand(gens, 3)
    with pytest.raises(ValueError):
        expand([], 1)


def test_expand_repeated_sequence_matches_reuse():
    built = expand([SensorArray((0, 1, 2))] * 2, 2)
    assert built.elements == expand(SensorArray((0, 1, 2)), 2).elements


def test_expand_tuple_of_generators():
    built = expand((SensorArray((0, 1)), SensorArray((0, 1, 2))), 2)
    assert built.elements == (0, 1, 3, 4, 6, 7)


def test_expand_generator_validation():
    with pytest.raises(ValueError):
        expand((), 1)
    with pytest.raises(ValueError):
        expand(SensorArray((0, 1)), -1)


@pytest.mark.parametrize("seed", range(6))
def test_expanded_size_bounded_by_power(seed):
    rng = np.random.default_rng(400 + seed)
    gen = SensorArray(random_elements(rng, 6))
    for r in (2, 3):
        out = expand(gen, r)
        assert len(out) <= len(gen) ** r
        if oracle_hole_free(gen.elements):
            assert len(out) == len(gen) ** r


def test_expand_builds_each_generator_coarray_once(coarray_builds):
    gen = SensorArray((0, 1, 4, 6))
    expand(gen, 5)
    assert [id(a) for a in coarray_builds] == [id(gen)]
    coarray_builds.clear()
    a, b = SensorArray((0, 1)), SensorArray((0, 1, 2))
    expand([a, b, a], 3)
    assert [id(g) for g in coarray_builds] == [id(a), id(b)]
    # no stride reads the outermost generator's M
    expand([a, SensorArray((0, 1, 3))], 2)
    assert len(coarray_builds) == 2
