from fractions import Fraction

import pytest

from fracarray import (
    BaselineSpec,
    SensorArray,
    build_baseline,
    coprime,
    difference_coarray,
    economy,
    mha,
    mra,
    nested,
    ula,
)
from conftest import oracle_differences, oracle_hole_free


def test_ula():
    arr = ula(5)
    assert arr.elements == (0, 1, 2, 3, 4)
    assert arr.name == "ULA(5)"
    with pytest.raises(ValueError):
        ula(0)


def test_nested_example():
    arr = nested(4, 4)
    assert arr.elements == (0, 1, 2, 3, 4, 9, 14, 19)
    assert arr.name == "NA(4,4)"


@pytest.mark.parametrize("n1", range(1, 7))
@pytest.mark.parametrize("n2", range(1, 7))
def test_nested_coarray_size_formula(n1, n2):
    prof = difference_coarray(nested(n1, n2))
    assert prof.hole_free
    assert prof.dof == 2 * n2 * (n1 + 1) - 1


def test_nested_rejects_empty_level():
    with pytest.raises(ValueError):
        nested(0, 3)
    with pytest.raises(ValueError):
        nested(3, 0)


def test_coprime_example():
    arr = coprime(3, 4)
    assert arr.elements == (0, 3, 4, 6, 8, 9, 12, 16, 20)
    assert arr.name == "CP(3,4)"
    assert not difference_coarray(arr).hole_free


@pytest.mark.parametrize("m,n", [(2, 3), (3, 4), (2, 5), (3, 5), (4, 5), (5, 6)])
def test_coprime_sensor_count(m, n):
    # the two subarrays overlap only at the origin
    assert len(coprime(m, n)) == 2 * m + n - 1


def test_coprime_validation():
    with pytest.raises(ValueError):
        coprime(2, 4)  # not coprime
    with pytest.raises(ValueError):
        coprime(4, 3)  # wrong order
    with pytest.raises(ValueError):
        coprime(0, 3)


def test_mra_table_is_hole_free_and_minimal_for_small_n():
    known_apertures = {1: 0, 2: 1, 3: 3, 4: 6, 5: 9, 6: 13, 7: 17, 8: 23, 9: 29, 10: 36}
    for n, span in known_apertures.items():
        arr = mra(n)
        assert len(arr) == n
        assert arr.aperture == span
        assert oracle_hole_free(arr.elements)


def test_mra_negative_example():
    with pytest.raises(ValueError):
        mra(11)


def test_mha_table_has_all_distinct_differences():
    known_apertures = {1: 0, 2: 1, 3: 3, 4: 6, 5: 11, 6: 17, 7: 25, 8: 34, 9: 44, 10: 55}
    for n, span in known_apertures.items():
        arr = mha(n)
        assert len(arr) == n
        assert arr.aperture == span
        # Golomb: every positive lag occurs at most once
        prof = difference_coarray(arr)
        assert prof.counts[1:].max(initial=0) <= 1
        assert len(oracle_differences(arr.elements)) == n * (n - 1) + 1


def test_mha_out_of_table():
    with pytest.raises(ValueError):
        mha(11)


def test_mha4_equals_mra4():
    assert mha(4).elements == mra(4).elements == (0, 1, 4, 6)


def test_large_reference_rows():
    na = nested(8, 92)
    assert len(na) == 100
    assert economy(na).fragility == 1
    cp = coprime(5, 92)
    assert len(cp) == 101
    assert economy(cp).fragility == Fraction(96, 101)


def test_nested_table_row_fragility():
    assert economy(nested(4, 4)).fragility == 1
    assert economy(coprime(3, 4)).fragility == Fraction(2, 3)


def test_baseline_spec_roundtrip():
    spec = BaselineSpec("nested", (4, 4))
    assert build_baseline(spec).elements == nested(4, 4).elements
    assert build_baseline(BaselineSpec("ula", (6,))).elements == ula(6).elements
    coerced = BaselineSpec("mha", ("4",))
    assert coerced.params == (4,)
    assert build_baseline(coerced).elements == mha(4).elements


def test_baseline_spec_validation():
    with pytest.raises(ValueError):
        BaselineSpec("spiral", (3,))
    with pytest.raises(ValueError):
        BaselineSpec("nested", (3,))  # wrong arity
    with pytest.raises(ValueError):
        BaselineSpec("ula", (1, 2))


def test_baselines_are_sensor_arrays():
    for arr in (ula(4), nested(2, 3), coprime(2, 3), mra(5), mha(5)):
        assert isinstance(arr, SensorArray)
        assert arr.elements[0] == 0
