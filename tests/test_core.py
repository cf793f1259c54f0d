import enum
import json

import numpy as np
import pytest

from fracarray import (
    ArrayFormatError,
    SensorArray,
    difference_coarray,
    dump_array,
    is_symmetric,
    load_array,
    parse_array,
)
from conftest import (
    S_ELEMS,
    coarray_lags,
    oracle_central_halfwidth,
    oracle_differences,
    oracle_hole_free,
    oracle_normalize,
    oracle_reflect,
    oracle_weight_map,
    random_elements,
)


def test_two_element_array():
    prof = difference_coarray(SensorArray((0, 1)))
    assert coarray_lags(prof) == (-1, 0, 1)
    assert prof.dof == 3
    assert prof.hole_free
    assert prof.central_ula_halfwidth == 1


def test_minimum_hole_expander_coarray():
    # 4 sensors covering every lag up to the aperture exactly once
    prof = difference_coarray(SensorArray((0, 1, 4, 6)))
    assert prof.dof == 13
    assert prof.hole_free
    assert prof.counts.tolist() == [4, 1, 1, 1, 1, 1, 1]


def test_holey_coarray():
    prof = difference_coarray(SensorArray((0, 1, 5)))
    assert coarray_lags(prof) == (-5, -4, -1, 0, 1, 4, 5)
    assert not prof.hole_free
    assert prof.central_ula_halfwidth == 1


@pytest.mark.parametrize("seed", range(20))
def test_weights_match_bruteforce(seed):
    rng = np.random.default_rng(seed)
    elems = random_elements(rng, 12)
    prof = difference_coarray(SensorArray(elems))
    want = oracle_weight_map(elems)
    assert coarray_lags(prof) == tuple(sorted(want))
    assert prof.counts.tolist() == [want.get(m, 0) for m in range(prof.aperture + 1)]


@pytest.mark.parametrize("seed", range(15))
def test_profile_invariants(seed):
    rng = np.random.default_rng(100 + seed)
    elems = random_elements(rng, 40)
    arr = SensorArray(elems)
    prof = difference_coarray(arr)
    diffs = set(coarray_lags(prof))
    n = len(arr)
    assert 0 in diffs
    assert diffs == {-d for d in diffs}
    assert prof.counts[0] == n
    assert sum(prof.counts) * 2 - n == n * n  # half map double-counts only m != 0
    assert prof.dof == len(diffs)
    assert prof.hole_free == (prof.dof == 2 * prof.aperture + 1)
    m = prof.central_ula_halfwidth
    assert set(range(-m, m + 1)) <= diffs
    assert m == prof.aperture or (m + 1) not in diffs
    assert m == oracle_central_halfwidth(elems)
    assert prof.hole_free == oracle_hole_free(elems)


def test_central_ula_halfwidth():
    assert difference_coarray(SensorArray((0, 1, 4, 6))).central_ula_halfwidth == 6
    assert difference_coarray(SensorArray((0, 1, 5))).central_ula_halfwidth == 1


def test_single_sensor_profile():
    prof = difference_coarray(SensorArray((0,)))
    assert coarray_lags(prof) == (0,)
    assert prof.hole_free
    assert prof.central_ula_halfwidth == 0
    assert prof.aperture == 0


def test_counts_are_readonly():
    prof = difference_coarray(SensorArray((0, 1, 3)))
    with pytest.raises(ValueError):
        prof.counts[0] = 99


def test_reversal():
    arr = SensorArray((0, 1, 3), name="probe")
    rev = oracle_reflect(arr)
    assert rev.elements == (0, 2, 3)
    assert oracle_reflect(rev).elements == arr.elements
    # reflection never changes the coarray
    assert coarray_lags(difference_coarray(rev)) == coarray_lags(difference_coarray(arr))
    assert oracle_reflect(SensorArray((0, 1, 4, 6))).elements == (0, 2, 5, 6)


@pytest.mark.parametrize("seed", range(10))
def test_reversal_preserves_coarray(seed):
    rng = np.random.default_rng(200 + seed)
    arr = SensorArray(random_elements(rng, 30))
    rev = oracle_reflect(arr)
    assert coarray_lags(difference_coarray(rev)) == coarray_lags(difference_coarray(arr))
    # is_symmetric against the reflection, on the array, one a sensor longer
    # (the other aperture parity) and both closed under their mirror
    for a in (arr, SensorArray(arr.elements + (arr.aperture + 1,))):
        closed = SensorArray(a.elements + oracle_reflect(a).elements)
        assert is_symmetric(closed)
        for b in (a, closed):
            assert is_symmetric(b) == (oracle_reflect(b) == b)


def test_symmetry_predicate():
    assert is_symmetric(SensorArray(S_ELEMS))
    assert is_symmetric(SensorArray((0,)))
    assert is_symmetric(SensorArray((0, 3)))
    assert not is_symmetric(SensorArray((0, 1, 3)))


def test_normalization():
    arr = SensorArray([7, 3, 3, 10])
    assert arr.elements == (0, 4, 7)
    assert arr.aperture == 7
    assert len(arr) == 3
    assert list(arr) == [0, 4, 7]
    assert np.array_equal(arr.as_array(), [0, 4, 7])


def test_negative_positions_shift_to_zero():
    assert SensorArray((-3, -1, 2)).elements == (0, 2, 5)


def test_name_does_not_affect_equality():
    assert SensorArray((0, 1), name="a") == SensorArray((1, 0), name="b")


def test_rejects_bad_elements():
    with pytest.raises(ArrayFormatError):
        SensorArray(())
    with pytest.raises(ArrayFormatError):
        SensorArray((0, 1.5))
    with pytest.raises(ArrayFormatError):
        SensorArray((0, "x"))
    for elements in ((0, float("inf")), (float("-inf"), 0), (True, 3), (0, False)):
        with pytest.raises(ArrayFormatError, match="bad element"):
            SensorArray(elements)


def test_rejects_apertures_beyond_int64():
    assert SensorArray((0, 2 ** 63 - 1)).as_array()[-1] == 2 ** 63 - 1
    assert SensorArray((-(2 ** 62), 2 ** 62 - 1)).aperture == 2 ** 63 - 1
    with pytest.raises(ArrayFormatError, match="64-bit"):
        SensorArray((0, 2 ** 63))
    with pytest.raises(ArrayFormatError, match="64-bit"):
        SensorArray((-1, 2 ** 63 - 1))


class _Position(enum.IntEnum):
    FIVE = 5


# every kind of input the constructor meets, each against the element-by-
# element oracle: the same normalized tuple or the same error text
@pytest.mark.parametrize("elements", [
    (0, True, 5), (np.bool_(1), 2), (0, 1.5), (0, "3"), (None, 1), (0, _Position.FIVE),
    (np.int64(4), 1, np.int64(9)), (np.int64(2 ** 63 - 1), -1), (7, 3, 10), [4, 4, 1, 4],
    (-3, -1, 2), (5, 6, 8), (0, 2.0, 1), (0, float("nan")), (float("inf"),), (), (0,),
    (0, 2 ** 63), (-1, 2 ** 63 - 1), (0, 2 ** 63 - 1), (-(2 ** 62), 2 ** 62 - 1),
], ids=["bool", "np_bool", "float", "str", "none", "int_enum", "np_int64_mix",
        "np_int64_overflow", "unsorted", "duplicated", "negative", "shifted", "integral_float",
        "nan", "inf", "empty", "single", "aperture_2_63", "shifted_aperture_2_63",
        "aperture_2_63_minus_1", "negative_aperture_2_63_minus_1"])
def test_normalization_matches_the_element_by_element_oracle(elements):
    try:
        want = oracle_normalize(elements)
    except ArrayFormatError as exc:
        with pytest.raises(ArrayFormatError) as got:
            SensorArray(elements)
        assert str(got.value) == str(exc)
    else:
        got = SensorArray(elements).elements
        assert got == want
        assert all(type(e) is int for e in got)


def test_accepts_any_iterable_of_positions():
    assert SensorArray(e for e in (6, 2, 4)).elements == (0, 2, 4)
    assert SensorArray(np.array([3, 1])).elements == (0, 2)


def test_accepts_integral_floats_and_numpy_ints():
    arr = SensorArray((0.0, np.int64(2), 1))
    assert arr.elements == (0, 1, 2)
    assert all(type(e) is int for e in arr.elements)


def test_json_roundtrip(tmp_path):
    path = tmp_path / "arr.json"
    dump_array(SensorArray((0, 2, 5), name="demo"), path)
    back = load_array(path)
    assert back.elements == (0, 2, 5)
    assert back.name == "demo"


def test_parse_bare_list():
    arr = parse_array([3, 1, 0])
    assert arr.elements == (0, 1, 3)
    assert arr.name == ""


def test_parse_object_without_name():
    assert parse_array({"elements": [0, 5]}).name == ""


@pytest.mark.parametrize(
    "doc",
    [
        {"elements": "nope"},
        {"elements": [0, "a"]},
        {"elements": []},
        {"wrong": [0, 1]},
        "just a string",
        {"elements": [0, 1.25]},
    ],
)
def test_parse_rejects_malformed(doc):
    with pytest.raises(ArrayFormatError):
        parse_array(doc)


def test_load_reports_path(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(ArrayFormatError) as err:
        load_array(path)
    assert "bad.json" in str(err.value)


def test_load_rejects_wrong_payload(tmp_path):
    path = tmp_path / "num.json"
    path.write_text(json.dumps({"elements": 5}))
    with pytest.raises(ArrayFormatError):
        load_array(path)


def test_dump_is_loadable_json(tmp_path):
    path = tmp_path / "s.json"
    dump_array(SensorArray(S_ELEMS, name="S"), path)
    doc = json.loads(path.read_text())
    assert doc["name"] == "S"
    assert doc["elements"] == list(S_ELEMS)


@pytest.mark.parametrize("seed", range(8))
def test_large_random_coarray_against_sets(seed):
    rng = np.random.default_rng(300 + seed)
    elems = tuple(sorted(set(map(int, rng.integers(0, 200, size=25)))))
    prof = difference_coarray(SensorArray(elems))
    assert set(coarray_lags(prof)) == oracle_differences(prof.array.elements)
