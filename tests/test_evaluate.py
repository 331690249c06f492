"""The array evaluators run their kernel once per distinct lattice point of the input
(`dge._evaluate`); every value must equal the evaluator's value at that element alone."""

import warnings

import numpy as np
import pytest

from gdge import (
    BgdgeParams,
    DgeParams,
    UgdgeParams,
    bgdge_cdf,
    bgdge_pmf,
    cond_cdf_given_eq,
    dge_cdf,
    dge_hazard,
    dge_pmf,
    hazard_weight,
    pmf_weight,
    prob_eq_le,
    ugdge_cdf,
    ugdge_hazard,
    ugdge_pmf,
)
from gdge.dge import _evaluate, _lattice_box

BASE = DgeParams(2.0, 0.25)
UNI = UgdgeParams(BASE, 0.25)
BIV = BgdgeParams.from_values(2.0, 0.25, 1.5, 0.4, 0.25)

# one argument: (evaluator, accepts real and non-finite x)
ONE = [
    (lambda x: dge_pmf(BASE, x), False),
    (lambda x: dge_hazard(BASE, x), False),
    (lambda x: ugdge_pmf(UNI, x), False),
    (lambda x: ugdge_hazard(UNI, x), False),
    (lambda x: pmf_weight(UNI, x), False),
    (lambda x: dge_cdf(BASE, x), True),
    (lambda x: ugdge_cdf(UNI, x), True),
    (lambda x: hazard_weight(UNI, x), True),
    (lambda x: cond_cdf_given_eq(BIV, x, 3), True),
]
ONE_IDS = ["dge_pmf", "dge_hazard", "ugdge_pmf", "ugdge_hazard", "pmf_weight", "dge_cdf", "ugdge_cdf",
           "hazard_weight", "cond_cdf_given_eq"]

# two arguments: (evaluator, smallest y, accepts real and non-finite arguments)
TWO = [
    (lambda x, y: bgdge_pmf(BIV, x, y), 0, False),
    (lambda x, y: prob_eq_le(BIV, x, y), -1, False),
    (lambda x, y: bgdge_cdf(BIV, x, y), -1, True),
]
TWO_IDS = ["bgdge_pmf", "prob_eq_le", "bgdge_cdf"]


def per_element(f, *args):
    """``f`` at each element of the broadcast of ``args`` alone, one call per distinct element."""
    arrays = np.broadcast_arrays(*(np.asarray(a) for a in args))
    if arrays[0].size == 0:
        return np.empty(arrays[0].shape)
    flat = [a.ravel() for a in arrays]
    keys, inverse = np.unique(np.column_stack(flat), axis=0, return_inverse=True)
    values = np.array([f(*row) for row in keys])
    return values[inverse.ravel()].reshape(arrays[0].shape)


def assert_per_element(f, *args):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = f(*args)
        want = per_element(f, *args)
    assert np.shape(got) == np.shape(want)
    assert np.array_equal(got, want, equal_nan=True)
    if np.ndim(got) == 0:
        assert isinstance(got, float)


RNG = np.random.default_rng(20260822)
POINTS = RNG.integers(0, 400, size=100_000)  # 400 distinct values, each repeated
CELLS = RNG.integers(0, 40, size=(2, 100_000))


def test_lattice_box_takes_only_finite_integer_boxes_no_larger_than_the_input():
    lows, spans, index = _lattice_box([np.array([3.0, 5.0, 3.0]), np.array([[-1], [0]])], 6)
    assert lows == [3.0, -1.0] and spans == [3, 2]
    assert [k.tolist() for k in index] == [[0, 2, 0], [[0], [1]]]
    for args, size in (([np.array([0.5, 1.5])], 2), ([np.array([0.0, 1.5])], 3), ([np.array([0.0, np.inf])], 2),
                       ([np.array([np.nan, 0.0])], 2), ([np.arange(4), np.arange(3)], 11),
                       ([np.array([], dtype=np.int64)], 0)):
        assert _lattice_box(args, size) is None


@pytest.mark.parametrize("f,real", ONE, ids=ONE_IDS)
def test_one_argument_evaluators_equal_per_element_values(f, real):
    assert _lattice_box([POINTS], POINTS.size) is not None
    assert_per_element(f, POINTS)
    assert_per_element(f, 7)
    assert_per_element(f, np.array(7))
    assert_per_element(f, np.array([], dtype=np.int64))
    assert_per_element(f, np.array([0, 399]))  # spans more points than it holds
    assert _lattice_box([np.array([0, 399])], 2) is None
    assert_per_element(f, POINTS[:500].reshape(20, 25))
    for dtype in (np.int64, np.int32, np.uint16, bool, np.float32, float):
        assert_per_element(f, POINTS[:300].astype(dtype))
    if real:
        x = np.concatenate([RNG.uniform(-3.0, 30.0, size=2000), [-np.inf, np.inf, np.nan, -0.0, -1.0]])
        assert_per_element(f, x)
        assert_per_element(f, np.floor(x[:2000]))
        assert_per_element(f, x.astype(np.float32))
        assert_per_element(f, 2.5)
        assert_per_element(f, -np.inf)


@pytest.mark.parametrize("f,low,real", TWO, ids=TWO_IDS)
def test_two_argument_evaluators_equal_per_element_values(f, low, real):
    x, y = CELLS[0], CELLS[1] + low
    assert _lattice_box([x, y], x.size) is not None
    assert_per_element(f, x, y)
    assert_per_element(f, np.arange(12)[:, None], np.arange(low, 9)[None, :])  # a GOF-style grid
    assert_per_element(f, 3, 4)
    assert_per_element(f, np.array([], dtype=np.int64), 2)
    assert_per_element(f, np.array([0, 399]), np.array([low, 399]))  # spans more cells than it holds
    assert_per_element(f, x[:200], 5)
    for dtype in (np.int64, bool, np.float32):
        assert_per_element(f, x[:300].astype(dtype), (y[:300] - low).astype(dtype))
    if real:
        gx = np.concatenate([RNG.uniform(-3.0, 30.0, size=300), [-np.inf, np.inf, np.nan]])
        gy = np.concatenate([RNG.uniform(-3.0, 30.0, size=300), [np.inf, np.nan, 2.0]])
        assert_per_element(f, gx, gy)
        assert_per_element(f, gx[:, None], gy[None, :40])
        assert_per_element(f, np.floor(gx[:300]), np.floor(gy[:300]))


INT8 = np.arange(-128, 128).astype(np.int8)  # the whole int8 range
HIGH = np.arange(300, dtype=np.uint64) + np.uint64(2**63)  # past the int64 range


def test_lattice_box_offsets_are_intp_from_the_argument_minimum():
    lows, spans, index = _lattice_box([INT8[::-1], np.arange(2, dtype=np.uint8)[:, None]], 512)
    assert lows == [-128, 0] and spans == [256, 2]
    assert all(isinstance(v, int) for v in lows + spans)
    assert index[0].dtype == np.intp and index[0].tolist() == list(range(255, -1, -1))
    lows, spans, index = _lattice_box([HIGH], HIGH.size)
    assert lows == [2**63] and spans == [300] and index[0].dtype == np.intp
    assert index[0].tolist() == list(range(300))


@pytest.mark.parametrize("f,real", ONE, ids=ONE_IDS)
def test_one_argument_evaluators_at_integer_dtype_limits(f, real):
    for x in (np.arange(256).astype(np.uint8), np.arange(256).astype(np.uint8)[::-1].repeat(2),
              POINTS[:1000].astype(np.uint64), (POINTS[:1000] + 5).astype(np.uint64)):
        assert _lattice_box([x], x.size) is not None
        assert_per_element(f, x)
    if real:  # the cdf-type evaluators take negative integers, and are defined far out in the tail
        for x in (INT8, np.tile(INT8, 3).reshape(3, 256), HIGH):
            assert _lattice_box([x], x.size) is not None
            assert_per_element(f, x)


@pytest.mark.parametrize("f,low,real", TWO, ids=TWO_IDS)
def test_two_argument_evaluators_at_integer_dtype_limits(f, low, real):
    grids = [(np.array([[0], [1]], dtype=np.int8), np.arange(low, 128).astype(np.int8)),
             (np.array([[0], [1]], dtype=np.uint8), np.arange(256).astype(np.uint8)),
             (np.arange(256).astype(np.uint8), np.array([[0], [1]], dtype=np.uint8)),
             (np.array([[0], [1]], dtype=np.uint64), np.arange(200).astype(np.uint64) + 7)]
    if real:
        grids += [(np.repeat(np.array([-128, 127], dtype=np.int8), 128)[:, None], INT8),  # a 256 x 256 box
                  (np.array([[-128], [-127]], dtype=np.int8), INT8)]
    for x, y in grids:
        size = np.broadcast(x, y).size
        assert _lattice_box([x, y], size) is not None
        assert_per_element(f, x, y)


def record_dtypes(seen):
    def fn(*points):
        seen.extend(a.dtype for a in points)
        return sum(points)

    return fn


@pytest.mark.parametrize("dtype", [np.int8, np.int64, np.uint8, np.uint64, bool, np.float32, float])
def test_evaluate_hands_fn_float_arrays_on_every_path(dtype):
    x = np.array([1, 0, 1, 1]).astype(dtype)
    wide = np.array([0, 100, 0, 100])
    lattice = [(x,), (x[:, None], x), (x, x[::-1])]
    fallback = [(x, wide), (wide[:, None], x)]
    if dtype is not bool:
        fallback.append((wide.astype(dtype),))
    for args, path in [*((a, True) for a in lattice), *((a, False) for a in fallback)]:
        assert (_lattice_box(list(args), np.broadcast(*args).size) is not None) is path
        seen = []
        out = _evaluate(record_dtypes(seen), *args)
        assert seen and all(d == np.float64 for d in seen)
        assert np.array_equal(out, sum(a.astype(float) for a in np.broadcast_arrays(*args)))


@pytest.mark.parametrize("f", [f for f, real in ONE if not real], ids=[i for i, (_, r) in zip(ONE_IDS, ONE) if not r])
def test_integer_evaluators_reject_what_is_not_a_nonnegative_integer(f):
    for bad, fault in ((2.5, "2.5 is not an integer"), (np.nan, "nan is not finite"), (np.inf, "inf is not finite"),
                       (-1, "-1 is below 0"), ([1.0, -2.0], "-2.0 is below 0")):
        with pytest.raises(ValueError, match=fault):
            f(bad)


def test_two_argument_evaluators_reject_what_is_off_their_lattice():
    with pytest.raises(ValueError, match="1.5 is not an integer"):
        prob_eq_le(BIV, 2, 1.5)
    with pytest.raises(ValueError, match="-2 is below -1"):
        prob_eq_le(BIV, 2, -2)
    with pytest.raises(ValueError, match="inf is not finite"):
        bgdge_pmf(BIV, np.inf, 1)
    with pytest.raises(ValueError, match="-1 is below 0"):
        bgdge_pmf(BIV, 1, -1)
    with pytest.raises(ValueError, match="0.5 is not an integer"):
        cond_cdf_given_eq(BIV, 1, 0.5)
