"""Dörfler marking of the benchmark's level loop on hand-computed cases."""
import numpy as np
import pytest

from study import doerfler_mark


@pytest.mark.parametrize("indicators, theta, expected", [
    # total 10, theta^2 = 0.25 -> the largest single value 4 covers 2.5
    ([1.0, 4.0, 2.0, 3.0], 0.5, [1]),
    # theta^2 = 0.64 -> 6.4: 4 + 3 = 7 is the first prefix reaching it
    ([1.0, 4.0, 2.0, 3.0], 0.8, [1, 3]),
    # ties go to the smaller id first: 2 of total 8 reaches 2.0 exactly
    ([2.0, 2.0, 2.0, 2.0], 0.5, [0]),
    # theta^2 = 0.81 -> 6.48 of 8: four equal values are needed
    ([2.0, 2.0, 2.0, 2.0], 0.9, [0, 1, 2, 3]),
    # zeros never help: 0.25 * 5 = 1.25 needs the 5 alone
    ([0.0, 5.0, 0.0], 0.5, [1]),
    # an all-zero input marks nothing
    ([0.0, 0.0], 0.5, []),
])
def test_hand_computed(indicators, theta, expected):
    marked = doerfler_mark(np.array(indicators), theta)
    assert marked.dtype == np.int64
    assert marked.tolist() == expected


def test_result_is_sorted_and_minimal():
    ind = np.array([0.5, 3.0, 0.1, 2.0, 1.0, 2.0])   # total 8.6, 0.25 * 8.6 = 2.15
    marked = doerfler_mark(ind, 0.5)
    assert marked.tolist() == [1]
    marked = doerfler_mark(ind, 0.7)                  # 0.49 * 8.6 = 4.214 -> 3 + 2
    assert marked.tolist() == [1, 3]


@pytest.mark.parametrize("theta", [0.0, 1.0, -0.5])
def test_rejects_theta_outside_unit_interval(theta):
    with pytest.raises(ValueError):
        doerfler_mark(np.ones(3), theta)


def test_rejects_negative_indicators():
    with pytest.raises(ValueError):
        doerfler_mark(np.array([1.0, -1.0]), 0.5)
