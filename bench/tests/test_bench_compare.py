"""The verdict rule of compare.py."""

import compare
import measures


def _side(values):
    return {**measures.summarise(values), "values": values}


def test_within_the_bound_is_ok():
    a, b = _side([10.0, 10.1, 10.2]), _side([10.4, 10.5, 10.6])
    assert compare.verdict(a, b, "lower", 0.10) == "ok"


def test_past_the_bound_with_a_tight_spread_is_a_regression():
    a, b = _side([10.0, 10.1, 10.2]), _side([11.4, 11.5, 11.6])
    assert compare.verdict(a, b, "lower", 0.10) == "REGRESSION"
    assert compare.verdict(b, a, "higher", 0.10) == "REGRESSION"
    assert compare.verdict(a, b, "higher", 0.10) == "ok"


def test_a_spread_wider_than_the_bound_is_unresolved():
    a, b = _side([8.0, 10.0, 12.0]), _side([9.0, 10.5, 13.0])
    assert compare.verdict(a, b, "lower", 0.10) == "unresolved"


def test_wide_spread_but_every_sample_better_is_ok():
    a, b = _side([8.0, 10.0, 12.0]), _side([4.0, 5.0, 6.0])
    assert compare.verdict(a, b, "lower", 0.10) == "ok"


def test_wide_spread_but_every_sample_worse_is_a_regression():
    a, b = _side([8.0, 10.0, 12.0]), _side([14.0, 16.0, 18.0])
    assert compare.verdict(a, b, "lower", 0.10) == "REGRESSION"
