"""Acceptance gate: one test per cross-verification criterion.

Each test runs one library self-check from selftest.ALL_CHECKS and prints
its one-line verdict, so `pytest tests/test_acceptance.py -v -s` reads as a
pass/fail table. The tests are generated from that list, named after each
check, so a new check is covered without an edit here. The same table is
available from the command line as `quantinfo selftest`.

Each row with a seed index also gets a `hypothesis` property, test_property
with the row's name as its id: drawn seed indices (and dimensions from the
row's cycle) go through the row's own deviation function and are judged by
its own bounds.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from quantinfo import probability, selftest


def _key(check):
    return check.name.replace("-", "_").replace(" ", "_")


def _acceptance_test(check):
    def test():
        result = selftest.run(check)
        print(selftest.format_line(result))
        assert result.passed, result.detail
    return test


for _check in selftest.ALL_CHECKS:
    globals()["test_" + _key(_check)] = _acceptance_test(_check)


def test_a_failing_bound_names_itself_and_its_case(monkeypatch):
    # the failure count fills no template field, so the claim it prints must be followed by the miss
    monkeypatch.setattr(probability, "majorizes", lambda p, q: False)
    row = next(check for check in selftest.ALL_CHECKS if check.name == "measurement majorization")
    result = selftest.run(row)
    assert not result.passed
    assert result.worst[2] == {"bound": "< 1", "value": 1, "case": (0,)}
    assert result.detail.endswith("spectrum majorization everywhere; fails < 1: 1.000e+00 at case (0,)")


SEEDED = [check for check in selftest.ALL_CHECKS if check.count]


@pytest.mark.parametrize("check", SEEDED, ids=_key)
@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_property(check, data):
    index = st.integers(0, 2**20)
    case = data.draw(st.tuples(st.sampled_from(check.dims), index) if check.dims
                     else st.tuples(index), label="case")
    for value, bound in zip(check.deviation(*case), check.bounds, strict=True):
        assert selftest.holds(value, bound), (value, bound)
