"""Acceptance gate: one test per cross-verification criterion.

Each test runs one library self-check from selftest.ALL_CHECKS and prints
its one-line verdict, so `pytest tests/test_acceptance.py -v -s` reads as a
pass/fail table. The tests are generated from that list, named after each
check, so a new check is covered without an edit here. The same table is
available from the command line as `quantinfo selftest`.
"""

from __future__ import annotations

from quantinfo import selftest


def _acceptance_test(check):
    def test():
        result = check()
        print(selftest.format_line(result))
        assert result.passed, result.detail
    test.__name__ = "test_" + check.__name__.removeprefix("check_")
    test.__doc__ = check.__doc__
    return test


for _check in selftest.ALL_CHECKS:
    _test = _acceptance_test(_check)
    globals()[_test.__name__] = _test
