"""Acceptance gate: `season verify all` once, then one test per criterion.

The checks, tolerances and time limits live in `season.verify.CRITERIA`.
One test per table entry asserts that every check of its criterion passed
and prints one pass line, so ``pytest -v -rP tests/test_acceptance.py``
yields one line per criterion.
"""

import contextlib
import io
import json

import pytest

from season import cli
from season.verify import CRITERIA


@pytest.fixture(scope="module")
def verified():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["verify", "all"])
    return code, json.loads(out.getvalue())


def assert_criterion(verified, number):
    _, payload = verified
    [crit] = [c for s in payload["suites"] for c in s["criteria"] if c["criterion"] == number]
    failed = [f"{c['name']}: {c['detail']}" for c in crit["checks"] if not c["passed"]]
    assert crit["checks"] and not failed, f"{crit['seconds']:.1f}s: {failed}"
    print(f"PASS criterion {number} ({crit['title']}, {crit['seconds']:.1f}s): "
          + "; ".join(f"{c['name']} {c['detail']}" for c in crit["checks"]))


class TestAcceptance:
    def test_verify_all_exits_0_in_suite_order(self, verified):
        code, payload = verified
        assert code == 0 and payload["passed"] is True
        assert [s["suite"] for s in payload["suites"]] == \
            ["core", "identity", "bounds", "samplers"]
        numbers = [c["criterion"] for s in payload["suites"] for c in s["criteria"]]
        assert sorted(numbers) == list(range(1, 12))


def criterion_test(number):
    def test(self, verified):
        assert_criterion(verified, number)
    return test


# one test per table entry, e.g. test_criterion_01_main_identity
for crit in sorted(CRITERIA, key=lambda c: c.number):
    name = f"test_criterion_{crit.number:02d}_{crit.title.replace(' ', '_')}"
    setattr(TestAcceptance, name, criterion_test(crit.number))
