import pytest

from scissors.suites import SUITES, UnknownSuite, run_suite

QUICK_CASES = {
    "dissection": 4,
    "phi-boundary": 12,
    "sd-homotopy": 8,
    "flag-nullhomotopy": 6,
}


@pytest.mark.parametrize("name", sorted(SUITES))
def test_suite_passes(name):
    outcome = run_suite(name, seed=7, cases=QUICK_CASES.get(name, 8))
    assert outcome["all_pass"], outcome["failures"][:2]


def test_cli_suite_names_match_registry():
    from scissors.cli import SUITE_NAMES
    assert SUITE_NAMES == tuple(sorted(SUITES))


def test_unknown_suite():
    with pytest.raises(UnknownSuite):
        run_suite("not-a-suite", 0, 1)


def test_reproducible_results():
    a = run_suite("phi-boundary", seed=3, cases=6)
    b = run_suite("phi-boundary", seed=3, cases=6)
    assert a == b


def test_failures_carry_reproducers():
    outcome = run_suite("phi-boundary", seed=5, cases=4)
    for case in outcome["results"]:
        assert "case" in case and "pass" in case
