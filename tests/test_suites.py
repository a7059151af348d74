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


def test_dissection_suite_searches_no_angle_relation():
    # D(whole) − D(A) − D(B) is normalized once, so its blocks cancel before
    # any relation search: no search at all, and mpmath is never loaded
    import json
    import subprocess
    import sys

    code = (
        "import json, sys\n"
        "from scissors import angles, dehn\n"
        "from scissors.suites import run_suite\n"
        "calls = []\n"
        "search = angles.find_angle_relations\n"
        "def counted(*args, **kwargs):\n"
        "    calls.append(len(args[0]))\n"
        "    return search(*args, **kwargs)\n"
        "angles.find_angle_relations = dehn.find_angle_relations = counted\n"
        "outcome = run_suite('dissection', 303, 25)\n"
        "print(json.dumps([outcome['passed'], calls,\n"
        "                  'mpmath' in sys.modules]))\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [25, [], False]
