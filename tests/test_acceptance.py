"""Acceptance suite: every criterion at its stated tolerance, and its golden values.

Each test prints the one-line pass/fail record (visible with pytest -s or in
the CLI driver `stratwave acceptance`).  Criteria carry their own grid
choices; rationale lives in stratwave.acceptance.

Every criterion runs at most once per session (the `acceptance_results`
fixture); test_criterion checks its verdict and test_golden checks that its
measured values equal those in tests/acceptance_golden.json, written by
tests/make_acceptance_golden.py.  Same numbers means the same bits: every
value is compared with ==, as `make_acceptance_golden.py --diff` does, so a
value that moves in its last digit fails until the golden file is rewritten
in a change that lists it.  The bits depend on the CPU dispatch, so a
failure names the dispatch the file recorded and the live one.
"""

import json
from pathlib import Path

import pytest

from make_acceptance_golden import dispatch, relative_change
from stratwave.acceptance import CRITERIA, run_criterion
from stratwave.analysis import EXPERIMENT_SCHEMAS
from stratwave.runio import validate_config

CRITERION_IDS = list(CRITERIA.keys())
GOLDEN = json.loads((Path(__file__).resolve().parent / "acceptance_golden.json").read_text())


class _Results(dict):
    """cid -> CriterionResult, running a criterion the first time it is asked for."""

    def __missing__(self, cid):
        self[cid] = result = run_criterion(cid)
        return result


@pytest.fixture(scope="session")
def acceptance_results():
    return _Results()


@pytest.mark.parametrize("cid", CRITERION_IDS)
def test_criterion(cid, acceptance_results):
    result = acceptance_results[cid]
    print(result.line())
    assert result.passed, result.line()


@pytest.mark.parametrize("cid", CRITERION_IDS)
def test_golden(cid, acceptance_results):
    measured, golden = acceptance_results[cid].measured, GOLDEN[cid]
    assert sorted(measured) == sorted(golden)
    for key, want in golden.items():
        got = measured[key]
        assert got == want, \
            (f"{cid}.{key}: golden {want!r} live {got!r} {relative_change(want, got)}; "
             f"CPU dispatch recorded {GOLDEN['dispatch']} live {dispatch()}")


@pytest.mark.parametrize("cid", CRITERION_IDS)
def test_criterion_configs_are_experiment_configs(cid):
    # each config is one that `stratwave experiment <kind> --config` accepts
    for cfg in CRITERIA[cid][1]:
        validate_config(cfg, EXPERIMENT_SCHEMAS[cfg["experiment"]["kind"]])
