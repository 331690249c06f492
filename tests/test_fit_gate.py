"""The fit gate `scripts/fit_gate.py` at one replication: its records and its comparison."""

import copy
import importlib.util
import json
from pathlib import Path

import pytest

from gdge import fitting

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "fit_gate.py"


@pytest.fixture(scope="module")
def gate():
    spec = importlib.util.spec_from_file_location("fit_gate", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


LIKELIHOODS = {name: getattr(fitting, name) for name in ("_ll", "_base_ll")}


@pytest.fixture(scope="module")
def one_rep(gate):
    return gate.keyed(json.dumps(line) for line in gate.record(1))


def test_record_holds_every_kind_with_its_counts(one_rep):
    kinds = ("study", "margin_x", "margin_y", "em", "equal")
    assert sorted(one_rep) == sorted([(k, n, 0) for k in kinds for n in (25, 100)] + [("boundary", 100, 0)])
    for rec in one_rep.values():
        assert rec["calls"] >= 1 and rec["rows"] >= rec["calls"] and rec["iters"] >= 1
    for n in (25, 100):
        assert one_rep["equal", n, 0]["ll_null"] <= one_rep["equal", n, 0]["loglik"]


def test_record_restores_both_likelihoods(one_rep):
    # `counted` wraps them while the record runs
    for name, likelihood in LIKELIHOODS.items():
        assert getattr(fitting, name) is likelihood


def test_record_counts_the_base_law_likelihood(gate):
    # a univariate fit's theta = 1 search and an EM run's M-steps call `_base_ll` only
    with gate.counted() as calls:
        fitting.m_step_pair([0, 1, 3], 1)
    assert calls[0] >= 1 and calls[1] >= calls[0]


def test_record_agrees_with_the_committed_one(gate, one_rep, capsys):
    committed = {k: v for k, v in gate.load(gate.RECORD).items() if k in one_rep}
    assert len(committed) == len(one_rep)
    assert gate.compare(committed, one_rep) == 0


def test_compare_flags_a_lower_fit_and_a_lost_convergence(gate, one_rep, capsys):
    assert gate.compare(one_rep, one_rep) == 0
    key = ("study", 25, 0)
    assert one_rep[key]["converged"]
    lower, lower_null, lost = copy.deepcopy(one_rep), copy.deepcopy(one_rep), copy.deepcopy(one_rep)
    lower[key]["loglik"] -= 1e-9
    lower_null["equal", 25, 0]["ll_null"] -= 1e-9
    lost[key]["converged"] = False
    assert gate.compare(one_rep, lower) == 1
    assert gate.compare(one_rep, lower_null) == 1
    assert gate.compare(one_rep, lost) == 1
