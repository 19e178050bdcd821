"""The benchmark's layer timings rebind public names of the package (see
bench/tracing.py). A rename or a call that stops going through the
rebindable name would turn those timings into "missing" without failing
anything else, so these tests check the hooks from the package side."""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

import pytest

from conbreak import cli
from conbreak.strategies import REGISTRY

TRACING_PATH = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING_PATH)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


tracing = load_tracing()


@pytest.mark.parametrize("modname,attr,span", tracing.FUNCTION_HOOKS)
def test_function_hook_exists(modname, attr, span):
    mod = importlib.import_module(modname)
    assert callable(getattr(mod, attr, None)), f"{modname}.{attr} ({span})"


@pytest.mark.parametrize("sid", sorted(tracing.STRATEGY_CLASSES))
def test_strategy_class_hook_exists(sid):
    strategies = importlib.import_module("conbreak.strategies")
    clsname, _ = tracing.STRATEGY_CLASSES[sid]
    cls = getattr(strategies, clsname, None)
    assert cls is REGISTRY[sid]
    assert callable(getattr(cls, "start", None)) and callable(getattr(cls, "propose", None))


def test_hooks_are_looked_up_at_call_time(capsys):
    """A traced sweep must record a span for every rebound name on the
    paper-connector path, so none of them is bound at import time."""
    tracer = tracing.Tracer()
    tracer.install()
    try:
        rc = cli.main(["sweep", "--ns", "30", "--eps", "0.35", "--trials", "2", "--seed", "11"])
    finally:
        tracer.restore()
    capsys.readouterr()
    assert rc == 0 and tracer.missing == []
    seen = {span[tracing.NAME] for span in tracer.spans}
    for name in (
        "cli.main",
        "harness.run_trials",
        "harness.run_one",
        "graph.gen_gnp",
        "rng.uniforms_at",
        "engine.run_game",
        "connector.make_plan",
        "connector.connector_move",
        "connector.select_target",
        "connector.find_structure_stage2",
        "breaker.find_candidate",
        "strategies.paper-connector.C.propose",
        "strategies.paper-breaker.B.propose",
    ):
        assert name in seen, name


def test_hooks_cover_the_baseline_strategies_and_audits(capsys):
    """A traced run of the baseline pairs, and of the random Connector
    against the paper Breaker with both audits on, records a span for
    every baseline propose and for the audits' hooks."""
    tracer = tracing.Tracer()
    tracer.install()
    try:
        runs = [
            ["--connector", "random", "--breaker", "greedy-degree"],
            ["--connector", "greedy-degree", "--breaker", "random"],
            ["--connector", "random", "--breaker", "paper-breaker",
             "--verify-degree-bound", "--verify-isolation"],
        ]
        for pair in runs:
            rc = cli.main(["sweep", "--ns", "60", "--eps", "-0.1", "--trials", "2", *pair])
            assert rc == 0
    finally:
        tracer.restore()
    capsys.readouterr()
    assert tracer.missing == []
    seen = {span[tracing.NAME] for span in tracer.spans}
    for name in (
        "strategies.random.C.propose",
        "strategies.random.B.propose",
        "strategies.greedy-degree.C.propose",
        "strategies.greedy-degree.B.propose",
        "strategies.paper-breaker.B.propose",
        "harness.audit_degree_bound",
        "harness.audit_isolation",
        "verifier.check_q",
    ):
        assert name in seen, name
