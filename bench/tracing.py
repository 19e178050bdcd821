"""Spans around the package's layers, recorded from outside.

`Tracer.install` rebinds the public module and class attributes the
program calls through to thin wrappers that record a span per call, and
`Tracer.restore` puts every original back. Instances are never wrapped in
proxies: harness code type-checks strategies with isinstance, and a proxy
would silently skip the isolation audit. A hook whose target no longer
exists is recorded as missing, and every metric that needs its span is
reported missing instead of computed.

Spans live in memory as lists [name, start, end, parent, trial, note] and
are written out once, at the end of a run. A span's self time is its
duration minus its children's; calls are sequential, so the children never
overlap.
"""

from __future__ import annotations

import importlib
import time
from typing import Callable, Dict, List, Tuple

# (module, attribute, span name). Two attributes may feed one span name
# when the program reaches a function through two imports.
FUNCTION_HOOKS = (
    ("conbreak.cli", "main", "cli.main"),
    ("conbreak.cli", "run_trials", "harness.run_trials"),
    ("conbreak.harness", "run_trials", "harness.run_trials"),
    ("conbreak.harness", "run_one", "harness.run_one"),
    ("conbreak.harness", "gen_gnp", "graph.gen_gnp"),
    ("conbreak.graph", "gen_gnp", "graph.gen_gnp"),
    ("conbreak.graph", "uniforms_at", "rng.uniforms_at"),
    ("conbreak.harness", "run_game", "engine.run_game"),
    ("conbreak.harness", "degree_bound_flags", "harness.audit_degree_bound"),
    ("conbreak.harness", "isolation_flags", "harness.audit_isolation"),
    ("conbreak.strategies", "make_plan", "connector.make_plan"),
    ("conbreak.strategies", "connector_move", "connector.connector_move"),
    ("conbreak.connector", "select_target", "connector.select_target"),
    ("conbreak.connector", "find_structure_stage2", "connector.find_structure_stage2"),
    ("conbreak.connector", "make_cells", "connector.make_cells"),
    ("conbreak.connector", "decompose", "connector.decompose"),
    ("conbreak.strategies", "find_candidate", "breaker.find_candidate"),
    ("conbreak.strategies", "breaker_move", "breaker.breaker_move"),
    ("conbreak.verifier", "check_b", "verifier.check_b"),
    ("conbreak.verifier", "check_d", "verifier.check_d"),
    ("conbreak.verifier", "check_q", "verifier.check_q"),
)

# Strategy id -> (class in conbreak.strategies, roles it plays).
STRATEGY_CLASSES = {
    "random": ("RandomStrategy", "CB"),
    "greedy-degree": ("GreedyDegreeStrategy", "CB"),
    "paper-breaker": ("IsolationBreakerStrategy", "B"),
    "paper-connector": ("SpanningConnectorStrategy", "C"),
}

# Span name -> what to note about a call's result, for outcome ratios.
RESULT_NOTES: Dict[str, Callable] = {
    "graph.gen_gnp": lambda g: g.edge_count(),
    "connector.connector_move": lambda move: move.forfeit,
    "connector.find_structure_stage2": lambda found: found is not None,
    "connector.decompose": lambda dec: dec is not None,
    "breaker.find_candidate": lambda found: found is not None,
}

# Strategy id -> what to note about the instance after propose: whether
# the paper Breaker is playing filler rather than isolating a vertex.
PROPOSE_NOTES: Dict[str, Callable] = {
    "paper-breaker": lambda inst: inst.decomposition is None,
}

NAME, START, END, PARENT, TRIAL, NOTE = range(6)


def propose_span(sid: str, role: str) -> str:
    return f"strategies.{sid}.{role}.propose"


class Tracer:
    def __init__(self):
        self.spans: List[list] = []
        self.stack: List[int] = []
        self.trial = -1
        self.missing: List[str] = []  # span names with a missing hook
        self._saved: List[Tuple[object, str, object]] = []

    def open(self, name: str) -> int:
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.trial, None])
        self.stack.append(len(self.spans) - 1)
        return self.stack[-1]

    def close(self, idx: int) -> None:
        self.spans[idx][END] = time.perf_counter()
        self.stack.pop()

    def _wrap(self, fn, name: str):
        note = RESULT_NOTES.get(name)

        def traced(*args, **kwargs):
            idx = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if note is not None:
                self.spans[idx][NOTE] = note(result)
            return result

        return traced

    def _wrap_start(self, fn, sid: str):
        def start(inst, graph, role, seed):
            idx = self.open(f"strategies.{sid}.{role}.start")
            try:
                return fn(inst, graph, role, seed)
            finally:
                self.close(idx)

        return start

    def _wrap_propose(self, fn, sid: str):
        note = PROPOSE_NOTES.get(sid)

        def propose(inst, state):
            idx = self.open(propose_span(sid, state.to_move))
            try:
                return fn(inst, state)
            finally:
                self.close(idx)
                if note is not None:
                    self.spans[idx][NOTE] = note(inst)

        return propose

    def _rebind(self, owner, attr: str, wrapped) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapped)

    def install(self) -> None:
        self.missing = []
        for modname, attr, name in FUNCTION_HOOKS:
            mod = importlib.import_module(modname)
            fn = getattr(mod, attr, None)
            if fn is None:
                self.missing.append(name)
                continue
            self._rebind(mod, attr, self._wrap(fn, name))
        strategies = importlib.import_module("conbreak.strategies")
        for sid, (clsname, roles) in STRATEGY_CLASSES.items():
            cls = getattr(strategies, clsname, None)
            if cls is None or not hasattr(cls, "start") or not hasattr(cls, "propose"):
                self.missing.extend(propose_span(sid, r) for r in roles)
                continue
            self._rebind(cls, "start", self._wrap_start(cls.start, sid))
            self._rebind(cls, "propose", self._wrap_propose(cls.propose, sid))

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


def self_times(spans: List[list]) -> List[float]:
    out = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            out[s[PARENT]] -= s[END] - s[START]
    return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: List[list], missing: List[str]) -> Tuple[Dict[str, Tuple[float, str]], List[str]]:
    """Per-layer metrics from a finished trace: {name: (value, unit)} plus
    the names left out because a hook they need was missing."""
    selfs = self_times(spans)
    total: Dict[str, float] = {}
    own: Dict[str, float] = {}
    calls: Dict[str, int] = {}
    for s, st in zip(spans, selfs):
        name = s[NAME]
        total[name] = total.get(name, 0.0) + s[END] - s[START]
        own[name] = own.get(name, 0.0) + st
        calls[name] = calls.get(name, 0) + 1

    def of(name: str) -> List[list]:
        return [s for s in spans if s[NAME] == name]

    def games_where(name: str, pred) -> Tuple[int, int]:
        games, hits = set(), set()
        for s in of(name):
            games.add(s[TRIAL])
            if pred(s):
                hits.add(s[TRIAL])
        return len(hits), len(games)

    def found_ratio(name: str) -> float:
        rows = of(name)
        return _ratio(sum(1 for s in rows if s[NOTE]), len(rows))

    proposes = [
        propose_span(sid, r) for sid, (_, roles) in STRATEGY_CLASSES.items() for r in roles
    ]
    propose_s = sum(total.get(n, 0.0) for n in proposes)
    moves = sum(calls.get(n, 0) for n in proposes)
    edges = sum(s[NOTE] or 0 for s in of("graph.gen_gnp"))
    first_move: Dict[int, float] = {}
    for s in of("connector.connector_move"):
        first_move.setdefault(s[TRIAL], s[END] - s[START])

    out: Dict[str, Tuple[float, str]] = {}
    needs: Dict[str, Tuple[str, ...]] = {}

    def put(metric: str, value: float, unit: str, *spans_needed: str) -> None:
        out[metric] = (value, unit)
        needs[metric] = spans_needed

    def busy(layer: str, name: str) -> None:
        put(f"{layer}.s", total.get(name, 0.0), "s", name)
        put(f"{layer}.calls", calls.get(name, 0), "count", name)

    busy("rng.uniforms_at", "rng.uniforms_at")
    busy("graph.gen_gnp", "graph.gen_gnp")
    build = own.get("graph.gen_gnp", 0.0)
    put("graph.build.s", build, "s", "graph.gen_gnp", "rng.uniforms_at")
    put("graph.edges", edges, "count", "graph.gen_gnp")
    put("graph.build.ns_per_edge", _ratio(build, edges) * 1e9, "ns/edge",
        "graph.gen_gnp", "rng.uniforms_at")

    busy("connector.make_plan", "connector.make_plan")
    put("connector.first_move.s", sum(first_move.values()), "s", "connector.connector_move")
    put("connector.connector_move.self.s", own.get("connector.connector_move", 0.0), "s",
        "connector.connector_move", "connector.select_target",
        "connector.find_structure_stage2")
    put("connector.connector_move.calls", calls.get("connector.connector_move", 0), "count",
        "connector.connector_move")
    busy("connector.select_target", "connector.select_target")
    busy("connector.find_structure_stage2", "connector.find_structure_stage2")
    put("connector.structure_found_ratio", found_ratio("connector.find_structure_stage2"),
        "ratio", "connector.find_structure_stage2")
    busy("connector.make_cells", "connector.make_cells")
    busy("connector.decompose", "connector.decompose")
    put("connector.decompose.returned_ratio", found_ratio("connector.decompose"), "ratio",
        "connector.decompose")
    hit, games = games_where("connector.connector_move", lambda s: s[NOTE])
    put("connector.forfeit_ratio", _ratio(hit, games), "ratio", "connector.connector_move")

    busy("breaker.find_candidate", "breaker.find_candidate")
    put("breaker.candidate_found_ratio", found_ratio("breaker.find_candidate"), "ratio",
        "breaker.find_candidate")
    busy("breaker.breaker_move", "breaker.breaker_move")
    filler = propose_span("paper-breaker", "B")
    hit, games = games_where(filler, lambda s: s[NOTE])
    put("breaker.filler_game_ratio", _ratio(hit, games), "ratio", filler)

    for name in proposes:
        busy(name, name)
    put("strategies.propose.us_per_move", _ratio(propose_s, moves) * 1e6, "us/move", *proposes)

    busy("engine.run_game", "engine.run_game")
    engine_self = own.get("engine.run_game", 0.0)
    put("engine.self.s", engine_self, "s", "engine.run_game", *proposes)
    put("engine.moves", moves, "count", *proposes)
    put("engine.self.us_per_move", _ratio(engine_self, moves) * 1e6, "us/move",
        "engine.run_game", *proposes)

    busy("verifier.check_b", "verifier.check_b")
    busy("verifier.check_d", "verifier.check_d")
    busy("verifier.check_q", "verifier.check_q")

    put("harness.run_one.self.s", own.get("harness.run_one", 0.0), "s",
        "harness.run_one", "graph.gen_gnp", "engine.run_game",
        "harness.audit_degree_bound", "harness.audit_isolation")
    busy("harness.audit_degree_bound", "harness.audit_degree_bound")
    busy("harness.audit_isolation", "harness.audit_isolation")
    put("harness.run_trials.self.s", own.get("harness.run_trials", 0.0), "s",
        "harness.run_trials", "harness.run_one")
    put("cli.main.self.s", own.get("cli.main", 0.0), "s", "cli.main", "harness.run_trials")

    gone = set(missing)
    dropped = sorted(m for m, req in needs.items() if gone.intersection(req))
    for m in dropped:
        del out[m]
    return out, dropped
