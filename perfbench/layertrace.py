"""Layer tracing by run-time wrapping of the package's functions.

Nothing under ``src/`` is edited. ``Tracer.install`` replaces each traced
function object in every ``offswitch_lab.*`` module namespace that holds it
(so ``from .core import best_act_eu`` bindings are covered too) and wraps
the ``__init__`` of the traced classes; ``uninstall`` puts every original
back. While installed, each call records a span: name, start, end, parent
span and trial id. A span's self time is its duration minus the time its
child spans cover; self times and call counts are aggregated as calls
finish, and full spans are kept in memory only while ``keep_spans`` is set,
up to ``span_limit`` of them, to be written out when the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time
from collections import Counter, defaultdict

_perf = time.perf_counter
SPAN_LIMIT = 50_000  # kept spans per tracer; later ones are counted in spans_dropped


def _voi_rule_span(args, kwargs):
    rule = args[3] if len(args) > 3 else kwargs.get("rule")
    kind = type(rule).__name__
    if kind == "RiskWeightedRule":
        return "voi.reu"
    if kind == "GammaMaximinRule":
        return "voi.gamma"
    return "voi.eu"


def _targets():
    """(owner, attribute, span name or namer) for every traced boundary."""
    from offswitch_lab import core, distributions, jsonio, offswitch, search, voi

    targets = [
        # search: phases without a public entry point are the module-level
        # functions that find_information_aversion and the checks call
        (search, "_trial_rng", "search.rng"),
        (search, "_draw_instance", "search.draw"),
        (search, "random_discrete_prior", "search.draw"),
        (search, "_concrete_rule", "search.rule_draw"),
        (search, "evaluate_rule", "search.evaluate"),
        (search, "_reverifies", "search.reverify"),
        (search, "replay_witness", "search.replay"),
        (search, "find_information_aversion", "search.run"),
        (search, "verify_good", "search.run"),
        (search, "verify_theorem1", "search.run"),
        (search, "witness_to_jsonable", "jsonio.encode"),
        (search, "witness_from_jsonable", "jsonio.decode"),
        (voi, "value_of_learning_rule", _voi_rule_span),
        (voi, "value_of_learning_faulty", "voi.faulty"),
        (voi, "value_of_learning_eu", "voi.eu"),
        (core, "best_act_eu", "core.best_act_eu"),
        (core, "risk_weighted_value", "core.risk_weighted_value"),
        (core, "gamma_maximin", "core.gamma_maximin"),
        (core, "misupdate", "core.misupdate"),
        (core.Act, "__init__", "core.build"),
        (core.DecisionProblem, "__init__", "core.build"),
        (core.SignalChannel, "__init__", "core.build"),
        (offswitch, "theorem1_check", "offswitch.theorem1_check"),
        (offswitch, "best_option", "offswitch.best_option"),
        (distributions.Discrete, "__init__", "distributions"),
        (distributions.Uniform, "__init__", "distributions"),
    ]
    for name in ("mean", "prob_ge", "cond_mean_ge", "expected_positive_part", "sample", "sample_array"):
        targets.append((distributions, name, "distributions"))
    for name in sorted(vars(jsonio)):
        if name.startswith("encode_"):
            targets.append((jsonio, name, "jsonio.encode"))
        elif name.startswith("decode_"):
            targets.append((jsonio, name, "jsonio.decode"))
    return targets


VOI_SPANS = ("voi.reu", "voi.gamma", "voi.faulty", "voi.eu")


class Tracer:
    """Span recorder for one process; install around traced work only."""

    def __init__(self) -> None:
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.signals_skipped = 0
        self.max_replay_err = 0.0
        self.spans: list[tuple] = []
        self.keep_spans = False
        self.span_limit = SPAN_LIMIT
        self.spans_dropped = 0
        self.block = None
        self.trial = None
        self._stack: list[list] = []
        self._next_id = 0
        self._restore: list[tuple] = []

    @contextlib.contextmanager
    def span(self, name: str):
        """A span opened by the benchmark's own code."""
        frame = self._open(name)
        try:
            yield
        finally:
            self._close(frame)

    def _open(self, name: str) -> list:
        self._next_id += 1
        parent = self._stack[-1][0] if self._stack else None
        frame = [self._next_id, name, _perf(), 0.0, parent, (self.block, self.trial)]
        self._stack.append(frame)
        return frame

    def _close(self, frame: list) -> None:
        end = _perf()
        self._stack.pop()
        span_id, name, start, child_s, parent, trial = frame
        duration = end - start
        self.self_s[name] += duration - child_s
        self.calls[name] += 1
        if self._stack:
            self._stack[-1][3] += duration
        if self.keep_spans:
            if len(self.spans) < self.span_limit:
                self.spans.append((span_id, name, start, end, parent, trial))
            else:
                self.spans_dropped += 1

    def _wrap(self, fn, span_name):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            name = span_name(args, kwargs) if callable(span_name) else span_name
            if name == "search.rng":
                tracer.trial = args[1]
            elif name == "search.replay":
                tracer.trial = args[0].trial_index
            frame = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(frame)
            if name in VOI_SPANS:
                tracer.signals_skipped += len(args[2].signals) - len(result.per_signal)
            elif name == "search.replay":
                tracer.max_replay_err = max(tracer.max_replay_err, abs(result - args[0].voi))
            return result

        return traced

    def install(self) -> None:
        if self._restore:
            raise RuntimeError("tracer is already installed")
        modules = [m for n, m in sys.modules.items() if n == "offswitch_lab" or n.startswith("offswitch_lab.")]
        for owner, attr, span_name in _targets():
            original = vars(owner)[attr]
            traced = self._wrap(original, span_name)
            if isinstance(owner, type):
                holders = [owner]
            else:
                holders = [m for m in modules if any(v is original for v in vars(m).values())]
            for holder in holders:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        setattr(holder, key, traced)
                        self._restore.append((holder, key, original))

    def uninstall(self) -> None:
        for holder, key, original in reversed(self._restore):
            setattr(holder, key, original)
        self._restore = []

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def snapshot(self) -> dict:
        """Self seconds and call counts per span name, plus the two gauges."""
        return {
            "self_s": dict(self.self_s),
            "calls": dict(self.calls),
            "signals_skipped": self.signals_skipped,
            "max_replay_err": self.max_replay_err,
        }

    def span_records(self) -> list[dict]:
        """Kept spans as JSON-ready dicts; ``trial`` is "<block>/<trial index>"."""
        return [
            {"id": i, "name": n, "start": s, "end": e, "parent": p, "trial": f"{b}/{t}"}
            for i, n, s, e, p, (b, t) in self.spans
        ]
