"""In-memory span tracer that wraps smoothdiff's public functions from outside.

Wrappers are installed on module attributes, because `cli`, `simulate` and
`fitting` bind the functions they call by name at import time: patching the
defining module alone would miss those calls. Calls reached through module
globals (`fitting.penalized_inverse`, `tdp.phi_alpha` from the prefix search,
`windows.sliding_inverses`) or through a class (`DesignMatrix.crossprod`) are
wrapped where they are looked up. Nothing in `src/` is changed.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass(frozen=True)
class Span:
    """One traced call: `parent` is the index of the enclosing span, or -1."""

    name: str
    start: float
    end: float
    parent: int
    item: int

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass
class Tracer:
    """Spans and counters kept in memory until the run ends.

    `item` labels the work item (one analyze session or one replicate) that
    the spans belong to, so spans of one item share an identifier.
    """

    spans: list[Span] = field(default_factory=list)
    counts: defaultdict = field(default_factory=lambda: defaultdict(int))
    item: int = 0
    _stack: list[int] = field(default_factory=list)

    def call(self, name, fn, args, kwargs, on_result=None):
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        # Reserve the slot so children can name this span as their parent.
        self.spans.append(Span(name, 0.0, 0.0, parent, self.item))
        self._stack.append(index)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[index] = Span(name, start, end, parent, self.item)
            self.counts[name + ".calls"] += 1
        if on_result is not None:
            on_result(self, result)
        return result

    def total(self, name: str) -> float:
        return sum(s.duration for s in self.spans if s.name == name)

    def durations(self, name: str) -> list[float]:
        return [s.duration for s in self.spans if s.name == name]


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of its interval its children cover.

    Children are clipped to the parent interval and overlapping children are
    merged, so the result is never negative.
    """
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s.parent >= 0:
            children[s.parent].append((s.start, s.end))
    out = []
    for i, s in enumerate(spans):
        covered = 0.0
        cursor = s.start
        for lo, hi in sorted(children.get(i, ())):
            lo, hi = max(lo, cursor), min(hi, s.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append(s.duration - covered)
    return out


def _count_factorizations(tracer: Tracer, result) -> None:
    tracer.counts["windows.n_factorizations"] += result.n_factorizations


def _targets():
    """(owner, attribute, span name, result hook) for every wrapped call site."""
    from smoothdiff import basis, cli, fitting, simulate, tdp, windows

    targets = [
        (cli, "cmd_analyze", "cli.analyze", None),
        (cli, "cmd_diagnose", "cli.diagnose", None),
        (cli, "cmd_simulate", "cli.simulate", None),
        (cli, "load_strata", "cli.load_strata", None),
        (cli, "window_stat_correlation", "windows.window_stat_correlation", None),
        (simulate, "run_replicate", "simulate.replicate", None),
        (simulate, "gen_coefficients", "simulate.generate", None),
        (simulate, "gen_stratum", "simulate.generate", None),
        (fitting, "penalized_inverse", "fitting.penalized_inverse", None),
        (basis.DesignMatrix, "crossprod", "basis.crossprod", None),
        (windows, "sliding_inverses", "windows.sliding_inverses", _count_factorizations),
        (windows, "cov_quadratic_forms", "toeplitz.cov_quadratic_forms", None),
        (tdp, "phi_alpha", "tdp.phi_alpha", None),
        (tdp, "PValueFamily", "tdp.pvalue_family", None),
    ]
    # Names that cli, simulate and fitting bind at import time. fitting's own
    # select_lambda and fit_stratum match too; nothing calls them through it.
    by_name = {
        "select_lambda": "fitting.select_lambda",
        "fit_stratum": "fitting.fit_stratum",
        "window_statistics": "windows.window_statistics",
        "threshold_regions": "tdp.threshold_regions",
        "design_matrix": "basis.design_matrix",
        "PValueFamily": "tdp.pvalue_family",
        "phi_alpha": "tdp.phi_alpha",
    }
    for owner in (cli, simulate, fitting):
        for attr, name in by_name.items():
            if hasattr(owner, attr):
                targets.append((owner, attr, name, None))
    return targets


@contextmanager
def installed(tracer: Tracer):
    """Route every target through `tracer` for the duration of the block."""
    saved = []
    try:
        for owner, attr, name, hook in _targets():
            original = getattr(owner, attr)
            saved.append((owner, attr, original))

            def wrapper(*args, _fn=original, _name=name, _hook=hook, **kwargs):
                return tracer.call(_name, _fn, args, kwargs, _hook)

            functools.update_wrapper(wrapper, original, updated=())
            setattr(owner, attr, wrapper)
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
