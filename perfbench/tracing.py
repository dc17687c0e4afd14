"""In-memory spans around the calls a coverage study makes into each layer.

The program is not instrumented. ``traced_study`` swaps the names that
``fpboot.study`` calls (sampling, estimators, resampling and intervals
functions, plus its own task runner) for wrappers that record a span per
call, and restores them on exit. This only sees calls made in the
benchmark's own process, so traced studies run with ``workers = 1``.

A span has a name, start, end and the id of the span open when it began.
A study replication has no call of its own: it starts at the ``make_rng``
call that opens each replication and ends at the next one, or at the end
of the task.
"""

import contextlib
import functools
import time
from collections import Counter
from dataclasses import dataclass, field

# Name in ``fpboot.study`` -> span name. The prefix before the first dot is
# the package module (layer) the call belongs to.
STUDY_CALLS = {
    "make_rng": "sampling.make_rng",
    "srswor": "sampling.srswor",
    "estimate": "estimators.estimate",
    "standard_bootstrap": "resampling.standard",
    "ppb_bootstrap": "resampling.ppb",
    "mirror_match_bootstrap": "resampling.mirror",
    "bootstrap_variance": "resampling.bootstrap_variance",
    "jackknife_acceleration": "intervals.jackknife",
    "ci_normal": "intervals.normal",
    "ci_percentile": "intervals.percentile",
    "ci_bca": "intervals.bca",
    "ci_bootstrap_t": "intervals.boot_t",
    "coverage_study": "study.coverage_study",
    "_run_replications": "study.task",
}

REPLICATION = "study.replication"


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    start: float
    end: float | None = None
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans and per-name outcome counts in memory."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.outcomes: Counter = Counter()
        self._stack: list[Span] = []

    def open(self, name: str, **attrs) -> Span:
        parent = self._stack[-1].id if self._stack else None
        span = Span(len(self.spans), parent, name, self.clock(), attrs=attrs)
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span: Span, outcome: str = "ok"):
        if not self._stack or self._stack[-1] is not span:
            raise RuntimeError(f"span {span.name!r} closed out of order")
        span.end = self.clock()
        self._stack.pop()
        self.outcomes[(span.name, outcome)] += 1

    def top(self) -> Span | None:
        return self._stack[-1] if self._stack else None

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        s = self.open(name, **attrs)
        try:
            yield s
        except BaseException:
            self.close(s, "error")
            raise
        self.close(s)

    def wrap(self, name: str, fn, attrs=None):
        """``fn`` with every call recorded as a span named ``name``.

        ``attrs(*args, **kwargs)`` may return span attributes. A call that
        raises is counted with outcome ``error`` and the exception passes on.
        """

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name, **(attrs(*args, **kwargs) if attrs else {})):
                return fn(*args, **kwargs)

        return wrapper

    def named(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]


def _sample_size(sample, *args, **kwargs) -> dict:
    return {"n": int(sample.n)}


def _srswor_size(pop, n, *args, **kwargs) -> dict:
    return {"n": int(n)}


_ATTRS = {
    "srswor": _srswor_size,
    "standard_bootstrap": _sample_size,
    "ppb_bootstrap": _sample_size,
    "mirror_match_bootstrap": _sample_size,
    "jackknife_acceleration": _sample_size,
}


@contextlib.contextmanager
def traced_study(tracer: Tracer):
    """Record spans for every call ``fpboot.study`` makes while in the block."""
    import fpboot.study as study

    saved = {name: getattr(study, name) for name in STUDY_CALLS}
    wrapped = {name: tracer.wrap(STUDY_CALLS[name], fn, _ATTRS.get(name)) for name, fn in saved.items()}
    make_rng = wrapped["make_rng"]
    run_task = saved["_run_replications"]

    def end_replication():
        top = tracer.top()
        if top is not None and top.name == REPLICATION:
            tracer.close(top)

    def replication_make_rng(*args, **kwargs):
        # Inside a task every replication begins with its make_rng call.
        top = tracer.top()
        if top is not None and top.name in ("study.task", REPLICATION):
            end_replication()
            tracer.open(REPLICATION)
        return make_rng(*args, **kwargs)

    def task(*args, **kwargs):
        with tracer.span(STUDY_CALLS["_run_replications"]):
            try:
                return run_task(*args, **kwargs)
            finally:
                end_replication()

    wrapped["make_rng"] = replication_make_rng
    wrapped["_run_replications"] = task
    try:
        for name, fn in wrapped.items():
            setattr(study, name, fn)
        yield tracer
    finally:
        for name, fn in saved.items():
            setattr(study, name, fn)


def covered(intervals) -> float:
    """Total length of the union of ``(start, end)`` intervals."""
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans) -> dict[int, float]:
    """Span id -> its duration minus the part its direct children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out = {}
    for s in spans:
        clipped = [(max(lo, s.start), min(hi, s.end)) for lo, hi in children.get(s.id, [])]
        out[s.id] = s.duration - covered([c for c in clipped if c[1] > c[0]])
    return out
