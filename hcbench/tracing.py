"""Benchmark-side spans around the calls into each layer of ``repro``.

The program is not changed: :func:`instrument` temporarily replaces a
few public functions and methods with wrappers that open a span, call
the original, and close the span, then restores the originals.  Spans
(name, start, end, parent, attributes) are recorded by the program's
own :class:`repro.obs.trace_spans.Tracer`, kept in memory and written
out once, when the run ends.  A layer's self time is its spans'
duration minus the time their child spans cover.

Layers and the calls wrapped for them:

=================  ====================================================
``multicast``      every registry algorithm's ``build_tree``;
                   ``MulticastTree.schedule`` (greedy step schedule)
``core``           ``Schedule.check_contention`` (Definition 4)
``simulator``      ``simulate_multicast`` (the event kernel)
``parallel``       ``ScheduleCache.get`` / ``put``; ``run_points``
``analysis``       ``Experiment.run`` (one figure); each point function
=================  ====================================================

The service layer is traced by the in-process replay itself
(``service.parse``, ``service.encode``) and by the server's own
``/metrics`` counters.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Iterator

#: cube sizes of the scale curves
SCALE_N = (6, 8, 10, 12)

#: spans whose self time is kernel work (build, schedule, verify, simulate)
KERNEL_SPANS = ("multicast.build", "multicast.schedule", "core.verify", "simulator.simulate")


def new_tracer(label: str):
    """A private :class:`repro.obs.trace_spans.Tracer` for benchmark spans.

    It is not installed as the module-global tracer, so the program's own
    built-in spans stay off and every span recorded is a benchmark one.
    """
    from repro.obs.trace_spans import Tracer

    return Tracer(label=label)


def self_times(tracer) -> list[float]:
    """Self time (s) of every span, in recording order."""
    covered: dict[str, float] = defaultdict(float)
    for s in tracer.spans:
        if s.parent_id is not None:
            covered[s.parent_id] += s.duration_us
    return [(s.duration_us - covered[s.span_id]) / 1e6 for s in tracer.spans]


def write_spans(tracer, path: Path) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(tracer.snapshot()), encoding="utf-8")


def _wrap(tracer, name: str, fn: Callable, before, after=None) -> Callable:
    """``fn`` inside a span; ``before(args)`` gives the span attributes,
    ``after(result, args, attrs)`` may add more once the call returned."""

    def wrapper(*args, **kwargs):
        with tracer.span(name, **before(args)) as span:
            result = fn(*args, **kwargs)
        if after is not None:
            after(result, args, span.attrs)
        return result

    wrapper.__wrapped__ = fn
    return wrapper


def _contention_counts(report, args, attrs) -> None:
    tree = args[0].tree
    k = len(tree.sends)
    attrs["pairs"] = k * (k - 1) // 2
    attrs["arcs"] = tree.total_hops()


def _cache_outcome(value, args, attrs) -> None:
    attrs["hit"] = value is not None


def _events(result, args, attrs) -> None:
    attrs["events"] = result.events


@contextmanager
def instrument(tracer) -> Iterator[None]:
    """Wrap every layer boundary listed in the module docstring."""
    from repro.analysis import delay, experiments, steps
    from repro.multicast import base, registry
    from repro.parallel import cache
    from repro.simulator import run as sim_run

    none = lambda args: {}  # noqa: E731
    patches: list[tuple[object, str, Callable]] = []
    for cls in {factory for factory in registry.ALGORITHMS.values() if isinstance(factory, type)}:
        for klass in cls.__mro__:
            if "build_tree" in vars(klass) and klass is not base.MulticastAlgorithm:
                patches.append(
                    (klass, "build_tree", lambda f: _wrap(tracer, "multicast.build", f, lambda a: {"n": a[1]}))
                )
    patches += [
        (base.MulticastTree, "schedule",
         lambda f: _wrap(tracer, "multicast.schedule", f, lambda a: {"n": a[0].n})),
        (base.Schedule, "check_contention",
         lambda f: _wrap(tracer, "core.verify", f, lambda a: {"n": a[0].tree.n}, _contention_counts)),
        (sim_run, "simulate_multicast",
         lambda f: _wrap(tracer, "simulator.simulate", f, lambda a: {"n": a[0].n}, _events)),
        (cache.ScheduleCache, "get",
         lambda f: _wrap(tracer, "parallel.cache_get", f, none, _cache_outcome)),
        (cache.ScheduleCache, "put", lambda f: _wrap(tracer, "parallel.cache_put", f, none)),
        (experiments.Experiment, "run",
         lambda f: _wrap(tracer, "analysis.figure", f, lambda a: {"id": a[0].id})),
    ]

    def traced_run_points(run_points):
        def wrapper(fn, specs, label=None):
            point = _wrap(tracer, "analysis.point", fn, none)
            with tracer.span("parallel.run_points", label=label):
                return run_points(point, specs, label=label)

        return wrapper

    patches += [(steps, "run_points", traced_run_points), (delay, "run_points", traced_run_points)]

    with _patched(patches):
        yield


@contextmanager
def _patched(patches: list[tuple[object, str, Callable]]) -> Iterator[None]:
    """Set ``owner.attr = make(original)`` for each patch; restore on exit."""
    originals: dict[tuple[object, str], Callable] = {}
    try:
        for owner, attr, make in patches:
            if (owner, attr) not in originals:
                originals[owner, attr] = vars(owner)[attr]
                setattr(owner, attr, make(originals[owner, attr]))
        yield
    finally:
        for (owner, attr), original in originals.items():
            setattr(owner, attr, original)


@contextmanager
def timed_points(samples: list[float]) -> Iterator[None]:
    """Record each figure point's wall time (s) into ``samples``."""
    from repro.analysis import delay, steps

    def timed(run_points):
        def wrapper(fn, specs, label=None):
            def point(spec):
                t0 = time.perf_counter()
                try:
                    return fn(spec)
                finally:
                    samples.append(time.perf_counter() - t0)

            return run_points(point, specs, label=label)

        return wrapper

    with _patched([(steps, "run_points", timed), (delay, "run_points", timed)]):
        yield


@contextmanager
def probing(probe) -> Iterator[None]:
    """Let ``probe`` sample the host's speed between the sweep's cached
    kernel calls (one schedule table or delay summary each, at most
    ~0.15 s), so its samples spread over the whole sweep."""
    from repro.analysis import delay, steps

    def between(fn):
        def wrapper(*args, **kwargs):
            probe.maybe()
            return fn(*args, **kwargs)

        return wrapper

    with _patched([(steps, "cached_schedule_table", between), (delay, "cached_delay_stats", between)]):
        yield


def layer_metrics(tracer, root: str) -> dict[str, float]:
    """Per-layer metrics from one traced pass whose top span is ``root``."""
    selfs = self_times(tracer)
    busy: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    busy_n: dict[tuple[str, int], float] = defaultdict(float)
    calls_n: dict[tuple[str, int], int] = defaultdict(int)
    events_n: dict[int, int] = defaultdict(int)
    pairs = arcs = events = hits = misses = 0
    root_wall = root_self = 0.0
    fig_s: dict[str, float] = {}
    for span, self_s in zip(tracer.spans, selfs):
        name, attrs, wall = span.name, span.attrs, span.duration_us / 1e6
        busy[name] += self_s
        calls[name] += 1
        n = attrs.get("n")
        if n is not None:
            busy_n[name, n] += self_s
            calls_n[name, n] += 1
        if name == root:
            root_wall += wall
            root_self += self_s
        elif name == "core.verify":
            pairs += attrs["pairs"]
            arcs += attrs["arcs"]
        elif name == "simulator.simulate":
            events += attrs["events"]
            events_n[n] += attrs["events"]
        elif name == "parallel.cache_get":
            hits += attrs["hit"]
            misses += not attrs["hit"]
        elif name == "analysis.figure":
            fig_s[attrs["id"]] = fig_s.get(attrs["id"], 0.0) + wall

    def mean(total: float, count: int, scale: float) -> float:
        return total / count * scale if count else 0.0

    kernel = sum(busy[name] for name in KERNEL_SPANS)
    out = {
        "multicast.build_ms": busy["multicast.build"] * 1e3,
        "multicast.build_calls": calls["multicast.build"],
        "multicast.schedule_ms": busy["multicast.schedule"] * 1e3,
        "multicast.schedule_calls": calls["multicast.schedule"],
        "core.verify_ms": busy["core.verify"] * 1e3,
        "core.verify_calls": calls["core.verify"],
        "core.verify_pairs": pairs,
        "core.arcs_per_plan": mean(arcs, calls["core.verify"], 1.0),
        "simulator.simulate_ms": busy["simulator.simulate"] * 1e3,
        "simulator.events": events,
        "simulator.us_per_event": mean(busy["simulator.simulate"], events, 1e6),
        "parallel.cache_get_us": mean(busy["parallel.cache_get"], calls["parallel.cache_get"], 1e6),
        "parallel.cache_put_us": mean(busy["parallel.cache_put"], calls["parallel.cache_put"], 1e6),
        "parallel.cache_hits": hits,
        "parallel.cache_misses": misses,
        "parallel.cache_hit_ratio": mean(hits, hits + misses, 1.0),
        "service.parse_us": mean(busy["service.parse"], calls["service.parse"], 1e6),
        "analysis.points": calls["analysis.point"],
        "trace.kernel_share": kernel / root_wall if root_wall else 0.0,
        "trace.unaccounted_ms": root_self * 1e3,
    }
    for fig in ("fig9", "fig10", "fig11", "fig12", "fig13", "fig14"):
        out[f"analysis.fig_s.{fig}"] = fig_s.get(fig, 0.0)
    for n in SCALE_N:
        for span, metric in (
            ("multicast.build", "multicast.build_ms"),
            ("multicast.schedule", "multicast.schedule_ms"),
            ("core.verify", "core.verify_ms"),
            ("simulator.simulate", "simulator.simulate_ms"),
        ):
            out[f"{metric}.n{n}"] = mean(busy_n[span, n], calls_n[span, n], 1e3)
        out[f"simulator.us_per_event.n{n}"] = mean(
            busy_n["simulator.simulate", n], events_n[n], 1e6
        )
    return out
