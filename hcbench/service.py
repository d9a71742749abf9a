"""The planning-service workload ``plan-cold``.

A timed run starts a fresh ``serve --port 0`` child several times, to
time set-up, and drives the last one with a fixed closed-loop batch of
distinct keys over two keep-alive connections, in small groups with a
host-speed probe between them.  The traced run drives one fresh child
with an open loop at the workload's fixed Poisson rate, then a closed
batch; its latency percentiles come from the open loop's raw samples,
each timed from when its request was due.

Correctness: any non-200 answer fails; every ``/v1/verify`` must say
``ok: true``; a seeded sample of answers must equal, in canonical JSON,
the in-process ``compute_schedule_table`` / ``verify_multicast`` /
``compute_delay_stats`` result.

The traced run scrapes ``/metrics`` around its load and then
replays the sent requests in-process through the layers' public
functions, untraced and with spans.
"""

from __future__ import annotations

import itertools
import json
import statistics
import time
from contextlib import nullcontext
from pathlib import Path

import inputs
import loadgen
from common import Result, SpeedProbe, quantile
from server import ServerProcess
from tracing import instrument, layer_metrics, new_tracer, write_spans

CONNECTIONS = 2
#: share of ``p50_ms`` the generator's median lateness may reach before
#: the generator, not the service, would be what the run measures
LATE_SHARE = 0.25

#: per-layer metrics only a service run produces (zero on ``figures``)
SERVICE_ONLY = (
    "service.builds",
    "service.coalesced",
    "service.coalesce_ratio",
    "service.build_ms",
    "service.rejected",
    "service.deadline_timeouts",
    "service.server_p50_ms",
    "loadgen.late_p50_ms",
    "loadgen.late_p99_ms",
)


def reference(req) -> dict:
    """The in-process answer to one parsed planning request."""
    from repro.multicast.registry import get_algorithm
    from repro.multicast.verify import verify_multicast
    from repro.parallel.cache import compute_delay_stats, compute_schedule_table

    if req.kind == "schedule":
        return compute_schedule_table(
            req.algorithm, req.n, req.source, req.destinations, req.ports, req.order
        )
    if req.kind == "verify":
        res = verify_multicast(
            get_algorithm(req.algorithm), req.n, req.source, list(req.destinations),
            req.ports, req.order,
        )
        return {
            "ok": res.ok,
            "errors": list(res.errors),
            "max_step": res.schedule.max_step if res.schedule is not None else None,
        }
    return compute_delay_stats(
        req.algorithm, req.n, req.source, req.destinations, req.size, req.timings,
        req.ports, req.order,
    )


def cache_key(req) -> str:
    from repro.parallel.cache import delay_stats_key, schedule_table_key
    from repro.service.planner import verify_table_key

    if req.kind == "schedule":
        return schedule_table_key(
            req.algorithm, req.n, req.source, req.destinations, req.ports, req.order
        )
    if req.kind == "verify":
        return verify_table_key(req)
    return delay_stats_key(
        req.algorithm, req.n, req.source, req.destinations, req.size, req.timings,
        req.ports, req.order,
    )


def parse(plan: inputs.Plan):
    from repro.service.protocol import parse_plan_request

    return parse_plan_request(json.loads(plan.body), plan.kind)


def check(samples: list[loadgen.Sample], result: Result) -> None:
    """Count failures and wrong answers among completed requests.

    A non-200 answer (429/503/504, or 0 for a lost connection) is a
    failure and makes the run incorrect: at the workload's fixed rate
    none may occur, and a refused or dropped request answers fast, so it
    would otherwise make the latencies look better.
    """
    from repro.service.protocol import encode_json

    expected: dict[tuple, bytes] = {}
    refused: dict[int, int] = {}
    for s in samples:
        result.attempted += 1
        if s.status != 200:
            result.failed += 1
            refused[s.status] = refused.get(s.status, 0) + 1
            continue
        if s.body is None:
            continue
        answer = json.loads(s.body)["result"]
        wrong = s.plan.kind == "verify" and answer.get("ok") is not True
        if s.plan.check:
            if s.plan.key not in expected:
                expected[s.plan.key] = encode_json(reference(parse(s.plan)))
            wrong = wrong or encode_json(answer) != expected[s.plan.key]
        if wrong:
            result.failed += 1
            result.wrong += 1
            result.problems.append(f"wrong answer for {s.plan.kind} n={s.plan.n} m={len(s.plan.destinations)}")
    for status, count in sorted(refused.items()):
        result.problems.append(f"{count} requests answered {status or 'nothing (connection lost)'}")


def _groups(plans, count: int, size: int) -> list[list[inputs.Plan]]:
    """The next ``count`` requests of ``plans``, cut into closed-loop groups."""
    batch = list(itertools.islice(plans, count))
    return [batch[i : i + size] for i in range(0, len(batch), size)]


def run(root: Path, params: dict, seed: int, seconds: float, trace: bool) -> Result:
    result = Result()
    plans = inputs.cold_stream(seed, params["keys"])
    if trace:
        return _run_traced(root, params, seed, seconds, plans, result)
    groups = _groups(plans, round(params["closed_batch_per_s"] * seconds), params["group_size"])
    setup_probe, probe = SpeedProbe(), SpeedProbe()
    setups = []
    for _ in range(params["setup_repeats"] - 1):
        setup_probe.sample(3)
        with ServerProcess(root) as srv:
            setups.append(srv.start())
    setup_probe.sample(3)
    with ServerProcess(root) as srv:
        setups.append(srv.start())
        load = loadgen.drive(srv.port, CONNECTIONS, [], groups, probe.sample)
        rss = srv.peak_rss_mb()
    check(load.samples, result)
    # only answered requests count: a failure already fails the run
    completed = sum(x.status == 200 for x in load.closed_samples)
    if not completed:
        raise RuntimeError("no request was answered")
    wall = sum(load.group_walls_s)
    result.note(
        f"closed: {completed} requests in {len(groups)} groups, wall {wall:.3f} s, "
        f"probe median {statistics.median(probe.samples) * 1e3:.3f} ms, scaled {probe.scaled(wall):.3f} s; "
        f"setups_s={[round(s, 3) for s in setups]}"
    )
    result.add("setup_s", setup_probe.scaled(statistics.median(setups)), "s")
    result.add("wall_s", probe.scaled(wall), "s")
    result.add("throughput_rps", completed / probe.scaled(wall), "1/s")
    result.add("peak_rss_mb", rss, "MB")
    return result


def _run_traced(root: Path, params: dict, seed: int, seconds: float, plans, result: Result) -> Result:
    """Open loop at the fixed rate, then one closed batch, on one server;
    then the in-process replay of everything sent."""
    open_s = params["open_share"] * seconds
    schedule = inputs.poisson_schedule(seed, params["rate_rps"], open_s, plans)
    groups = _groups(
        plans, round(params["closed_batch_per_s"] * (seconds - open_s)), params["group_size"]
    )
    with ServerProcess(root) as srv:
        srv.start()
        before = srv.metrics()
        load = loadgen.drive(srv.port, CONNECTIONS, schedule, groups)
        after = srv.metrics()
    check(load.samples, result)

    # only answered requests are timed: a failure already fails the run
    latencies = [x.latency_ms for x in load.open_samples if x.status == 200]
    if not latencies:
        raise RuntimeError("no request was answered")
    lateness = [late * 1e3 for late in load.lateness_s]
    p50, p99 = quantile(latencies, 0.50), quantile(latencies, 0.99)
    late_p50, late_p99 = quantile(lateness, 0.50), quantile(lateness, 0.99)
    if late_p50 > LATE_SHARE * p50:
        result.problems.append(f"generator ran late: median lateness {late_p50:.3f} ms vs p50 {p50:.3f} ms")
    result.note(
        f"open: {len(latencies)} samples at {params['rate_rps']} req/s, "
        f"p50 {p50:.3f} ms p99 {p99:.3f} ms, "
        f"lateness p50 {late_p50:.3f} ms p99 {late_p99:.3f} ms; "
        f"closed: {len(load.closed_samples)} requests"
    )
    metrics = _server_counters(before, after)
    metrics["error_rate"] = result.failed / result.attempted
    metrics["loadgen.late_p50_ms"] = late_p50
    metrics["loadgen.late_p99_ms"] = late_p99
    metrics["p50_ms"] = p50
    metrics["p99_ms"] = p99
    sent = [s.plan for s in load.samples]
    metrics.update(_replay_metrics(root, sent, params["replay_share"] * seconds, result))
    result.add_layers(metrics)
    return result


def _delta(before: dict, after: dict, series: str) -> float:
    return after.get(series, 0.0) - before.get(series, 0.0)


def _server_counters(before: dict, after: dict) -> dict[str, float]:
    """Service-layer metrics from two ``/metrics`` scrapes."""
    prefix = "repro_sim_service_"
    d = lambda name: _delta(before, after, prefix + name)  # noqa: E731
    builds, coalesced = d("builds"), d("coalesced")
    build_count = d("build_seconds_seconds_count")
    buckets = sorted(
        (float(series.split('le="')[1].rstrip('"}')), _delta(before, after, series))
        for series in after
        if series.startswith(prefix + "latency_ms_bucket")
    )
    return {
        "service.builds": builds,
        "service.coalesced": coalesced,
        "service.coalesce_ratio": coalesced / (builds + coalesced) if builds + coalesced else 0.0,
        "service.build_ms": d("build_seconds_seconds_sum") / build_count * 1e3 if build_count else 0.0,
        "service.rejected": d("rejected_rate") + d("rejected_capacity"),
        "service.deadline_timeouts": d("deadline_timeouts"),
        "service.server_p50_ms": _bucket_quantile(buckets, 0.5),
    }


def _bucket_quantile(buckets: list[tuple[float, float]], q: float) -> float:
    """Quantile of a cumulative histogram, interpolated inside its bucket."""
    total = buckets[-1][1] if buckets else 0.0
    lower, below = 0.0, 0.0
    for upper, cumulative in buckets:
        if cumulative >= q * total and cumulative > below:
            if upper == float("inf"):
                return lower
            return lower + (upper - lower) * (q * total - below) / (cumulative - below)
        lower, below = upper, cumulative
    return 0.0


def replay(plans: list[inputs.Plan], tracer, budget_s: float) -> int:
    """Serve ``plans`` in-process, as the service would; returns how many
    were served before ``budget_s`` ran out."""
    from repro.parallel.cache import ScheduleCache
    from repro.service.protocol import encode_json

    span = tracer.span if tracer is not None else (lambda name, **attrs: nullcontext())
    cache = ScheduleCache()
    deadline = time.perf_counter() + budget_s
    served = 0
    for plan in plans:
        if time.perf_counter() > deadline:
            break
        with span("service.request"):
            with span("service.parse"):
                req = parse(plan)
            key = cache_key(req)
            value, source = cache.get(key), "cache"
            if value is None:
                value, source = reference(req), "build"
                cache.put(key, value)
            with span("service.encode"):
                encode_json({"request": req.describe(), "key": key, "source": source, "result": value})
        served += 1
    return served


def _replay_metrics(root: Path, plans: list, budget_s: float, result: Result) -> dict[str, float]:
    # the first pass sizes the replay to the budget and pays first-call
    # costs; the overhead ratio compares the traced pass with the second
    served = replay(plans, None, budget_s)
    tracer = new_tracer("hcbench-service")
    with instrument(tracer), tracer.span("service.replay") as top:
        replay(plans[:served], tracer, float("inf"))
    traced = top.duration_us / 1e6
    t0 = time.perf_counter()
    replay(plans[:served], None, float("inf"))
    untraced = time.perf_counter() - t0
    write_spans(tracer, root / "hcbench" / "out" / "spans-service.json")
    metrics = layer_metrics(tracer, "service.replay")
    metrics["trace.overhead_ratio"] = traced / untraced
    result.note(
        f"replay: {served} requests, untraced {untraced:.3f} s, traced {traced:.3f} s, "
        f"kernel_share={metrics['trace.kernel_share']:.3f}"
    )
    return metrics
