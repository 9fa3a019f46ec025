"""Workloads, measured phases and metrics of the end-to-end benchmark."""

from __future__ import annotations

import json
import resource
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import checks
import stack as stack_mod
import traffic
from tracing import Tracer

#: Full set-ups per untraced run; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: Request-stream tags: measured traffic and warm-up traffic never overlap.
MEASURED_TAG, WARMUP_TAG = 1, 2

DECODE = traffic.Traffic(streams=16, prompt_len=(4, 12), new_tokens=(24, 36), round_size=16)
API_PREFILL = traffic.Traffic(
    streams=1, prompt_len=(28, 40), new_tokens=(2, 6), round_size=12, malformed_per_round=1,
)


@dataclass(frozen=True)
class Workload:
    """How one workload deploys the system and drives it."""

    attention: str
    api: bool
    traffic: traffic.Traffic
    trace_rounds: int  # rounds of each phase of the traced run
    redecode_requests: int  # requests re-decoded by check (c)


#: Check (c) compares about 100 generated tokens on the decode workloads and
#: about 50 on the short-output API workload.
WORKLOADS = {
    "decode_host": Workload("host", False, DECODE, trace_rounds=3, redecode_requests=4),
    "decode_analog": Workload("analog", False, DECODE, trace_rounds=2, redecode_requests=4),
    "api_prefill_analog": Workload("analog", True, API_PREFILL, trace_rounds=3, redecode_requests=12),
}

UNITS = {
    "setup_s": "s", "throughput_tok_s": "tok/s", "ttft_p50_ms": "ms",
    "itl_p50_ms": "ms", "e2e_p50_ms": "ms", "peak_rss_mb": "MB",
}


# ----------------------------------------------------------------------
# Set-up and traffic
# ----------------------------------------------------------------------
#: Warm-up requests per set-up, two tokens each: enough to allocate the
#: pooled KV cache and run every serving path once.
WARMUP_REQUESTS = 4


def warmup(workload: Workload, seed: int):
    """Warm-up traffic of the workload's prompt shape."""
    def run(stack) -> None:
        shape = traffic.Traffic(1, workload.traffic.prompt_len, (2, 2), WARMUP_REQUESTS)
        stream = traffic.RequestStream(shape, stack.corpus.transition, seed, WARMUP_TAG)
        if workload.api:
            traffic.run_api_loop(stack.server.port, stream, None, rounds=1)
        else:
            traffic.run_engine_loop(stack.engine, stream, None, rounds=1)
            stack.engine.run_until_idle()
    return run


def build(workload: Workload, seed: int) -> stack_mod.Stack:
    """One full set-up of the workload's system."""
    return stack_mod.build_stack(workload.attention, workload.api, seed, warmup(workload, seed))


def drive(stack, workload: Workload, seed: int, seconds=None, rounds=None):
    """One measured phase: the workload's request stream from its start."""
    stream = traffic.RequestStream(workload.traffic, stack.corpus.transition, seed, MEASURED_TAG)
    if workload.api:
        return traffic.run_api_loop(stack.server.port, stream, seconds, rounds)
    return traffic.run_engine_loop(stack.engine, stream, seconds, rounds)


def kv_tokens(stack) -> int | None:
    """KV tokens written so far (``None`` with host attention)."""
    executor = stack.engine.attention_executor
    return None if executor is None else executor.kv_tokens_written


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
def percentile(values, q: float) -> float:
    """Linear-interpolated percentile (``q`` in 0..100)."""
    return float(np.percentile(np.asarray(values, dtype=float), q))


def steady(records, streams: int) -> list:
    """Measured requests served while all ``streams`` streams were open."""
    return [r for r in checks.served(records[streams - 1:]) if r.measured]


def latency(records, streams: int) -> tuple[dict, dict]:
    """End-to-end latency/throughput metrics and the tails printed beside them.

    Latencies come from the steady requests.  Throughput counts every token
    emitted from the moment the last stream opened until the last steady
    request finished, a window in which all streams are busy.
    """
    ok = steady(records, streams)
    ttft = [r.token_times[0] - r.sent_at for r in ok]
    itl = [b - a for r in ok for a, b in zip(r.token_times, r.token_times[1:])]
    e2e = [r.done_at - r.sent_at for r in ok]
    start, end = records[streams - 1].sent_at, max(r.done_at for r in ok)
    tokens = sum(start <= t <= end for r in records for t in r.token_times)
    metrics = {
        "throughput_tok_s": tokens / (end - start),
        "ttft_p50_ms": percentile(ttft, 50) * 1e3,
        "itl_p50_ms": percentile(itl, 50) * 1e3,
        "e2e_p50_ms": percentile(e2e, 50) * 1e3,
    }
    tails = {
        "ttft_p90_ms": percentile(ttft, 90) * 1e3, "ttft_samples": len(ttft),
        "itl_p99_ms": percentile(itl, 99) * 1e3, "itl_samples": len(itl),
        "steady_requests": len(ok), "window_tokens": tokens, "window_s": end - start,
    }
    return metrics, tails


def peak_rss_mb() -> float:
    """Peak resident memory of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def host_probe_ms() -> float:
    """A fixed numpy kernel, timed: tells machine drift from program change."""
    rng = np.random.default_rng(0)
    a, b = rng.random((192, 192)), rng.random((192, 192))
    times = []
    for _ in range(5):
        started = time.perf_counter()
        for _ in range(20):
            a @ b
        times.append(time.perf_counter() - started)
    return statistics.median(times) * 1e3


def run_checks(stack, workload, seed, records, kv_before) -> tuple[list[str], dict]:
    """Checks (a)-(c) on one measured phase."""
    match, total, sampled = checks.redecode(
        stack.compiled, stack.corpus, workload.attention, seed, records, stack_mod.deploy,
        workload.redecode_requests,
    )
    # Host attention serves through the default kernel, bitwise-equal to the
    # reference kernel; analog KV writes draw their noise in write order,
    # which batching changes, so only a floor applies there.
    exact = workload.attention == "host"
    problems = (
        checks.check_plausibility(records, stack.corpus.transition)
        + checks.check_counters(stack.engine, records, kv_before)
        + checks.check_redecode(match, total, exact)
    )
    summary = {
        "plausibility": checks.plausibility(records, stack.corpus.transition),
        "redecode_agreement": match / total if total else 0.0,
        "redecode_tokens": total, "redecode_requests": sampled, "redecode_exact": exact,
    }
    return problems, summary


# ----------------------------------------------------------------------
# Untraced run: end-to-end metrics
# ----------------------------------------------------------------------
def run(name: str, seed: int, seconds: float, traced: bool, root: Path) -> dict:
    """One run of workload ``name``; returns the result and what to print."""
    workload = WORKLOADS[name]
    if traced:
        return run_traced(name, workload, seed, root)
    setups, stack = [], None
    for _ in range(SETUP_REPEATS):
        if stack is not None:
            stack.close()
        stack = build(workload, seed)
        setups.append(stack.timings["setup_s"])
    try:
        kv_before = kv_tokens(stack)
        probes = [host_probe_ms()]
        records, wall = drive(stack, workload, seed, seconds=seconds)
        probes.append(host_probe_ms())
        metrics, tails = latency(records, workload.traffic.streams)
        tails["phase_s"] = wall
        problems, summary = run_checks(stack, workload, seed, records, kv_before)
    finally:
        stack.close()
    metrics["setup_s"] = statistics.median(setups)
    metrics["peak_rss_mb"] = peak_rss_mb()
    info = {
        "workload": name, "seed": seed, "setup_runs_s": setups, "tails": tails,
        "checks": summary, "host_probe_ms": probes,
    }
    return finish(records, problems, {k: (metrics[k], UNITS[k]) for k in UNITS}, info)


def finish(records, problems, metrics: dict, info: dict) -> dict:
    """Assemble the result; print the side information and any problem."""
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    info["problems"] = problems
    print(json.dumps(info))
    return {
        "correct": not problems,
        "attempted": sum(r.done for r in records),
        "failed": sum(r.done and not r.ok for r in records),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


# ----------------------------------------------------------------------
# Traced run: per-layer metrics
# ----------------------------------------------------------------------
def run_traced(name: str, workload: Workload, seed: int, root: Path) -> dict:
    """Set up once with set-up spans, then serve the same rounds untraced and traced."""
    import layers

    tracer = Tracer()
    layers.install_setup(tracer)
    try:
        stack = build(workload, seed)
    finally:
        tracer.remove()
    try:
        probes = [host_probe_ms()]
        kv0 = kv_tokens(stack)
        plain, plain_wall = drive(stack, workload, seed, rounds=workload.trace_rounds)
        problems, summary = run_checks(stack, workload, seed, plain, kv0)
        if not workload.api:  # the server's driver thread steps the API engine
            stack.engine.run_until_idle()
        probes.append(host_probe_ms())
        for layer in stack.engine.hybrid_layers.values():
            layer.reset_stats()
        before = layers.Counters.read(stack)
        layers.install_serving(tracer, stack.engine)
        try:
            started = time.perf_counter()
            traced, traced_wall = drive(stack, workload, seed, rounds=workload.trace_rounds)
            phase = (started, time.perf_counter())
        finally:
            tracer.remove()
        after = layers.Counters.read(stack)
        probes.append(host_probe_ms())
        problems += checks.check_counters(stack.engine, traced, before.kv_tokens)
        spans = tracer.spans()
        if not workload.api:
            problems += layers.check_self_time(spans, phase)
        plain_tok_s = latency(plain, workload.traffic.streams)[0]["throughput_tok_s"]
        metrics = layers.per_layer(stack, spans, phase, plain, plain_tok_s, traced, before, after)
        metrics["host.probe_ms"] = (statistics.median(probes), "ms")
        metrics["trace.overhead_ratio"] = (traced_wall / plain_wall, "ratio")
        out = root / ".bench_trace"
        out.mkdir(exist_ok=True)
        tracer.write(out / f"{name}-seed{seed}.jsonl.gz")
    finally:
        stack.close()
    summary["self_time_checked"] = not workload.api
    info = {"workload": name, "seed": seed, "traced": True, "checks": summary}
    return finish(plain + traced, problems, metrics, info)
