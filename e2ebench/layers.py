"""Per-layer metrics of the traced run: which entry points are wrapped, and
how spans and hardware counters turn into the per-layer table.

Every metric named ``*_per_step`` is divided by the engine steps of the traced
phase; ``*_per_token`` hardware counts by the positions served (prompt plus
fed tokens, the rows each layer processed).  A layer that is not on a
workload's path (the HTTP tier on the decode workloads, dynamic operands with
host attention) reads 0.
"""

from __future__ import annotations

import statistics
from collections import defaultdict
from dataclasses import dataclass

import numpy as np

import checks
import traffic

#: Layer roles of the 24 HybridLinears, by the last part of their name.
ROLES = {"w_q": "qkv", "w_k": "qkv", "w_v": "qkv", "w_proj": "proj", "ffn1": "ffn1", "ffn2": "ffn2"}
#: Self times must add up to the traced engine-step time within this share.
SELF_TIME_TOLERANCE = 0.05


def install_setup(tracer) -> None:
    """Spans around the two deploy stages inside ``ServingEngine.deploy``."""
    import repro.serve.engine as engine_mod

    tracer.wrap(engine_mod, "attach_hybrid_layers", "setup.program")
    tracer.wrap(engine_mod, "calibrate_activations", "setup.calibrate")


def _rows(x) -> int:
    shape = np.shape(getattr(x, "data", x))
    return int(np.prod(shape[:-1]))


def install_serving(tracer, engine) -> None:
    """Spans around each serving layer's public entry points, at class level."""
    import repro.pim.hybrid as hybrid_mod
    import repro.rram.crossbar as crossbar_mod
    import repro.rram.dynamic as dynamic_mod
    from repro.nn.attention import AnalogAttention, MultiHeadAttention
    from repro.nn.kv_cache import KVCache
    from repro.nn.transformer import DecoderLM
    from repro.pim.hybrid import HybridLinear
    from repro.pim.kv_cache import CrossbarKVCache
    from repro.rram.backend import CrossbarBackend
    from repro.rram.dynamic import DynamicOperand
    from repro.rram.mapping import MappedMatrix
    from repro.serve.engine import ServingEngine

    names = {id(layer): name for name, layer in engine.hybrid_layers.items()}
    tracer.wrap(ServingEngine, "step", "engine.step")
    tracer.wrap(DecoderLM, "prefill", "model.prefill",
                tag=lambda model, tokens, cache: int(np.size(tokens)))
    tracer.wrap(DecoderLM, "forward", "model.forward")
    for cls in (MultiHeadAttention, AnalogAttention):
        tracer.wrap(cls, "forward", "attention")
    tracer.wrap(HybridLinear, "forward", "hybrid",
                tag=lambda layer, x: [names[id(layer)], _rows(x)])
    tracer.wrap(hybrid_mod, "quantize", "quant")
    tracer.wrap(MappedMatrix, "gemv", "array",
                tag=lambda matrix, *a, **k: "slc" if matrix.cell.bits == 1 else "mlc")
    for module in (crossbar_mod, dynamic_mod):
        tracer.wrap(module, "run_gemv", "kernel", tag=lambda matrix, codes, *a, **k: int(codes.shape[0]))
    tracer.wrap(DynamicOperand, "gemv", "dynamic.gemv")
    tracer.wrap(DynamicOperand, "append", "dynamic.append")
    tracer.wrap(CrossbarBackend, "program_region", "backend.program_region")
    for cls in (KVCache, CrossbarKVCache):
        tracer.wrap(cls, "copy_row", "kv_cache.copy_row")
    tracer.wrap(traffic, "api_call", "client.request")


@dataclass
class Counters:
    """Hardware and cache counters read at a phase boundary."""

    gemv: object
    kv_tokens: int | None
    write_pulses: int
    planes_packed: int
    pack_reuses: int

    @classmethod
    def read(cls, stack) -> "Counters":
        """Snapshot the engine's merged GemvStats, KV writes and plane-cache counts."""
        engine = stack.engine
        executor = engine.attention_executor
        return cls(
            gemv=engine.gemv_stats(),
            kv_tokens=None if executor is None else executor.kv_tokens_written,
            write_pulses=0 if executor is None else executor.wear_report()["dynamic_write_pulses"],
            planes_packed=engine.stats.planes_packed,
            pack_reuses=engine.stats.pack_reuses,
        )


def _in_phase(spans, phase) -> list[dict]:
    start, end = phase
    return [s for s in spans if start <= s["start"] and s["end"] <= end]


def check_self_time(spans, phase) -> list[str]:
    """Self times of everything under the engine steps must add up to the steps."""
    spans = _in_phase(spans, phase)
    step_traces = {s["trace"] for s in spans if s["name"] == "engine.step" and s["parent"] < 0}
    steps = sum(s["dur"] for s in spans if s["name"] == "engine.step")
    selfs = sum(s["self"] for s in spans if s["trace"] in step_traces)
    if not steps or abs(selfs / steps - 1.0) > SELF_TIME_TOLERANCE:
        return [f"layer self times sum to {selfs:.4f}s, traced engine steps took {steps:.4f}s"]
    return []


def _projection_s(stack) -> float:
    """``HardwareProjection`` of the served plans on a one-chip mesh (a projection)."""
    from repro.dist import DeviceMesh, HardwareProjection, ShardPlan

    plan = ShardPlan.build(stack.compiled.plan.layers, DeviceMesh(num_chips=1))
    return HardwareProjection(plan, stack.engine.model.config.d_model).serial_token_latency_s()


def per_layer(stack, spans, phase, plain, plain_tok_s, traced, before, after) -> dict:
    """The span and counter rows of the per-layer table, as ``{name: (value, unit)}``.

    ``plain`` and ``plain_tok_s`` are the records and steady throughput of the
    untraced phase; ``traced``, ``spans`` and the counters those of the traced one.
    """
    program_s = sum(s["dur"] for s in spans if s["name"] == "setup.program")
    calibrate_s = sum(s["dur"] for s in spans if s["name"] == "setup.calibrate")
    spans = _in_phase(spans, phase)
    total = defaultdict(float)
    own = defaultdict(float)
    calls = defaultdict(int)
    for s in spans:
        total[s["name"]] += s["dur"]
        own[s["name"]] += s["self"]
        calls[s["name"]] += 1
    steps = max(calls["engine.step"], 1)
    by_role = defaultdict(float)
    first_layer = next(iter(stack.engine.hybrid_layers))
    first_rows = 0
    for s in spans:
        if s["name"] == "hybrid":
            layer, rows = s["tag"]
            by_role[ROLES[layer.rsplit(".", 1)[-1]]] += s["dur"]
            first_rows += rows if layer == first_layer else 0
    arrays = defaultdict(lambda: [0.0, 0])
    for s in spans:
        if s["name"] == "array":
            arrays[s["tag"]][0] += s["dur"]
            arrays[s["tag"]][1] += 1
    kernel_rows = sum(s["tag"] for s in spans if s["name"] == "kernel")
    prefill_tokens = sum(s["tag"] for s in spans if s["name"] == "model.prefill")

    positions = sum(r.positions for r in traced)
    gemv_before, gemv_after = before.gemv, after.gemv
    adc = gemv_after.adc_conversions - gemv_before.adc_conversions
    kv = 0 if after.kv_tokens is None else after.kv_tokens - before.kv_tokens
    packs = after.planes_packed - before.planes_packed
    reuses = after.pack_reuses - before.pack_reuses

    plain_ok = checks.served(plain)
    overhead = [
        (r.token_times[0] - r.sent_at - r.engine_ttft_s) * 1e3
        for r in plain_ok if r.engine_ttft_s is not None
    ]
    step_ms = [s["dur"] * 1e3 for s in spans if s["name"] == "engine.step"]
    timings = stack.timings

    def ms_per_step(name):
        return total[name] * 1e3 / steps

    def per_kv_token(name):
        return total[name] * 1e3 / kv if kv else 0.0

    return {
        "setup.train_s": (timings["train_s"], "s"),
        "setup.compile_s": (timings["compile_s"], "s"),
        "setup.deploy_s": (timings["deploy_s"], "s"),
        "setup.program_s": (program_s, "s"),
        "setup.calibrate_s": (calibrate_s, "s"),
        "setup.warmup_s": (timings["warmup_s"], "s"),
        "api.overhead_ms_p50": (statistics.median(overhead) if overhead else 0.0, "ms"),
        "engine.step_ms_p50": (statistics.median(step_ms), "ms"),
        "engine.rows_per_step": (first_rows / steps, "count"),
        "engine.queue_wait_ms_p50": (statistics.median(r.queued_s for r in plain_ok) * 1e3, "ms"),
        "engine.self_ms_per_step": (own["engine.step"] * 1e3 / steps, "ms"),
        "model.prefill_ms_per_token": (
            total["model.prefill"] * 1e3 / prefill_tokens if prefill_tokens else 0.0, "ms"),
        "model.self_ms_per_step": (own["model.forward"] * 1e3 / steps, "ms"),
        "attention.self_ms_per_step": (own["attention"] * 1e3 / steps, "ms"),
        "hybrid.ms_per_step": (ms_per_step("hybrid"), "ms"),
        "hybrid.calls_per_step": (calls["hybrid"] / steps, "count"),
        "hybrid.self_ms_per_step": (own["hybrid"] * 1e3 / steps, "ms"),
        **{f"hybrid.{role}.ms_per_step": (by_role[role] * 1e3 / steps, "ms")
           for role in ("qkv", "proj", "ffn1", "ffn2")},
        "quant.ms_per_step": (ms_per_step("quant"), "ms"),
        "array.slc.ms_per_step": (arrays["slc"][0] * 1e3 / steps, "ms"),
        "array.mlc.ms_per_step": (arrays["mlc"][0] * 1e3 / steps, "ms"),
        "array.slc.calls_per_step": (arrays["slc"][1] / steps, "count"),
        "array.mlc.calls_per_step": (arrays["mlc"][1] / steps, "count"),
        "kernels.rows_per_call": (kernel_rows / max(calls["kernel"], 1), "count"),
        "plane_cache.reuse_ratio": (reuses / (packs + reuses) if packs + reuses else 0.0, "ratio"),
        "dynamic.gemv_calls_per_step": (calls["dynamic.gemv"] / steps, "count"),
        "dynamic.gemv_ms_per_step": (ms_per_step("dynamic.gemv"), "ms"),
        "dynamic.append_ms_per_token": (per_kv_token("dynamic.append"), "ms"),
        "backend.program_region_ms_per_token": (per_kv_token("backend.program_region"), "ms"),
        "kv_cache.copy_row_ms_per_step": (ms_per_step("kv_cache.copy_row"), "ms"),
        "hw.adc_conversions_per_token": (adc / positions, "count"),
        "hw.input_cycles_per_token": (
            (gemv_after.input_cycles - gemv_before.input_cycles) / positions, "count"),
        "hw.wordline_activations_per_token": (
            (gemv_after.wordline_activations - gemv_before.wordline_activations) / positions, "count"),
        "hw.saturated_ratio": (
            (gemv_after.saturated_conversions - gemv_before.saturated_conversions) / adc, "ratio"),
        "hw.kv_write_pulses_per_token": (
            (after.write_pulses - before.write_pulses) / kv if kv else 0.0, "count"),
        "projection.host_over_projected": (1.0 / plain_tok_s / _projection_s(stack), "ratio"),
    }
