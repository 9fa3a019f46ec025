"""The benchmark's own tests: its checks catch corrupted outputs, and the
metric names it prints are the ones ``BENCHMARK.json`` declares.

Run from the repository root: ``python -m pytest e2ebench -q``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import checks
import stack as stack_mod
import traffic
from repro.core import HyFlexPim
from repro.datasets.synthetic_lm import LMCorpusSpec, make_lm_corpus
from repro.nn import DecoderLM, TransformerConfig

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


# ----------------------------------------------------------------------
# (a) corpus plausibility
# ----------------------------------------------------------------------
def _cycle_transition(vocab: int = 16) -> np.ndarray:
    """A chain whose only preferred successor of ``i`` is ``i + 1``."""
    transition = np.full((vocab, vocab), 1e-4)
    transition[np.arange(vocab), (np.arange(vocab) + 1) % vocab] = 1.0
    return transition / transition.sum(axis=1, keepdims=True)


def _record(prompt, tokens) -> traffic.Record:
    record = traffic.Record(np.asarray(prompt), len(tokens))
    record.tokens = [int(t) for t in tokens]
    record.ok = True
    return record


def test_plausibility_passes_chain_text_and_fails_shuffled_tokens():
    transition = _cycle_transition()
    tokens = (np.arange(1, 41) % 16).tolist()
    assert checks.check_plausibility([_record([0], tokens)], transition) == []
    shuffled = np.random.default_rng(0).permutation(tokens)
    assert checks.check_plausibility([_record([0], shuffled)], transition)


def test_plausibility_ignores_malformed_and_failed_operations():
    transition = _cycle_transition()
    malformed, failed = _record([0], [5, 9, 2]), _record([0], [7, 3])
    malformed.malformed, failed.ok = True, False
    assert checks.plausibility([_record([0], [1, 2, 3]), malformed, failed], transition) == 1.0


# ----------------------------------------------------------------------
# (b) counter identities and (c) reference re-decode, on a tiny deploy
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def tiny():
    corpus = make_lm_corpus(
        LMCorpusSpec("tiny", vocab_size=16, seq_len=24, train_sequences=8,
                     test_sequences=4, branching=3),
        seed=0,
    )
    model = DecoderLM(TransformerConfig(
        vocab_size=16, d_model=16, num_heads=2, num_layers=1, d_ff=32, max_seq_len=24, seed=0,
    ))
    compiled = HyFlexPim(epochs=1, batch_size=4, seed=0).compile(model, corpus.train, "lm")
    return corpus, compiled


def _serve(corpus, compiled, attention: str):
    engine = stack_mod.deploy(compiled, corpus, attention, seed=0)
    kv_before = None if engine.attention_executor is None else engine.attention_executor.kv_tokens_written
    shape = traffic.Traffic(streams=3, prompt_len=(3, 6), new_tokens=(3, 5), round_size=3)
    stream = traffic.RequestStream(shape, corpus.transition, seed=0, tag=1)
    records, _ = traffic.run_engine_loop(engine, stream, None, rounds=2)
    return engine, records, kv_before


@pytest.mark.parametrize("attention", ["host", "analog"])
def test_counter_identity_holds_and_catches_a_miscounted_row(tiny, attention):
    corpus, compiled = tiny
    engine, records, kv_before = _serve(corpus, compiled, attention)
    assert all(r.ok for r in records if r.measured)
    assert checks.check_counters(engine, records, kv_before) == []
    records[0].tokens.append(0)  # one position more than the layers processed
    problems = checks.check_counters(engine, records, kv_before)
    assert len(problems) == len(engine.hybrid_layers) + (attention == "analog")


def test_redecode_is_exact_on_host_and_fails_on_corrupted_tokens(tiny):
    corpus, compiled = tiny
    _, records, _ = _serve(corpus, compiled, "host")
    match, total, sampled = checks.redecode(compiled, corpus, "host", 0, records, stack_mod.deploy, 4)
    assert sampled == 4
    assert match == total and checks.check_redecode(match, total, exact=True) == []
    for record in records:
        record.tokens = [(t + 1) % 16 for t in record.tokens]
    match, total, _ = checks.redecode(compiled, corpus, "host", 0, records, stack_mod.deploy, 4)
    assert checks.check_redecode(match, total, exact=True)
    assert checks.check_redecode(match, total, exact=False)


def test_redecode_floor_applies_where_exactness_is_not_expected():
    assert checks.check_redecode(9, 10, exact=False) == []
    assert checks.check_redecode(1, 10, exact=False)
    assert checks.check_redecode(0, 0, exact=False)


# ----------------------------------------------------------------------
# The command: metric names, and refusal without the program
# ----------------------------------------------------------------------
def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "e2ebench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


@pytest.mark.parametrize("trace,key", [("0", "end_to_end"), ("1", "per_layer")])
def test_printed_metrics_match_benchmark_json(trace, key):
    out = _run(ROOT, "--workload", "decode_host", "--seed", "0", "--seconds", "1", "--trace", trace)
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    declared = {m["name"]: m["unit"] for m in SPEC[key]}
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    assert printed == declared


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns("__pycache__"))
    out = _run(tmp_path, "--workload", "decode_host", "--seed", "0", "--seconds", "1", "--trace", "0")
    assert out.returncode != 0
    assert not out.stdout.strip()
