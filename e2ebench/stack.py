"""Set-up of the served system: corpus, training, compile, deploy, warm-up.

One call of :func:`build_stack` does what a user of the library does before
the first request: it generates the seeded Markov corpus, trains a small
``DecoderLM`` on it (the stand-in for loading a checkpoint), runs the
gradient-redistribution compile (``HyFlexPim.compile``), deploys the result
with ``ServingEngine.deploy(mode="crossbar")`` under the library defaults
(calibrated noise, default kernel policy, default backend), starts the HTTP
front end when the workload goes through it, and warms the engine up.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.core import HyFlexPim
from repro.datasets.synthetic_lm import LMCorpusSpec, MarkovCorpus, make_lm_corpus
from repro.exp.builders import train_decoder_lm
from repro.rram.kernels import KernelPolicy
from repro.serve import ServingEngine
from repro.serve.api import ApiServer

#: Corpus: 64-token vocabulary, sequences as long as the model's context.
CORPUS = LMCorpusSpec(
    name="e2ebench", vocab_size=64, seq_len=48, train_sequences=192,
    test_sequences=16, branching=6,
)
#: Served model: 4 blocks x 6 static linears = 24 ``HybridLinear`` layers.
MODEL = dict(num_layers=4, d_model=64, num_heads=4, d_ff=128)
TRAIN_EPOCHS = 3
#: Sequences the compile step fine-tunes and selects ranks on.
COMPILE_SEQUENCES = 64
PROTECT_FRACTION = 0.2
#: Cache rows of the continuous scheduler (the decode workloads fill all).
MAX_BATCH = 16
#: Calibration prompts pushed through the deployed model at deploy time.
CALIBRATION_PROMPTS = (4, 16)


@dataclass
class Stack:
    """Everything one workload serves from, plus its set-up timings."""

    corpus: MarkovCorpus
    compiled: object
    engine: ServingEngine
    server: ApiServer | None
    timings: dict = field(default_factory=dict)

    def close(self) -> None:
        """Stop the HTTP front end (if any) and wait for its threads."""
        if self.server is not None:
            self.server.stop_in_thread()
            self.server = None


def deploy(compiled, corpus: MarkovCorpus, attention: str, seed: int,
           policy: KernelPolicy | None = None) -> ServingEngine:
    """``ServingEngine.deploy`` in crossbar mode with the library defaults.

    ``policy=None`` keeps the process-wide default kernel, so a change of
    that default shows in every workload.  Calibration prompts are held-out
    corpus sequence prefixes.
    """
    rows, length = CALIBRATION_PROMPTS
    return ServingEngine.deploy(
        compiled.model,
        compiled.plan.layers,
        calibration_prompts=corpus.test.inputs[:rows, :length],
        mode="crossbar",
        seed=seed,
        policy=policy,
        attention=attention,
        max_batch_size=MAX_BATCH,
    )


def build_stack(attention: str, api: bool, seed: int, warmup) -> Stack:
    """Run the whole set-up once; ``warmup(stack)`` drives the warm-up traffic.

    Layer counters are reset after the warm-up.
    """
    timings = {}
    started = time.perf_counter()
    corpus = make_lm_corpus(CORPUS, seed=seed)
    model = train_decoder_lm(
        corpus, epochs=TRAIN_EPOCHS, batch_size=16, seed=seed,
        compute_dtype="float32", **MODEL,
    )
    timings["train_s"] = time.perf_counter() - started
    mark = time.perf_counter()
    hfp = HyFlexPim(
        protect_fraction=PROTECT_FRACTION, epochs=1, batch_size=16,
        learning_rate=2e-3, train_dtype="float32", seed=seed,
    )
    compile_set = corpus.train.subset(np.arange(COMPILE_SEQUENCES))
    compiled = hfp.compile(model, compile_set, task_type="lm")
    timings["compile_s"] = time.perf_counter() - mark
    mark = time.perf_counter()
    engine = deploy(compiled, corpus, attention, seed)
    timings["deploy_s"] = time.perf_counter() - mark
    server = None
    if api:
        server = ApiServer(engine)
        server.start_in_thread()
    stack = Stack(corpus, compiled, engine, server, timings)
    mark = time.perf_counter()
    warmup(stack)
    for layer in engine.hybrid_layers.values():
        layer.reset_stats()
    timings["warmup_s"] = time.perf_counter() - mark
    timings["setup_s"] = time.perf_counter() - started
    return stack
