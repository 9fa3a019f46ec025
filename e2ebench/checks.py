"""Output checks computed apart from the serving path.

(a) corpus plausibility against the generator's own transition matrix,
(b) counter identities that follow from the method, and
(c) a one-request-at-a-time re-decode on a fresh reference-kernel deploy.
Each check returns a list of problems; an empty list means it passed.
"""

from __future__ import annotations

import numpy as np

from repro.nn.tensor import no_grad
from repro.rram.cell import SLC
from repro.rram.kernels import KernelPolicy

#: A successor counts as preferred when the chain gives it more than this
#: probability (about five successors per state; random tokens score ~0.09).
PREFERRED_P = 0.01
#: Share of emitted tokens that must follow a preferred transition (measured
#: 0.56-0.95 per seed while building the benchmark; random tokens score ~0.09).
PLAUSIBILITY_FLOOR = 0.4
#: Token agreement the re-decode must reach where it need not be exact
#: (analog attention: KV writes draw programming noise in write order, which
#: batching changes; 0.28-0.92 per run while building the benchmark, against
#: about 0.02 for tokens shifted by one).
REDECODE_FLOOR = 0.2
#: Bits of the crossbar activation and weight codes.
CODE_BITS = 8


def served(records) -> list:
    """Records of operations that reached the engine and completed."""
    return [r for r in records if r.ok and not r.malformed]


def plausibility(records, transition: np.ndarray) -> float:
    """Share of emitted tokens that are a preferred successor of the previous one."""
    hits = total = 0
    for record in served(records):
        previous = int(record.prompt[-1])
        for token in record.tokens:
            hits += transition[previous, token] > PREFERRED_P
            total += 1
            previous = token
    return hits / total if total else 0.0


def check_plausibility(records, transition: np.ndarray) -> list[str]:
    """(a): the emitted text must look like the corpus chain."""
    score = plausibility(records, transition)
    if score < PLAUSIBILITY_FLOOR:
        return [f"plausibility {score:.3f} below floor {PLAUSIBILITY_FLOOR}"]
    return []


def conversions_per_row(layer) -> int:
    """ADC conversions one input row costs a ``HybridLinear`` (both stages).

    Each of the four SLC/MLC matrices converts every output column slice of
    every row tile once per input bit.
    """
    rows = layer.config.rows
    protected = int(layer.plan.protected_ranks.sum())
    total = 0
    for cell, ranks in ((SLC, protected), (layer.mlc_cell, layer.rank - protected)):
        if ranks == 0:
            continue
        slices = -(-CODE_BITS // cell.bits)
        total += -(-layer.in_features // rows) * ranks * slices  # stage 1: x @ A^T
        total += -(-ranks // rows) * layer.out_features * slices  # stage 2: h @ B^T
    return total * CODE_BITS


def check_counters(engine, records, kv_tokens_before: int | None) -> list[str]:
    """(b): every served position crosses each layer once, and is KV-written once.

    Layer counters must have been reset right before the records' phase; the
    records include requests still in flight.
    """
    positions = sum(r.positions for r in records)
    problems = []
    for name, layer in engine.hybrid_layers.items():
        conversions = layer.merged_stats().adc_conversions
        per_row = conversions_per_row(layer)
        if conversions != positions * per_row:
            problems.append(
                f"{name}: {conversions} ADC conversions = {conversions / per_row:.2f} rows, "
                f"expected {positions}"
            )
    if kv_tokens_before is not None:
        written = engine.attention_executor.kv_tokens_written - kv_tokens_before
        if written != positions:
            problems.append(f"kv_tokens_written {written}, expected {positions}")
    return problems


def redecode(compiled, corpus, attention: str, seed: int, records, deploy,
             sample: int) -> tuple[int, int, int]:
    """(c): re-decode the first ``sample`` requests served, one at a time.

    Each runs alone on a fresh ``KernelPolicy(mode="reference")`` deploy, the
    way it was served (prefill, then one token per forward), with its served
    tokens fed back (teacher forcing); each next-token choice is compared
    with the served one.  Feeding the served tokens keeps one noise-flipped
    token on the analog path from sending the rest of a free-running
    re-decode elsewhere.  Returns (matching tokens, compared tokens,
    sampled requests).
    """
    model = deploy(compiled, corpus, attention, seed, policy=KernelPolicy(mode="reference")).model
    match = total = 0
    picked = served(records)[:sample]
    for record in picked:
        tokens = np.asarray(record.tokens)
        cache = model.new_cache(1)
        with no_grad():
            logits = model.prefill(record.prompt, cache)
            chosen = [model.select_tokens(logits, None)[0]]
            for token in tokens[:-1]:
                logits = model.forward(np.array([[token]]), cache=cache).data[:, -1]
                chosen.append(model.select_tokens(logits, None)[0])
        match += int((np.asarray(chosen) == tokens).sum())
        total += tokens.size
    return match, total, len(picked)


def check_redecode(match: int, total: int, exact: bool) -> list[str]:
    """Agreement must be exact when serving is bitwise-equal to the reference."""
    if total == 0:
        return ["no request to re-decode"]
    agreement = match / total
    if exact and match != total:
        return [f"re-decode differs: {match}/{total} tokens agree, exact expected"]
    if agreement < REDECODE_FLOOR:
        return [f"re-decode agreement {agreement:.3f} below floor {REDECODE_FLOOR}"]
    return []
