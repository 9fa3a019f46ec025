"""Seeded request streams and the two closed-loop drivers.

Both drivers are single-threaded closed loops: the next request is sent only
when an earlier one has finished, so every run sees the same sequence of
batch compositions for a seed and only machine speed varies.  A run works in
whole *rounds* of requests, so the share of failed operations is the same in
every run, however long it lasts.
"""

from __future__ import annotations

import json
import socket
import time
from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class Traffic:
    """Shape of one workload's requests."""

    streams: int  # requests in flight (closed loop)
    prompt_len: tuple[int, int]  # inclusive range
    new_tokens: tuple[int, int]  # inclusive range
    round_size: int  # operations per round
    malformed_per_round: int = 0  # API only: requests with a bad Content-Length


@dataclass
class Record:
    """One attempted operation and what the client saw of it."""

    prompt: np.ndarray
    max_new_tokens: int
    malformed: bool = False
    sent_at: float = 0.0
    token_times: list[float] = field(default_factory=list)
    tokens: list[int] = field(default_factory=list)
    done_at: float = 0.0
    done: bool = False  # the program answered (successfully or not)
    ok: bool = False
    engine_ttft_s: float | None = None  # engine's own TTFT (API summary)
    queued_s: float | None = None
    measured: bool = True  # False for requests that only keep the load on

    @property
    def positions(self) -> int:
        """Positions this request pushed through every layer (prompt + fed tokens)."""
        return int(self.prompt.size) + len(self.tokens) - 1 if self.tokens else 0


class RequestStream:
    """Deterministic request sequence of a workload for one seed.

    Prompts are walks of the corpus's own Markov chain, so the served model
    sees in-distribution text.  Every round carries the same lengths, spread
    evenly over the workload's ranges; the seed sets their order and the
    prompt text.  So a round is the same amount of work whatever the seed.
    """

    def __init__(self, traffic: Traffic, transition: np.ndarray, seed: int, tag: int) -> None:
        self.traffic = traffic
        self.cumulative = transition.cumsum(axis=1)
        self.rng = np.random.default_rng((seed, tag))
        self.count = 0
        self._round: list[tuple[int, int]] = []

    def _lengths(self, span: tuple[int, int], n: int) -> np.ndarray:
        grid = np.rint(np.linspace(span[0], span[1], n)).astype(int)
        return self.rng.permutation(grid)

    def next(self) -> Record:
        """The next request of the stream (malformed ones at the end of each round)."""
        traffic = self.traffic
        good = traffic.round_size - traffic.malformed_per_round
        if self.count % traffic.round_size == 0:
            pairs = zip(self._lengths(traffic.prompt_len, good), self._lengths(traffic.new_tokens, good))
            self._round = [(int(p), int(n)) for p, n in pairs]
        slot = self.count % traffic.round_size
        malformed = slot >= good
        length, new = self._round[0 if malformed else slot]
        vocab = self.cumulative.shape[0]
        prompt = np.empty(length, dtype=np.int64)
        prompt[0] = self.rng.integers(0, vocab)
        for i in range(1, length):
            nxt = int((self.cumulative[prompt[i - 1]] < self.rng.random()).sum())
            prompt[i] = min(nxt, vocab - 1)
        record = Record(prompt, new, malformed=malformed)
        self.count += 1
        return record


def run_engine_loop(engine, stream: RequestStream, seconds: float | None,
                    rounds: int | None = None) -> tuple[list[Record], float]:
    """Closed loop in-process: keep ``streams`` requests in flight.

    Streams open one per engine step; a retired request is replaced by the
    next one.  Requests are *measured* until the time is up (or ``rounds``
    rounds were submitted) at a round boundary.  Unmeasured requests keep
    the load on until every measured one has finished; then the loop
    returns, leaving those still in flight to the caller
    (``engine.run_until_idle()`` finishes them).  Returns the records in
    submission order and the wall time of the phase.
    """
    traffic = stream.traffic
    by_id: dict[int, Record] = {}
    records: list[Record] = []
    limit = None if rounds is None else rounds * traffic.round_size
    measuring = True
    pending = 0  # measured requests not finished yet

    def on_token(request_id: int, token: int) -> None:
        record = by_id[request_id]
        record.token_times.append(time.perf_counter())
        record.tokens.append(int(token))

    def submit() -> None:
        nonlocal pending
        record = stream.next()
        record.measured = measuring
        pending += measuring
        record.sent_at = time.perf_counter()
        by_id[engine.submit(record.prompt, record.max_new_tokens, on_token=on_token)] = record
        records.append(record)

    started = time.perf_counter()
    deadline = None if seconds is None else started + seconds

    def stop_measuring() -> bool:
        if len(records) % traffic.round_size:
            return False
        if limit is not None:
            return len(records) >= limit
        return time.perf_counter() >= deadline

    submit()
    while measuring or pending:
        for result in engine.step(force=True):
            record = by_id.pop(result.request_id)
            record.done = True
            record.done_at = record.token_times[-1] if record.token_times else time.perf_counter()
            record.queued_s = result.queued_s
            record.ok = len(record.tokens) == record.max_new_tokens
            pending -= record.measured
            measuring = measuring and not stop_measuring()
            if measuring or pending:
                submit()
        # Ramp up one stream per step, so the streams start (and retire)
        # staggered instead of in one synchronized prefill burst.
        if len(records) < traffic.streams and measuring:
            submit()
    return records, time.perf_counter() - started


def _request_bytes(record: Record, port: int) -> bytes:
    body = json.dumps({
        "prompt": [int(t) for t in record.prompt],
        "max_new_tokens": record.max_new_tokens,
        "stream": True,
    }).encode()
    # A malformed request carries a non-numeric Content-Length; its correct
    # outcome is HTTP 400.
    length = "twelve" if record.malformed else str(len(body))
    head = (
        f"POST /v1/generate HTTP/1.1\r\nHost: 127.0.0.1:{port}\r\n"
        f"Content-Type: application/json\r\nContent-Length: {length}\r\n"
        f"Connection: close\r\n\r\n"
    )
    return head.encode() + body


def api_call(record: Record, port: int, timeout_s: float = 30.0) -> None:
    """Send one request over one connection; time every SSE event on arrival."""
    status = None
    buffer = b""
    with socket.create_connection(("127.0.0.1", port), timeout=timeout_s) as sock:
        record.sent_at = time.perf_counter()
        sock.sendall(_request_bytes(record, port))
        while True:
            try:
                chunk = sock.recv(65536)
            except ConnectionResetError:
                break
            if not chunk:
                break
            buffer += chunk
            if status is None:
                head, sep, rest = buffer.partition(b"\r\n\r\n")
                if not sep:
                    continue
                status = int(head.split()[1])
                buffer = rest
            if status != 200:
                continue
            while b"\n\n" in buffer:
                event, _, buffer = buffer.partition(b"\n\n")
                if not event.startswith(b"data: "):
                    continue
                data = json.loads(event[len(b"data: "):])
                if "token" in data:
                    record.token_times.append(time.perf_counter())
                    record.tokens.append(int(data["token"]))
                elif data.get("done"):
                    record.engine_ttft_s = float(data["ttft_s"])
                    record.queued_s = float(data["queued_s"])
    record.done = True
    record.done_at = record.token_times[-1] if record.token_times else time.perf_counter()
    if record.malformed:
        record.ok = status == 400
    else:
        record.ok = status == 200 and len(record.tokens) == record.max_new_tokens


def run_api_loop(port: int, stream: RequestStream, seconds: float | None,
                 rounds: int | None = None) -> tuple[list[Record], float]:
    """One client sends requests one after another until the time is up.

    Stops on a round boundary, so every run attempts whole rounds.
    """
    traffic = stream.traffic
    records: list[Record] = []
    started = time.perf_counter()
    while True:
        if len(records) % traffic.round_size == 0:
            if rounds is not None and len(records) >= rounds * traffic.round_size:
                break
            if rounds is None and time.perf_counter() - started >= seconds:
                break
        record = stream.next()
        api_call(record, port)
        records.append(record)
    return records, time.perf_counter() - started
