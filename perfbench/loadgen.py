"""Open-loop HTTP load generator: seeded Poisson arrivals, per-request timing.

One single-threaded asyncio process drives at most ``os.cpu_count()``
keep-alive connections. Requests are sent when they fall due, whatever
the server is doing (an open loop: independent headsets do not wait for
each other), pipelined on the connections round-robin. Each request is
timed from its *due* time to the last byte of its response, so a server
stall is charged to every request queued behind it, and the generator's
own lateness (sent minus due) is reported so a run whose generator could
not keep its schedule can be marked invalid.

Every response is checked: status 200, ``X-Checksum`` equal to the index
entry's checksum, and the body byte-equal to the stored segment. Anything
else — a refusal, a wrong body, a response that never came — is a
failure, and a failure counts as missing the latency limit.
"""

from __future__ import annotations

import asyncio
import math
import random
import socket
from array import array
from collections import deque
from dataclasses import dataclass, field

#: Grace after the last send for responses still in flight. A request
#: unanswered by then has failed.
DRAIN_SECONDS = 10.0

#: Below this gap to the next due time the sender polls the loop rather
#: than sleeping.
SPIN_SECONDS = 0.0006


@dataclass
class Target:
    """What the generator may ask for, and what each answer must be."""

    paths: list[str]
    bodies: list[bytes]
    checksums: list[str]  # index-entry checksum, wire (hex) form
    keys: list = field(default_factory=list)  # the segment key of each path

    def __post_init__(self) -> None:
        self.requests = [
            f"GET {path} HTTP/1.1\r\nHost: bench\r\n\r\n".encode("ascii")
            for path in self.paths
        ]
        self.checksum_bytes = [value.encode("ascii") for value in self.checksums]

    def matches(self, path: int, head: bytes, body: bytes) -> bool:
        """A 200 whose ``X-Checksum`` is the index entry's and whose body
        is the stored segment."""
        at = head.find(b"X-Checksum: ")
        return (
            head.startswith(b"HTTP/1.1 200")
            and at >= 0
            and head[at + 12 : at + 20] == self.checksum_bytes[path]
            and body == self.bodies[path]
        )


def poisson_schedule(rate: float, seconds: float, rng: random.Random) -> array:
    """Due times (seconds from the start) of a Poisson process."""
    due = array("d")
    now = rng.expovariate(rate)
    while now < seconds:
        due.append(now)
        now += rng.expovariate(rate)
    return due


def zipf_chooser(count: int, exponent: float, rng: random.Random):
    """A sampler of indices ``0..count-1`` with Zipf(exponent) popularity
    over a seeded shuffle (so the hot paths differ from seed to seed)."""
    order = list(range(count))
    rng.shuffle(order)
    weights = [1.0 / (rank + 1) ** exponent for rank in range(count)]

    def choose(k: int) -> list[int]:
        return rng.choices(order, weights=weights, k=k)

    return choose


def uniform_chooser(count: int, rng: random.Random):
    def choose(k: int) -> list[int]:
        return [rng.randrange(count) for _ in range(k)]

    return choose


class _Connection(asyncio.Protocol):
    """One keep-alive connection: a FIFO of outstanding request ids and
    an incremental HTTP/1.1 response parser."""

    def __init__(self, run: "_Run") -> None:
        self.run = run
        self.transport: asyncio.Transport | None = None
        self.outstanding: deque[int] = deque()
        self.buffer = b""
        self.head: bytes | None = None
        self.length = 0
        self.closed = asyncio.get_running_loop().create_future()

    def connection_made(self, transport) -> None:
        self.transport = transport

    def connection_lost(self, exc) -> None:
        if not self.closed.done():
            self.closed.set_result(None)

    def data_received(self, data: bytes) -> None:
        buffer = self.buffer + data if self.buffer else data
        offset = 0
        run = self.run
        now = run.loop.time() - run.origin
        while True:
            if self.head is None:
                end = buffer.find(b"\r\n\r\n", offset)
                if end < 0:
                    break
                self.head = buffer[offset:end]
                at = self.head.find(b"Content-Length: ")
                self.length = (
                    int(self.head[at + 16 : self.head.index(b"\r\n", at)])
                    if at >= 0
                    else 0
                )
                offset = end + 4
            if len(buffer) - offset < self.length:
                break
            body = buffer[offset : offset + self.length]
            offset += self.length
            head, self.head = self.head, None
            if not self.outstanding:
                run.failed += 1  # a response nobody asked for
                continue
            run.complete(self.outstanding.popleft(), head, body, now)
        self.buffer = buffer[offset:] if offset < len(buffer) else b""


class _Run:
    """The state of one open-loop pass: schedule, choices and timings."""

    def __init__(self, loop, target: Target, due: array, choice: list[int]) -> None:
        self.loop = loop
        self.target = target
        self.due = due
        self.choice = choice
        self.origin = 0.0
        count = len(due)
        self.sent = array("d", bytes(8 * count))
        self.done = array("d", [math.nan]) * count
        self.failed = 0
        self.completed = 0
        self.all_done = loop.create_future()

    def complete(self, index: int, head: bytes, body: bytes, now: float) -> None:
        if self.target.matches(self.choice[index], head, body):
            self.done[index] = now
        else:
            self.failed += 1
        self.completed += 1
        if self.completed == len(self.due) and not self.all_done.done():
            self.all_done.set_result(None)


@dataclass
class PassResult:
    """One open-loop pass at one rate."""

    rate: float
    seconds: float
    attempted: int
    failed: int  # non-200, wrong checksum/body, or never answered
    wrong: int  # answered, but not a 200 with the stored bytes
    latencies_ms: list[float]  # per request, due → last byte; failures excluded
    late_ms: list[float]  # per request, due → sent
    backlog_at_end: int  # requests unanswered when the last one was sent

    def quantile(self, q: float) -> float:
        """Latency quantile with failures counted as infinitely late."""
        values = sorted(self.latencies_ms) + [math.inf] * self.failed
        if not values:
            return math.inf
        return values[min(len(values) - 1, int(q * len(values)))]


async def run_pass(
    host: str,
    port: int,
    target: Target,
    due: array,
    choice: list[int],
    connections: int,
    rate: float,
    seconds: float,
) -> PassResult:
    """Send ``due``/``choice`` open-loop over ``connections`` keep-alive
    connections and time every response."""
    loop = asyncio.get_running_loop()
    run = _Run(loop, target, due, choice)
    conns: list[_Connection] = []
    try:
        for _ in range(connections):
            _, protocol = await loop.create_connection(
                lambda: _Connection(run), host, port
            )
            conns.append(protocol)
        requests = target.requests
        count = len(due)
        backlog_at_end = 0
        run.origin = loop.time()
        index = 0
        turn = 0
        width = len(conns)
        batches: list[list[bytes]] = [[] for _ in conns]
        while index < count:
            now = loop.time() - run.origin
            next_due = due[index]
            if next_due > now:
                # The selector sleeps in whole milliseconds; within the
                # last one, poll instead so sends go out on time and
                # responses are read as they land.
                wait = next_due - now
                await asyncio.sleep(wait - SPIN_SECONDS if wait > 2 * SPIN_SECONDS else 0)
                continue
            while index < count and due[index] <= now:
                slot = turn % width
                turn += 1
                conns[slot].outstanding.append(index)
                batches[slot].append(requests[choice[index]])
                run.sent[index] = now
                index += 1
            for slot, batch in enumerate(batches):
                if batch:
                    conns[slot].transport.write(b"".join(batch))
                    batch.clear()
        backlog_at_end = count - run.completed
        if count:
            try:
                await asyncio.wait_for(asyncio.shield(run.all_done), DRAIN_SECONDS)
            except asyncio.TimeoutError:
                pass
    finally:
        for conn in conns:
            if conn.transport is not None:
                conn.transport.close()
        for conn in conns:
            try:
                await asyncio.wait_for(conn.closed, 1.0)
            except asyncio.TimeoutError:
                pass
    latencies = []
    late = []
    for index in range(len(due)):
        late.append((run.sent[index] - due[index]) * 1e3)
        done = run.done[index]
        if not math.isnan(done):
            latencies.append((done - due[index]) * 1e3)
    never = len(due) - run.completed
    return PassResult(
        rate=rate,
        seconds=seconds,
        attempted=len(due),
        failed=run.failed + never,
        wrong=run.failed,
        latencies_ms=latencies,
        late_ms=late,
        backlog_at_end=backlog_at_end,
    )


def closed_loop(
    host: str, port: int, target: Target, choice: list[int], seconds: float
) -> tuple[int, int]:
    """One request at a time on one keep-alive connection for ``seconds``
    (at least one request); returns ``(completed, wrong)``, each response
    checked as in the open loop."""
    from time import perf_counter

    completed = wrong = 0
    buffer = b""
    with socket.create_connection((host, port)) as sock:
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        deadline = perf_counter() + seconds
        while completed == 0 or perf_counter() < deadline:
            path = choice[completed % len(choice)]
            sock.sendall(target.requests[path])
            while b"\r\n\r\n" not in buffer:
                chunk = sock.recv(65536)
                if not chunk:
                    raise ConnectionError("server closed the connection")
                buffer += chunk
            head, _, buffer = buffer.partition(b"\r\n\r\n")
            at = head.find(b"Content-Length: ")
            length = int(head[at + 16 : head.index(b"\r\n", at)]) if at >= 0 else 0
            while len(buffer) < length:
                chunk = sock.recv(65536)
                if not chunk:
                    raise ConnectionError("server closed the connection")
                buffer += chunk
            body, buffer = buffer[:length], buffer[length:]
            if not target.matches(path, head, body):
                wrong += 1
            completed += 1
    return completed, wrong


def percentile_report(values: list[float], failed: int = 0) -> dict:
    """Median and the highest of p90/p99/p99.9 that has at least ten
    samples beyond it, with n. Failures count as infinitely late."""
    ordered = sorted(values) + [math.inf] * failed
    n = len(ordered)
    report: dict = {"n": n}
    if not n:
        return report
    report["p50"] = ordered[n // 2]
    for name, q in (("p90", 0.9), ("p99", 0.99), ("p99.9", 0.999)):
        if n * (1.0 - q) >= 10:
            report[name] = ordered[min(n - 1, int(q * n))]
    return report
