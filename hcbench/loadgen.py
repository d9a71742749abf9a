"""Open- and closed-loop HTTP load from one process.

The sender keeps every latency as a raw sample (no histogram buckets)
and times each open-loop request from the moment it was *due*, so a
stall also charges the requests queued behind it.  It runs on a
``select()``-based event loop because epoll rounds every timeout up to
a whole millisecond, which would make the generator itself late by up
to 1 ms per arrival; how late it still ran is recorded per arrival.
"""

from __future__ import annotations

import asyncio
import gc
import selectors
import time
from dataclasses import dataclass
from typing import Callable

from inputs import Plan


@dataclass(slots=True)
class Sample:
    """One completed request."""

    plan: Plan
    due: float
    done: float
    status: int
    #: response body, kept only for responses that are checked
    body: bytes | None

    @property
    def latency_ms(self) -> float:
        return (self.done - self.due) * 1e3


class Connection:
    """One keep-alive HTTP/1.1 connection speaking just enough HTTP."""

    def __init__(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
        self.reader = reader
        self.writer = writer

    @classmethod
    async def open(cls, port: int) -> "Connection":
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        return cls(reader, writer)

    async def post(self, path: bytes, body: bytes) -> tuple[int, bytes]:
        self.writer.write(
            b"POST %s HTTP/1.1\r\nHost: bench\r\nContent-Type: application/json\r\n"
            b"Content-Length: %d\r\n\r\n%s" % (path, len(body), body)
        )
        await self.writer.drain()
        status_line = await self.reader.readline()
        if not status_line:
            raise ConnectionError("server closed the connection")
        status = int(status_line.split()[1])
        length = 0
        while True:
            line = await self.reader.readline()
            if line in (b"\r\n", b""):
                break
            name, _, value = line.partition(b":")
            if name.strip().lower() == b"content-length":
                length = int(value)
        return status, await self.reader.readexactly(length)

    async def close(self) -> None:
        self.writer.close()
        try:
            await self.writer.wait_closed()
        except ConnectionError:
            pass


def _keep(plan: Plan) -> bool:
    return plan.check or plan.kind == "verify"


async def _send(conn: Connection, plan: Plan, due: float, samples: list[Sample]) -> None:
    try:
        status, body = await conn.post(plan.path, plan.body)
    except (ConnectionError, asyncio.IncompleteReadError, ValueError, IndexError):
        status, body = 0, b""
    samples.append(Sample(plan, due, time.perf_counter(), status, body if _keep(plan) else None))


async def _open_loop(
    conns: list[Connection], schedule: list[tuple[float, Plan]]
) -> tuple[list[Sample], list[float]]:
    samples: list[Sample] = []
    lateness: list[float] = []
    queue: asyncio.Queue = asyncio.Queue()

    async def dispatch() -> None:
        t0 = time.perf_counter()
        for offset, plan in schedule:
            due = t0 + offset
            delay = due - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            lateness.append(time.perf_counter() - due)
            queue.put_nowait((due, plan))
        for _ in conns:
            queue.put_nowait(None)

    async def worker(conn: Connection) -> None:
        while (job := await queue.get()) is not None:
            due, plan = job
            await _send(conn, plan, due, samples)

    await asyncio.gather(dispatch(), *(worker(c) for c in conns))
    return samples, lateness


async def _closed_loop(conns: list[Connection], batch: list[Plan]) -> tuple[list[Sample], float]:
    samples: list[Sample] = []
    todo = iter(batch)
    start = time.perf_counter()

    async def worker(conn: Connection) -> None:
        for plan in todo:
            await _send(conn, plan, time.perf_counter(), samples)

    await asyncio.gather(*(worker(c) for c in conns))
    return samples, time.perf_counter() - start


def _run(coro_fn, *args):
    loop = asyncio.SelectorEventLoop(selectors.SelectSelector())
    try:
        return loop.run_until_complete(coro_fn(*args))
    finally:
        loop.close()


@dataclass(slots=True)
class LoadResult:
    open_samples: list[Sample]
    #: seconds late, per open-loop arrival
    lateness_s: list[float]
    closed_samples: list[Sample]
    #: wall time of each closed-loop group
    group_walls_s: list[float]

    @property
    def samples(self) -> list[Sample]:
        return self.open_samples + self.closed_samples


def drive(
    port: int,
    connections: int,
    schedule: list[tuple[float, Plan]],
    groups: list[list[Plan]],
    between: Callable[[], None] = lambda: None,
) -> LoadResult:
    """Run the open loop ``schedule``, then the closed-loop ``groups`` in
    turn, calling ``between()`` after each group while no request is out.

    The client's garbage collector is off while load runs, so its pauses
    do not show up as generator lateness.
    """

    async def main() -> LoadResult:
        conns = [await Connection.open(port) for _ in range(connections)]
        try:
            samples, lateness = await _open_loop(conns, schedule)
            out = LoadResult(samples, lateness, [], [])
            for group in groups:
                samples, wall = await _closed_loop(conns, group)
                out.closed_samples += samples
                out.group_walls_s.append(wall)
                between()
        finally:
            for c in conns:
                await c.close()
        return out

    gc.disable()
    try:
        return _run(main)
    finally:
        gc.enable()
