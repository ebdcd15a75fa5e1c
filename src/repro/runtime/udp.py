"""UDP heartbeat wire protocol and asyncio endpoints.

Wire format (network byte order, 28 bytes)::

    !16s Q d   =  node id (16 bytes, NUL-padded ASCII)
                  sequence number (uint64)
                  sender wall-clock timestamp (float64 seconds)

The timestamp is carried "only for statistics" (Section V): receivers feed
detectors their *local* arrival clock, never the remote stamp, because
clocks are not synchronized (Section II-B).
"""

from __future__ import annotations

import asyncio
import math
import socket
import struct
import time
from typing import TYPE_CHECKING, Callable

from repro.errors import ConfigurationError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.instruments import Instruments

__all__ = [
    "HEARTBEAT_SIZE",
    "pack_heartbeat",
    "unpack_heartbeat",
    "UDPHeartbeatSender",
    "UDPHeartbeatListener",
]

_STRUCT = struct.Struct("!16sQd")
HEARTBEAT_SIZE = _STRUCT.size
_MAX_ID = 16


def pack_heartbeat(node_id: str, seq: int, send_time: float) -> bytes:
    """Encode one heartbeat datagram."""
    raw = node_id.encode("ascii")
    if not raw or len(raw) > _MAX_ID:
        raise ConfigurationError(
            f"node_id must be 1..{_MAX_ID} ASCII bytes, got {node_id!r}"
        )
    if seq < 0:
        raise ConfigurationError(f"seq must be >= 0, got {seq!r}")
    return _STRUCT.pack(raw.ljust(_MAX_ID, b"\x00"), seq, send_time)


def unpack_heartbeat(data: bytes) -> tuple[str, int, float]:
    """Decode a heartbeat datagram; raises on malformed input."""
    if len(data) != HEARTBEAT_SIZE:
        raise ConfigurationError(
            f"datagram must be {HEARTBEAT_SIZE} bytes, got {len(data)}"
        )
    raw_id, seq, send_time = _STRUCT.unpack(data)
    return raw_id.rstrip(b"\x00").decode("ascii"), seq, send_time


class _SenderProtocol(asyncio.DatagramProtocol):
    def __init__(self) -> None:
        self.transport: asyncio.DatagramTransport | None = None
        self.errors = 0

    def connection_made(self, transport) -> None:  # type: ignore[override]
        self.transport = transport

    def error_received(self, exc) -> None:  # type: ignore[override]
        # ICMP unreachable etc.; UDP heartbeats are fire-and-forget, so
        # count it and keep the endpoint open.
        self.errors += 1

    def connection_lost(self, exc) -> None:  # type: ignore[override]
        self.transport = None


class UDPHeartbeatSender:
    """Asyncio heartbeat sender (process ``p``).

    Sends one stamped datagram every ``interval`` seconds to the target
    address until :meth:`stop`.

    Usage::

        sender = UDPHeartbeatSender("node-a", ("127.0.0.1", 9999), interval=0.05)
        await sender.start()
        ...
        await sender.stop()
    """

    def __init__(
        self,
        node_id: str,
        target: tuple[str, int],
        *,
        interval: float = 0.1,
        clock: Callable[[], float] = time.time,
        reopen_backoff_max: float = 2.0,
        instruments: "Instruments | None" = None,
    ):
        if interval <= 0:
            raise ConfigurationError(f"interval must be > 0, got {interval!r}")
        if reopen_backoff_max <= 0:
            raise ConfigurationError(
                f"reopen_backoff_max must be > 0, got {reopen_backoff_max!r}"
            )
        pack_heartbeat(node_id, 0, 0.0)  # validate the id eagerly
        self.node_id = node_id
        self.target = target
        self.interval = float(interval)
        self.clock = clock
        self.sent = 0
        self.send_errors = 0
        self.reopens = 0
        self._reopen_backoff_max = float(reopen_backoff_max)
        self._instruments = instruments
        self._protocol: _SenderProtocol | None = None
        self._task: asyncio.Task | None = None

    async def start(self) -> None:
        loop = asyncio.get_running_loop()
        _, protocol = await loop.create_datagram_endpoint(
            _SenderProtocol, remote_addr=self.target
        )
        self._protocol = protocol
        self._task = asyncio.create_task(self._run(), name=f"hb-send-{self.node_id}")

    def _send_one(self) -> None:
        protocol = self._protocol
        if (
            protocol is None
            or protocol.transport is None
            or protocol.transport.is_closing()
        ):
            raise OSError("heartbeat transport is closed")
        protocol.transport.sendto(
            pack_heartbeat(self.node_id, self.sent, self.clock())
        )
        self.sent += 1
        if self._instruments is not None:
            self._instruments.on_sent(self.node_id)

    async def _reopen(self) -> None:
        """Re-establish the datagram endpoint, backing off exponentially.

        Heartbeats must outlive transient socket failures (the detection
        layer has to survive the faults it observes); give up only on
        cancellation.
        """
        loop = asyncio.get_running_loop()
        delay = self.interval
        while True:
            if self._protocol is not None and self._protocol.transport is not None:
                self._protocol.transport.close()
            self._protocol = None
            try:
                _, protocol = await loop.create_datagram_endpoint(
                    _SenderProtocol, remote_addr=self.target
                )
            except OSError:
                await asyncio.sleep(delay)
                delay = min(2.0 * delay, self._reopen_backoff_max)
                continue
            self._protocol = protocol
            self.reopens += 1
            if self._instruments is not None:
                self._instruments.on_reopen(self.node_id)
            return

    async def _run(self) -> None:
        # Pace against absolute deadlines (start + n*interval): sleeping a
        # fixed interval *after* each send would add the send/loop overhead
        # to every period, drifting the emitted rate away from the Δi the
        # detectors' estimators assume.
        loop = asyncio.get_running_loop()
        start = loop.time()
        ticks = 0
        while True:
            try:
                self._send_one()
            except OSError:
                self.send_errors += 1
                if self._instruments is not None:
                    self._instruments.on_send_error(self.node_id)
                await self._reopen()
            ticks += 1
            deadline = start + ticks * self.interval
            delay = deadline - loop.time()
            if delay > 0:
                await asyncio.sleep(delay)
            elif -delay > self.interval:
                # Fell more than a full period behind (suspended loop or a
                # long reopen): rebase rather than burst-send the backlog.
                start = loop.time() - ticks * self.interval

    async def stop(self) -> None:
        """Crash-stop: cease sending and close the socket."""
        if self._task is not None:
            self._task.cancel()
            try:
                await self._task
            except asyncio.CancelledError:
                pass
            self._task = None
        if self._protocol is not None and self._protocol.transport is not None:
            self._protocol.transport.close()
            self._protocol = None


class UDPHeartbeatListener:
    """Asyncio heartbeat receiver (process ``q``'s socket side).

    The socket is drained in *batches*: each event-loop wakeup performs up
    to ``max_batch`` non-blocking ``recvfrom`` calls and hands every valid
    heartbeat of the drain to ``on_batch`` in one Python call.  At 10k
    monitored nodes that replaces 10k callback dispatches per heartbeat
    interval with a handful of batch calls, and lets the membership layer
    amortize its own per-heartbeat work (see
    :meth:`repro.cluster.sharded.ShardedMembershipTable.heartbeat_batch`).
    Each datagram still gets its own arrival stamp, taken at ``recvfrom``
    time, so detector inter-arrival statistics are unaffected by batching.

    Parameters
    ----------
    on_heartbeat:
        Compatibility callback ``(node_id, seq, sender_stamp,
        local_arrival)`` invoked per valid datagram, on the event loop
        thread.  Internally a shim over the batch path; exceptions are
        counted per datagram in :attr:`callback_errors`, as before.
    on_batch:
        Batch callback ``(list[(node_id, seq, arrival, sender_stamp)])``
        invoked once per socket drain with at least one valid heartbeat —
        tuple order matches the membership ``heartbeat`` signature.
        Exactly one of ``on_heartbeat`` / ``on_batch`` must be given.
        Exceptions are counted once per batch.
    bind:
        Local ``(host, port)``; port 0 picks a free port (see
        :attr:`address` after :meth:`start`).
    clock:
        Local arrival clock (monotonic by default: detector math needs
        steadiness, not wall alignment).
    malformed_limit:
        Maximum malformed datagrams *individually* accounted per second;
        floods beyond it are only bulk-counted (:attr:`malformed_suppressed`).
        Applied at batch granularity: one window check covers the whole
        drain, so a garbage flood costs O(batches), not O(datagrams).
    max_batch:
        Upper bound on datagrams drained per loop wakeup — the fairness
        knob that keeps a heartbeat burst from starving other tasks.
    """

    def __init__(
        self,
        on_heartbeat: Callable[[str, int, float, float], None] | None = None,
        *,
        on_batch: Callable[[list[tuple[str, int, float, float]]], None]
        | None = None,
        bind: tuple[str, int] = ("127.0.0.1", 0),
        clock: Callable[[], float] = time.monotonic,
        malformed_limit: int = 100,
        max_batch: int = 256,
        instruments: "Instruments | None" = None,
    ):
        if malformed_limit < 1:
            raise ConfigurationError(
                f"malformed_limit must be >= 1, got {malformed_limit!r}"
            )
        if max_batch < 1:
            raise ConfigurationError(
                f"max_batch must be >= 1, got {max_batch!r}"
            )
        if (on_heartbeat is None) == (on_batch is None):
            raise ConfigurationError(
                "exactly one of on_heartbeat / on_batch must be provided"
            )
        self._on_heartbeat = on_heartbeat
        self._on_batch = on_batch if on_batch is not None else self._dispatch_each
        self._bind = bind
        self._clock = clock
        self._malformed_limit = int(malformed_limit)
        self._max_batch = int(max_batch)
        self._instruments = instruments
        self._sock: socket.socket | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._window_start = -math.inf
        self._window_count = 0
        self.malformed = 0
        self.malformed_suppressed = 0
        self.callback_errors = 0

    async def start(self) -> None:
        loop = asyncio.get_running_loop()
        sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        try:
            sock.setblocking(False)
            try:
                # Room for a full 10k-node interval in the kernel queue;
                # best effort, the OS clamps to its own maximum.
                sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 1 << 20)
            except OSError:  # pragma: no cover - exotic platforms
                pass
            sock.bind(self._bind)
        except BaseException:
            sock.close()
            raise
        self._sock = sock
        self._loop = loop
        loop.add_reader(sock.fileno(), self._drain)

    def _dispatch_each(self, batch: list[tuple[str, int, float, float]]) -> None:
        """Per-datagram compatibility shim over the batch path."""
        on_heartbeat = self._on_heartbeat
        assert on_heartbeat is not None
        for node_id, seq, arrival, send_time in batch:
            try:
                on_heartbeat(node_id, seq, send_time, arrival)
            except Exception:
                # A faulty consumer must not tear down the ingest path.
                self.callback_errors += 1
                if self._instruments is not None:
                    self._instruments.on_callback_error()

    def _note_malformed_bulk(self, count: int, now: float) -> None:
        # Token-bucket on a 1-second window: a garbage flood must not be
        # able to spin the rejection path (or anything hung off it) at
        # line rate; beyond the limit rejects are counted in bulk only.
        if now - self._window_start >= 1.0:
            self._window_start = now
            self._window_count = 0
        headroom = self._malformed_limit - self._window_count
        accounted = min(count, headroom) if headroom > 0 else 0
        self._window_count += count
        self.malformed += accounted
        self.malformed_suppressed += count - accounted
        if self._instruments is not None:
            self._instruments.on_malformed_batch(accounted, count - accounted)

    def _drain(self) -> None:
        """Reader callback: drain up to ``max_batch`` datagrams, then hand
        the decoded heartbeats to the consumer in one call."""
        sock = self._sock
        if sock is None:  # pragma: no cover - stop() raced the wakeup
            return
        clock = self._clock
        recv = sock.recvfrom
        batch: list[tuple[str, int, float, float]] = []
        bad = 0
        arrival = 0.0
        for _ in range(self._max_batch):
            try:
                data, _addr = recv(2048)
            except (BlockingIOError, InterruptedError):
                break
            except OSError:  # pragma: no cover - socket torn down under us
                break
            arrival = clock()
            try:
                node_id, seq, send_time = unpack_heartbeat(data)
            except ConfigurationError:
                bad += 1
                continue
            batch.append((node_id, seq, arrival, send_time))
        if self._instruments is not None and (batch or bad):
            self._instruments.on_datagrams(len(batch) + bad)
            if batch:
                self._instruments.on_ingest_batch(len(batch))
        if bad:
            self._note_malformed_bulk(bad, arrival)
        if batch:
            try:
                self._on_batch(batch)
            except Exception:
                self.callback_errors += 1
                if self._instruments is not None:
                    self._instruments.on_callback_error()

    @property
    def address(self) -> tuple[str, int]:
        """Bound address (valid after :meth:`start`)."""
        if self._sock is None:
            raise ConfigurationError("listener is not started")
        return self._sock.getsockname()[:2]

    async def stop(self) -> None:
        if self._sock is not None:
            if self._loop is not None:
                self._loop.remove_reader(self._sock.fileno())
            self._sock.close()
            self._sock = None
            self._loop = None
