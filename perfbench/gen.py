"""Open-loop heartbeat generator for the loopback workloads.

Runs as its own single-threaded process with one UDP socket, so the
monitor under test cannot slow it down.  Usage::

    python3 gen.py SCHEDULE HOST PORT

``SCHEDULE`` holds ``<u64 count><u64 datagram size>``, then ``count``
float64 send offsets in seconds (non-decreasing), then the ``count``
pre-packed datagrams back to back.  The generator prints ``ready`` once
the schedule is loaded, then reads one line from stdin: the
``time.monotonic()`` instant of offset 0 (an empty line or end of input
cancels the run).  Each datagram goes out as soon as its offset is due,
never earlier, and never waits for the receiver; the generator spins
through the last two milliseconds before each send, so it keeps one core
busy while it runs.  At the end one JSON
line reports the count sent, send errors, and how late the sends ran.
Stdlib only, so start-up stays short.
"""

from __future__ import annotations

import json
import socket
import struct
import sys
import time
from array import array

_HEADER = struct.Struct("<QQ")
#: The last stretch before a send is spun, not slept: waking from a sleep
#: can overshoot by milliseconds, spinning by tens of microseconds.
SPIN_S = 0.002


def _quantile(ordered: list[float], q: float) -> float:
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))] if ordered else 0.0


def main(argv: list[str]) -> int:
    path, host, port = argv[1], argv[2], int(argv[3])
    with open(path, "rb") as fh:
        blob = fh.read()
    count, size = _HEADER.unpack_from(blob)
    due = array("d")
    due.frombytes(blob[_HEADER.size : _HEADER.size + 8 * count])
    body = _HEADER.size + 8 * count
    datagrams = [blob[body + i * size : body + (i + 1) * size] for i in range(count)]
    with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as sock:
        sock.connect((host, port))
        print("ready", flush=True)
        line = sys.stdin.readline().strip()
        if not line:
            return 0
        t0 = float(line)
        late = array("d", bytes(8 * count))
        errors = 0
        clock = time.monotonic
        sleep = time.sleep
        send = sock.send
        i = 0
        while i < count:
            target = t0 + due[i]
            now = clock()
            if now < target:
                if target - now > SPIN_S:
                    sleep(target - now - SPIN_S)
                continue
            try:
                send(datagrams[i])
            except OSError:
                errors += 1
            late[i] = now - target
            i += 1
    ordered = sorted(late)
    print(
        json.dumps(
            {
                "sent": count - errors,
                "errors": errors,
                "late_p50_ms": _quantile(ordered, 0.5) * 1e3,
                "late_p99_ms": _quantile(ordered, 0.99) * 1e3,
                "late_max_ms": (ordered[-1] if ordered else 0.0) * 1e3,
            }
        ),
        flush=True,
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
