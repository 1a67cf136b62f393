"""The serving child process and the closed-loop HTTP load generator.

The server runs in its own process, so the load generator and the
server never share an interpreter lock.  The parent drives it with
JSON-line commands over the child's stdin and stdout; every command
that touches the serving stack runs *in the child*, against the live
surface, so in-process timings there are the same calls the HTTP
handlers make.
"""

from __future__ import annotations

import http.client
import itertools
import json
import os
import select
import socket
import subprocess
import sys
import threading
import time
import traceback
from pathlib import Path
from urllib.parse import urlparse

#: seconds the parent waits for one child command before giving up
REPLY_TIMEOUT = 150.0
#: closed-loop callers: at most one per core, and at most two
CLIENTS = min(2, os.cpu_count() or 1)


# --------------------------------------------------------------------- #
# Child side
# --------------------------------------------------------------------- #
class _Serving:
    """State of the serving process: at most one live server."""

    def __init__(self) -> None:
        self.server = None
        self.cluster = None
        self.surface = None

    def boot(self, kind: str, path: str) -> dict:
        """Load the artifact and start serving it; returns the URL and
        the artifact load time."""
        # imported here: the child process puts ``src`` on sys.path in
        # its ``__main__`` block, after this module's top level ran
        from repro.core.solver import PreprocessedSSSP
        from repro.serve.artifacts import load_artifact, load_sharded_artifact
        from repro.serve.cluster import ShardCluster
        from repro.serve.http import RoutingHTTPServer
        from repro.serve.service import RoutingService

        t0 = time.perf_counter()
        if kind == "service":
            pre = load_artifact(path)
            load_s = time.perf_counter() - t0
            self.surface = RoutingService(solver=PreprocessedSSSP.from_preprocessed(pre))
            self.server = RoutingHTTPServer(self.surface).start()
            url = self.server.url
        else:
            sharded = load_sharded_artifact(path)
            load_s = time.perf_counter() - t0
            self.cluster = ShardCluster(sharded)
            self.surface = self.cluster.router
            url = self.cluster.url
        return {"url": url, "load_s": load_s}

    def warm(self, sources: list) -> dict:
        self.surface.warm(sources)
        return {}

    def close(self) -> dict:
        """Shut the server down; returns how long that took."""
        t0 = time.perf_counter()
        if self.cluster is not None:
            self.cluster.close()
        elif self.server is not None:
            self.server.close()
        self.server = self.cluster = self.surface = None
        return {"close_s": time.perf_counter() - t0}

    def time_calls(self, calls: list) -> dict:
        """Median seconds of in-process surface calls, one per
        ``[kind, source, arg]`` entry (each called once untimed first,
        so its row is cached)."""
        from layers import PROBE_REPS, median

        out = {}
        for kind, s, arg in calls:
            fn = {
                "route": lambda: self.surface.route(s, arg),
                "nearest": lambda: self.surface.nearest(s, arg),
                "distances": lambda: self.surface.distances(s),
            }[kind]
            fn()
            times = []
            for _ in range(PROBE_REPS):
                t0 = time.perf_counter()
                fn()
                times.append(time.perf_counter() - t0)
            out[kind] = median(times)
        return out

    def trace_router(self, sources: list, targets: list) -> dict:
        """Traced ``ShardRouter.distances`` on new sources (warm shard
        caches), then ``route`` from each now-cached stitched row."""
        from layers import median, self_ms, traced

        stitch, source_row, overlay, fold, route = [], [], [], [], []
        for s in sources:
            _, trace = traced("bench.router.distances", self.surface.distances, s)
            stitch.append(trace.duration * 1e3)
            source_row.append(self_ms(trace, "router.source_row"))
            overlay.append(self_ms(trace, "router.overlay_solve"))
            fold.append(self_ms(trace, "router.fold_shard"))
        for s, t in zip(sources, targets):
            _, trace = traced("bench.router.route", self.surface.route, s, t)
            route.append(trace.duration * 1e3)
        return {
            "router.restitch_ms": median(stitch),
            "router.source_row_ms": median(source_row),
            "router.overlay_solve_ms": median(overlay),
            "router.fold_shard_ms": median(fold),
            "router.route_hot_ms": median(route),
        }


def child_main(commands, replies) -> None:
    """Answer JSON-line commands until ``exit`` or end of input."""
    state = _Serving()
    try:
        for line in commands:
            msg = json.loads(line)
            op = msg.pop("op")
            if op == "exit":
                break
            try:
                reply = getattr(state, op)(**msg)
            except Exception:  # reported to the parent, which fails the run
                reply = {"error": traceback.format_exc()}
            replies.write(json.dumps(reply) + "\n")
            replies.flush()
    finally:
        state.close()


# --------------------------------------------------------------------- #
# Parent side
# --------------------------------------------------------------------- #
class ServerProcess:
    """Handle on the serving child: RPC, peak memory, and shutdown."""

    def __init__(self) -> None:
        self._proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve())],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )

    def call(self, op: str, **kwargs) -> dict:
        self._proc.stdin.write(json.dumps({"op": op, **kwargs}) + "\n")
        self._proc.stdin.flush()
        ready, _, _ = select.select([self._proc.stdout], [], [], REPLY_TIMEOUT)
        line = self._proc.stdout.readline() if ready else ""
        if not line:
            raise RuntimeError(f"serving process gave no answer to {op!r}")
        reply = json.loads(line)
        if "error" in reply:
            raise RuntimeError(f"serving process failed {op!r}:\n{reply['error']}")
        return reply

    def peak_rss_mb(self) -> float:
        """Peak resident set size (``VmHWM``) of the child, in MiB."""
        status = Path(f"/proc/{self._proc.pid}/status").read_text()
        for line in status.splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise RuntimeError(f"no VmHWM for process {self._proc.pid}")

    def stop(self) -> None:
        """Ask the child to exit, then make sure it has."""
        try:
            self._proc.stdin.write(json.dumps({"op": "exit"}) + "\n")
            self._proc.stdin.close()
        except OSError:  # the child is already gone
            pass
        try:
            self._proc.wait(30)
        except subprocess.TimeoutExpired:
            self._proc.kill()
            self._proc.wait(30)
        self._proc.stdout.close()


class Client:
    """One keep-alive HTTP/1.1 connection."""

    def __init__(self, url: str) -> None:
        parsed = urlparse(url)
        self._host, self._port = parsed.hostname, parsed.port
        self._conn = None

    def get(self, path: str) -> tuple[int, bytes]:
        if self._conn is None:
            self._conn = http.client.HTTPConnection(self._host, self._port, timeout=60)
            self._conn.connect()
            self._conn.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        try:
            self._conn.request("GET", path)
            resp = self._conn.getresponse()
            return resp.status, resp.read()
        except (OSError, http.client.HTTPException):
            self.close()
            raise

    def close(self) -> None:
        if self._conn is not None:
            self._conn.close()
            self._conn = None


def closed_loop(url: str, path_of, seconds: float):
    """Closed-loop load: ``CLIENTS`` threads, each on its own keep-alive
    connection, send request ``i`` (``path_of(i)``, indices drawn in
    order from 1: request 0 is set-up's first answer) as soon as their
    previous one completed.

    Returns ``(records, elapsed)``; a record is ``(i, status, seconds,
    body)`` with status ``-1`` for a transport error.  Bodies repeated
    byte for byte on one path share one object, so memory stays bounded
    by the distinct answers.
    """
    counter = itertools.count(1)
    first_body: dict[str, bytes] = {}
    records: list[list] = [[] for _ in range(CLIENTS)]
    done_at = [0.0] * CLIENTS
    start = time.perf_counter()
    stop_at = start + seconds

    def worker(slot: int) -> None:
        client = Client(url)
        out = records[slot]
        try:
            while True:
                i = next(counter)
                t0 = time.perf_counter()
                if t0 >= stop_at:
                    break
                path = path_of(i)
                try:
                    status, body = client.get(path)
                except (OSError, http.client.HTTPException):
                    status, body = -1, b""
                dt = time.perf_counter() - t0
                seen = first_body.setdefault(path, body)
                out.append((i, status, dt, seen if seen == body else body))
                done_at[slot] = time.perf_counter()
        finally:
            client.close()

    threads = [threading.Thread(target=worker, args=(k,)) for k in range(CLIENTS)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    merged = sorted(itertools.chain.from_iterable(records))
    return merged, max(done_at) - start


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    child_main(sys.stdin, sys.stdout)
