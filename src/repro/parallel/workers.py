"""The one worker-process runtime under the process backends.

Both :func:`repro.parallel.procpool.count_hhh_hhn_processes` and
:func:`repro.dist.runtime.run_distributed_count` run their workers on a
:class:`WorkerPool`, which owns the whole process lifecycle: start-method
choice, spawning (with ``fault`` injection), the worker-side telemetry
session and sampling profiler, deadline enforcement, crash detection,
draining survivors, stitching their span trees, and teardown.

Each worker talks to the parent over **one duplex pipe**.  Stage
messages, the final result and the telemetry payload all travel on it,
so the parent needs no queues and no polling: it blocks in
:func:`multiprocessing.connection.wait` on the pipes plus every
worker's process sentinel, and sees a death the moment it happens.

The failure model is the same for every caller:

* a worker that dies before sending its final message raises
  :class:`WorkerCrashError` (``"<label> <index> died with exit code
  <code>"``, plus ``.exitcodes`` for every worker);
* a missed ``deadline_s`` raises ``TimeoutError``;
* with tracing on, survivors are first sent an abort (it interrupts a
  worker blocked in :meth:`WorkerChannel.recv`), close their telemetry
  session and send back their partial span trees, which are stitched
  under the caller's span before the error is raised.  The wait for
  survivors is bounded by ``_GRACE_S``;
* every worker process is joined (or terminated and joined) on exit.
"""

from __future__ import annotations

import multiprocessing
import os
import time
from multiprocessing.connection import wait
from typing import Any, Callable

from repro.obs import get_registry
from repro.obs.telemetry import TraceContext, stitch_worker_payloads

__all__ = [
    "FAULT_EXIT_CODE",
    "WorkerChannel",
    "WorkerCrashError",
    "WorkerPool",
]

# exit code used by injected worker faults (distinct from signal deaths)
FAULT_EXIT_CODE = 23

# upper bound on waiting for survivors after a failure, and for workers
# to exit after their final message
_GRACE_S = 10.0


class WorkerCrashError(RuntimeError):
    """A worker process died before sending its final message.

    ``exitcodes`` maps every worker index to its exit code (``None`` for
    a worker still running when the crash was seen).
    """

    def __init__(self, message: str, exitcodes: dict[int, int | None]):
        super().__init__(message)
        self.exitcodes = exitcodes


class _Aborted(Exception):
    """Raised inside a worker when the parent sends an abort."""


class WorkerChannel:
    """Worker-side end of the pipe to the parent.

    :meth:`send` delivers a message to the parent's
    :meth:`WorkerPool.gather`; :meth:`recv` returns what the parent's
    :meth:`WorkerPool.scatter` sent this worker.
    """

    def __init__(self, conn) -> None:
        self._conn = conn

    def send(self, body: Any) -> None:
        """Send one message to the parent."""
        self._conn.send(("data", body))

    def recv(self) -> Any:
        """Block for the parent's next message; an abort unwinds the
        worker's target so its telemetry still reaches the parent."""
        kind, body = self._conn.recv()
        if kind == "abort":
            raise _Aborted()
        return body


def _run_target(target, payload, channel, registry, span):
    try:
        return target(payload, channel, registry, span)
    except _Aborted:
        return None


def _worker_main(index, conn, target, payload, label, trace_wire, fault):
    """Process entry point: run ``target`` and send its result and
    telemetry as one final message."""
    if fault == index:
        # simulate a hard crash (segfault / OOM-kill): no cleanup, no result
        os._exit(FAULT_EXIT_CODE)
    channel = WorkerChannel(conn)
    telemetry = None
    if trace_wire is None:
        from repro.obs.registry import NULL_REGISTRY
        from repro.obs.spans import NULL_SPAN

        result = _run_target(target, payload, channel, NULL_REGISTRY, NULL_SPAN)
    else:
        from repro.obs.telemetry import worker_payload, worker_telemetry_session

        # the parent's profiler asks workers to sample themselves by
        # adding this key to the trace wire (TraceContext ignores it)
        profile_interval_ms = trace_wire.get("profile_interval_ms")
        profiler = None
        if profile_interval_ms:
            from repro.obs.profiler import SamplingProfiler

            # activate=False: under fork the child inherits the parent's
            # active-profiler global (its thread does not survive), so
            # process-wide activation here would refuse to start
            profiler = SamplingProfiler(
                interval_s=float(profile_interval_ms) / 1000.0, activate=False
            ).start()
        try:
            with worker_telemetry_session(
                trace_wire, label, **{label: index, "pid": os.getpid()}
            ) as (registry, span):
                result = _run_target(target, payload, channel, registry, span)
        finally:
            profile = profiler.stop() if profiler is not None else None
        telemetry = worker_payload(registry, index, os.getpid(), profile=profile)
    conn.send(("end", (result, telemetry)))
    conn.close()


def _trace_wire(span) -> dict | None:
    """The trace context workers record under, plus the live profiler's
    sampling interval; ``None`` when tracing is off."""
    ctx = TraceContext.from_span(span)
    if ctx is None:
        return None
    wire: dict = ctx.to_wire()
    from repro.obs.profiler import get_profiler

    profiler = get_profiler()
    if profiler is not None:
        # workers sample themselves at the parent's rate; their profiles
        # fold back in during stitching
        wire["profile_interval_ms"] = profiler.interval_s * 1000.0
    return wire


class WorkerPool:
    """A set of worker processes, one duplex pipe each.

    Use as a context manager: create it, make any ``ctx`` primitives the
    payloads need (e.g. ``pool.ctx.Lock()``), :meth:`start` the workers,
    then exchange messages with :meth:`gather` / :meth:`scatter`.  The
    last :meth:`gather` returns each worker's result.  Leaving the block
    stitches the workers' span trees under ``span`` and joins every
    process; leaving it on an error first drains survivors' telemetry.

    ``label`` names both the workers' root spans (``worker`` /
    ``shard``, with the index in the attribute of the same name) and
    the workers in error messages.  ``fault`` (tests only) makes that
    worker exit with :data:`FAULT_EXIT_CODE` before running its target.
    ``deadline_s`` bounds the time from construction to the last
    :meth:`gather`.  ``start_method`` defaults to ``fork`` where the
    platform offers it, ``spawn`` otherwise.
    """

    def __init__(
        self,
        label: str,
        span: Any,
        start_method: str | None = None,
        fault: int | None = None,
        deadline_s: float | None = None,
    ) -> None:
        if start_method is None:
            methods = multiprocessing.get_all_start_methods()
            start_method = "fork" if "fork" in methods else "spawn"
        self.ctx = multiprocessing.get_context(start_method)
        self.label = label
        self.span = span
        self.fault = fault
        self.deadline_s = deadline_s
        self._deadline = (
            None if deadline_s is None else time.monotonic() + deadline_s
        )
        self._wire = _trace_wire(span)
        self._procs: list = []
        self._conns: list = []
        self._ended: set[int] = set()
        self._telemetry: list[dict] = []

    def start(
        self,
        target: Callable[[Any, WorkerChannel, Any, Any], Any],
        payloads: list[Any],
    ) -> None:
        """Spawn one worker per payload running
        ``target(payload, channel, registry, root_span)``; its return
        value is the worker's result.  ``registry`` and ``root_span`` are
        the worker's own telemetry registry and root span (the null ones
        when tracing is off)."""
        for index, payload in enumerate(payloads):
            parent_conn, child_conn = self.ctx.Pipe(duplex=True)
            proc = self.ctx.Process(
                target=_worker_main,
                args=(index, child_conn, target, payload, self.label,
                      self._wire, self.fault),
                daemon=True,
            )
            proc.start()
            child_conn.close()
            self._procs.append(proc)
            self._conns.append(parent_conn)

    def gather(self) -> dict[int, Any]:
        """One message from every worker, keyed by worker index.

        Raises :class:`WorkerCrashError` when a worker dies first and
        ``TimeoutError`` past the deadline.
        """
        out: dict[int, Any] = {}
        while len(out) < len(self._procs):
            waiting = [w for w in range(len(self._procs)) if w not in out]
            if self._deadline is not None and time.monotonic() >= self._deadline:
                raise TimeoutError(
                    f"{self.label}s {waiting} missed the "
                    f"{self.deadline_s} s deadline"
                )
            got, dead = self._wait(waiting, self._deadline)
            out.update(got)
            if dead:
                codes = {w: p.exitcode for w, p in enumerate(self._procs)}
                raise WorkerCrashError(
                    "; ".join(
                        f"{self.label} {w} died with exit code {codes[w]}"
                        for w in dead
                    ),
                    codes,
                )
        return out

    def scatter(self, messages: dict[int, Any]) -> None:
        """Send ``messages[w]`` to worker ``w``'s :meth:`WorkerChannel.recv`."""
        for w, body in messages.items():
            self._send(w, ("data", body))

    def _send(self, w: int, message: tuple) -> None:
        try:
            self._conns[w].send(message)
        except OSError:
            # the worker died; the next gather reports it with its exit code
            pass

    def _wait(self, waiting: list[int], until: float | None):
        """Block until a worker in ``waiting`` sends or dies (or ``until``
        passes); returns ``({worker: message}, [dead workers])``."""
        handles = {}
        for w in waiting:
            handles[self._conns[w]] = w
            handles[self._procs[w].sentinel] = w
        timeout = None if until is None else max(0.0, until - time.monotonic())
        ready = wait(list(handles), timeout)
        got: dict[int, Any] = {}
        dead: list[int] = []
        for w in sorted({handles[h] for h in ready}):
            conn = self._conns[w]
            if not conn.poll():
                # only the sentinel fired: let the exit finish so the
                # pipe reads as closed
                self._procs[w].join()
            try:
                kind, body = conn.recv()
            except (EOFError, OSError):
                self._procs[w].join()
                dead.append(w)
                continue
            if kind == "end":
                body, telemetry = body
                self._ended.add(w)
                if telemetry is not None:
                    self._telemetry.append(telemetry)
            got[w] = body
        return got, dead

    def _drain_survivors(self) -> None:
        """Abort every live worker and collect its final message."""
        live = [
            w for w, p in enumerate(self._procs)
            if w not in self._ended and p.is_alive()
        ]
        for w in live:
            self._send(w, ("abort", None))
        until = time.monotonic() + _GRACE_S
        while live:
            got, dead = self._wait(live, until)
            if not got and not dead:
                return
            live = [w for w in live if w not in self._ended and w not in dead]

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        try:
            if exc is not None and self._wire is not None:
                self._drain_survivors()
            stitch_worker_payloads(get_registry(), self.span, self._telemetry)
        finally:
            for p in self._procs:
                p.join(timeout=_GRACE_S if exc is None else 0)
                if p.is_alive():
                    p.terminate()
                    p.join()
            for conn in self._conns:
                conn.close()
