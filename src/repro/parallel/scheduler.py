"""Tile scheduling: work-stealing deques, chunk autotuning, simulation.

Three layers:

* **Simulation** (Table 9): given exact per-tile work, compute
  per-thread busy/idle time for ``dynamic`` (shared-queue list
  scheduling — the behaviour of the paper's work-stealing runtime) and
  ``static`` (round-robin, no stealing) policies.
* **Chunk autotuner** (:func:`chunk_tiles`): group consecutive tiles
  into chunks of roughly equal *pair-comparison* cost (the tile cost
  estimate from :mod:`repro.core.tiling`) so dispatch overhead is
  amortised while enough chunks remain for stealing to balance load.
* **Work-stealing deques** (:class:`TileScheduler`): per-worker deques
  over flat integer arrays — owners pop from the front, thieves steal
  from the back.  The arrays can live in ordinary memory (thread tests)
  or in a ``multiprocessing.shared_memory`` segment (the process
  backend), with per-worker locks supplied by the caller.
"""

from __future__ import annotations

import heapq
from contextlib import AbstractContextManager
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.core.tiling import Tile

__all__ = [
    "ScheduleResult",
    "simulate_schedule",
    "idle_time_pct",
    "chunk_tiles",
    "plan_assignment",
    "TileScheduler",
]


@dataclass(frozen=True)
class ScheduleResult:
    """Outcome of a simulated schedule."""

    threads: int
    makespan: float
    busy: np.ndarray  # per-thread busy time
    total_work: float

    @property
    def idle(self) -> np.ndarray:
        return self.makespan - self.busy

    @property
    def avg_idle_pct(self) -> float:
        """Mean thread idle time as % of the makespan (Table 9 metric)."""
        if self.makespan == 0:
            return 0.0
        return float(100.0 * self.idle.mean() / self.makespan)

    @property
    def speedup(self) -> float:
        """Parallel speedup vs running all work on one thread."""
        if self.makespan == 0:
            return float(self.threads)
        return float(self.total_work / self.makespan)


def simulate_schedule(
    works: np.ndarray | list[float] | list[Tile],
    threads: int,
    policy: str = "dynamic",
) -> ScheduleResult:
    """Simulate scheduling tiles with the given per-tile work.

    ``works`` may be an array of costs or a list of
    :class:`~repro.core.tiling.Tile` (their ``work`` fields are used).
    """
    if threads < 1:
        raise ValueError("threads must be >= 1")
    if policy not in ("dynamic", "static"):
        raise ValueError(f"unknown policy {policy!r}")
    if len(works) and isinstance(works[0], Tile):
        costs = np.array([t.work for t in works], dtype=np.float64)
    else:
        costs = np.asarray(works, dtype=np.float64)
    if costs.size and costs.min() < 0:
        raise ValueError("work must be non-negative")
    busy = np.zeros(threads, dtype=np.float64)
    if costs.size == 0:
        return ScheduleResult(threads, 0.0, busy, 0.0)

    if policy == "static":
        for i, c in enumerate(costs):
            busy[i % threads] += c
        makespan = float(busy.max())
    else:
        # dynamic list scheduling: next tile goes to the earliest-free thread
        heap = [(0.0, t) for t in range(threads)]
        heapq.heapify(heap)
        for c in costs:
            finish, t = heapq.heappop(heap)
            busy[t] += c
            heapq.heappush(heap, (finish + c, t))
        makespan = float(max(f for f, _ in heap))
    return ScheduleResult(threads, makespan, busy, float(costs.sum()))


def idle_time_pct(
    works: np.ndarray | list[float] | list[Tile],
    threads: int,
    policy: str = "dynamic",
) -> float:
    """Convenience wrapper returning only the Table-9 idle percentage."""
    return simulate_schedule(works, threads, policy).avg_idle_pct


# --------------------------------------------------------------------------
# chunk autotuning + work-stealing deques (the live scheduler)
# --------------------------------------------------------------------------

def chunk_tiles(
    tiles: Sequence[Tile],
    workers: int,
    chunks_per_worker: int = 8,
) -> np.ndarray:
    """Group consecutive tiles into chunks of ~equal pair-comparison cost.

    Returns an indptr-style boundary array: chunk ``c`` covers tiles
    ``[out[c], out[c+1])``.  The autotuner targets
    ``total_work / (workers * chunks_per_worker)`` per chunk — small
    enough that stealing can rebalance a skewed tail, large enough that
    per-chunk dispatch (a queue pop + one lock round-trip) is amortised
    over thousands of pair tests.  A tile is never split further: tiles
    are already work-bounded by the squared-edge tiling.
    """
    if workers < 1:
        raise ValueError("workers must be >= 1")
    if chunks_per_worker < 1:
        raise ValueError("chunks_per_worker must be >= 1")
    n = len(tiles)
    if n == 0:
        return np.zeros(1, dtype=np.int64)
    total = sum(t.work for t in tiles)
    target = max(total / (workers * chunks_per_worker), 1.0)
    bounds = [0]
    acc = 0
    for i, tile in enumerate(tiles):
        acc += tile.work
        if acc >= target and i + 1 < n:
            bounds.append(i + 1)
            acc = 0
    bounds.append(n)
    return np.asarray(bounds, dtype=np.int64)


def plan_assignment(
    chunk_costs: np.ndarray | list[float], workers: int
) -> list[list[int]]:
    """Deal chunks onto per-worker deques, balancing total cost (LPT).

    Chunks are assigned greedily in descending-cost order to the
    currently least-loaded worker; each deque is then sorted by chunk id
    so owners consume in tile order (good locality — consecutive chunks
    share vertex rows).  Deterministic: ties break on worker id.
    """
    if workers < 1:
        raise ValueError("workers must be >= 1")
    costs = np.asarray(chunk_costs, dtype=np.float64)
    deques: list[list[int]] = [[] for _ in range(workers)]
    loads = [(0.0, w) for w in range(workers)]
    heapq.heapify(loads)
    order = np.argsort(-costs, kind="stable")
    for chunk in order:
        load, w = heapq.heappop(loads)
        deques[w].append(int(chunk))
        heapq.heappush(loads, (load + float(costs[chunk]), w))
    for dq in deques:
        dq.sort()
    return deques


class TileScheduler:
    """Work-stealing deques over flat arrays (shared-memory friendly).

    Layout — all arrays may be views into one shared segment:

    * ``queue``  — concatenated per-worker deques of chunk ids;
    * ``bounds`` — ``int64[2 * workers]``: worker ``w`` owns queue slots
      ``[bounds[2w], bounds[2w+1])`` (head inclusive, tail exclusive);
    * ``region`` — ``int64[workers + 1]``: the fixed slot range each
      deque was dealt (heads/tails never leave their region).

    The owner pops from the **front** (``head++`` — preserves tile order
    and locality); a thief takes from the **back** (``--tail`` — steals
    the victim's largest untouched run, minimising further steals).  One
    caller-supplied lock per worker serialises access to that worker's
    ``(head, tail)`` pair; with a static chunk set this is the entire
    synchronisation surface.
    """

    def __init__(
        self,
        queue: np.ndarray,
        bounds: np.ndarray,
        region: np.ndarray,
        locks: Sequence[AbstractContextManager],
    ) -> None:
        self.queue = queue
        self.bounds = bounds
        self.region = region
        self.locks = list(locks)
        self.workers = len(self.locks)
        if bounds.shape != (2 * self.workers,):
            raise ValueError("bounds must be int64[2 * workers]")
        if region.shape != (self.workers + 1,):
            raise ValueError("region must be int64[workers + 1]")

    @classmethod
    def build(
        cls,
        deques: list[list[int]],
        locks: Sequence[AbstractContextManager],
    ) -> "TileScheduler":
        """Scheduler arrays initialised from :func:`plan_assignment` output
        (the process backend copies them into a shared segment)."""
        workers = len(deques)
        total = sum(len(d) for d in deques)
        queue = np.zeros(max(total, 1), dtype=np.int64)
        bounds = np.zeros(2 * workers, dtype=np.int64)
        region = np.zeros(workers + 1, dtype=np.int64)
        slot = 0
        for w, dq in enumerate(deques):
            region[w] = slot
            bounds[2 * w] = slot
            for chunk in dq:
                queue[slot] = chunk
                slot += 1
            bounds[2 * w + 1] = slot
        region[workers] = slot
        return cls(queue, bounds, region, locks)

    def pop_local(self, worker: int) -> int | None:
        """Owner path: take the front chunk of ``worker``'s deque."""
        with self.locks[worker]:
            head = int(self.bounds[2 * worker])
            tail = int(self.bounds[2 * worker + 1])
            if head >= tail:
                return None
            self.bounds[2 * worker] = head + 1
            return int(self.queue[head])

    def steal(self, worker: int) -> tuple[int, int] | None:
        """Thief path: scan victims round-robin, take from the back.

        Returns ``(chunk, victim)`` or ``None`` when every deque is dry.
        """
        for step in range(1, self.workers):
            victim = (worker + step) % self.workers
            with self.locks[victim]:
                head = int(self.bounds[2 * victim])
                tail = int(self.bounds[2 * victim + 1])
                if head >= tail:
                    continue
                self.bounds[2 * victim + 1] = tail - 1
                return int(self.queue[tail - 1]), victim
        return None

    def next_chunk(self, worker: int) -> tuple[int | None, bool]:
        """One scheduling decision: ``(chunk, was_stolen)`` or ``(None, _)``."""
        chunk = self.pop_local(worker)
        if chunk is not None:
            return chunk, False
        stolen = self.steal(worker)
        if stolen is None:
            return None, False
        return stolen[0], True

    def remaining(self) -> int:
        """Chunks not yet claimed (racy under concurrency; exact when idle)."""
        return int(
            sum(
                max(0, int(self.bounds[2 * w + 1]) - int(self.bounds[2 * w]))
                for w in range(self.workers)
            )
        )
