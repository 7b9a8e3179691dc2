"""Benchmark-trajectory regression gate.

Compares two artifacts produced by :mod:`repro.obs.trajectory`
(``scripts/bench_trajectory.py``) metric by metric and exits non-zero
when any tracked metric *regresses* beyond its tolerance:

* ``*.triangles`` — exact: any change is a correctness regression;
* miss / access totals — relative: the candidate may not exceed the
  baseline by more than ``--rel-tol`` (improvements always pass);
* ``*_share`` attribution shares — absolute drift beyond
  ``--share-tol`` in either direction (the locality *attribution* is a
  claim of its own: misses silently migrating between regions is a
  regression even when totals hold);
* ``*.overhead_ratio`` — ceiling: the telemetry self-measurement
  (:func:`repro.obs.trajectory.build_telemetry_overhead_measurements`)
  must stay under an *absolute* ceiling (``--overhead-ceiling``,
  default 1.25 to absorb shared-CI noise; the design target is <= 1.05
  on EU15).  ``profiler.*`` ratios (the sampling profiler measuring
  itself) get a tighter ceiling (``--profiler-ceiling``, default
  1.10).  Unlike every other kind, a ceiling metric is gated even
  when it only appears in the candidate — instrumentation that slows
  the pipeline down must not pass just because the baseline predates
  the measurement;
* a tracked metric missing from the candidate is a regression (the
  suite silently shrank); candidate-only metrics are informational
  (except ceiling metrics, see above).

The baseline may come from a committed ``BENCH_*.json`` file or — with
``--against-run`` — from any entry of the run ledger
(:mod:`repro.obs.ledger`), so the perf gate can compare a candidate
against any recorded run, not just the single committed baseline.

Usage::

    python -m repro.obs.regress BASELINE [CANDIDATE] [--latest DIR]
    python -m repro.obs.regress --against-run latest~1 [CANDIDATE] [--latest DIR]
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import sys
from dataclasses import dataclass
from typing import Any

__all__ = [
    "DEFAULT_REL_TOL",
    "DEFAULT_SHARE_TOL",
    "DEFAULT_OVERHEAD_CEILING",
    "DEFAULT_PROFILER_CEILING",
    "MetricDelta",
    "artifact_from_record",
    "load_artifact",
    "metric_kind",
    "compare_artifacts",
    "regressions",
    "format_deltas",
    "main",
]

DEFAULT_REL_TOL = 0.02
DEFAULT_SHARE_TOL = 0.02
# Absolute gate for telemetry.*.overhead_ratio: candidate telemetry may
# slow a count down by at most this factor.  The design target is 1.05
# (<= 5% with every exporter live, docs/observability.md); the gate adds
# headroom for noisy shared CI runners.
DEFAULT_OVERHEAD_CEILING = 1.25
# Absolute gate for profiler.*.overhead_ratio: the sampling profiler's
# whole point is negligible cost, so its ceiling is deliberately tighter
# than the telemetry one — <= 10% at the default 10 ms interval.
DEFAULT_PROFILER_CEILING = 1.10


@dataclass(frozen=True)
class MetricDelta:
    """Outcome of comparing one metric across the two artifacts."""

    key: str
    baseline: float | None
    candidate: float | None
    kind: str  # "exact" | "count" | "share" | "floor" | "ceiling" | "timing"
    #           | "missing" | "new"
    regressed: bool
    reason: str = ""


def load_artifact(path: str | pathlib.Path) -> dict[str, Any]:
    artifact = json.loads(pathlib.Path(path).read_text())
    if artifact.get("kind") != "bench-trajectory":
        raise ValueError(f"{path}: not a bench-trajectory artifact")
    if artifact.get("schema") != 1:
        raise ValueError(f"{path}: unsupported schema {artifact.get('schema')!r}")
    if not isinstance(artifact.get("metrics"), dict):
        raise ValueError(f"{path}: missing metrics map")
    return artifact


def metric_kind(key: str) -> str:
    """Tolerance class of a metric key, for trajectory artifacts and
    flattened run records alike: triangle counts compare exactly, shares
    / rates (gauges) by absolute drift, overhead ratios against an
    absolute ceiling, speedups as floors, wall-clock and load-dependent
    metrics are informational only, everything else is a count gated by
    relative tolerance.
    """
    if key.endswith(".triangles"):
        return "exact"
    if key.endswith(".overhead_ratio"):
        # telemetry/profiler self-measurement: gated against an absolute
        # ceiling (profiler.* keys get their own, tighter default)
        return "ceiling"
    if ".profiler." in key or key.startswith("profiler."):
        # sample/drop totals scale with wall time and machine load;
        # trend, never gate (the overhead_ratio above is the gate)
        return "timing"
    if ".sched." in key:
        # scheduler-dependent metrics (tile/chunk/steal counts, pool waits,
        # shm sizes) vary with worker count and backend by design; they are
        # informational, so snapshots stay identical across backends
        return "timing"
    if ".serve." in key or key.startswith("serve."):
        # serving metrics (cache hit mixes, queue depths, latencies) depend
        # on request arrival order and machine load; trend, never gate
        return "timing"
    if ".dynamic." in key or key.startswith("dynamic."):
        # dynamic-graph metrics: the update-vs-recount speedup is gated
        # as a floor (the whole point of incremental maintenance); batch
        # sizes, overlay residency and latencies are informational
        return "floor" if key.endswith("_speedup") else "timing"
    if key.endswith("_share") or key.startswith("gauge."):
        return "share"
    if key.endswith("_speedup"):
        return "floor"
    if (
        key.endswith("_seconds")
        or key.endswith(".elapsed")
        or key == "meta.elapsed"
        or ".queue_wait" in key
    ):
        return "timing"
    return "count"


def artifact_from_record(record: dict[str, Any]) -> dict[str, Any]:
    """Baseline view of a ledger run record.

    A record written by ``scripts/bench_trajectory.py`` embeds the full
    bench-trajectory artifact — use it verbatim.  Any other record is
    projected onto the flat metric space via
    :func:`repro.obs.ledger.flatten_record_metrics` (comparable against
    another record's projection, not against a trajectory artifact).
    """
    artifact = record.get("artifact")
    if isinstance(artifact, dict) and isinstance(artifact.get("metrics"), dict):
        return artifact
    from repro.obs.ledger import flatten_record_metrics

    return {
        "kind": "run-record-projection",
        "generated": record.get("created"),
        "metrics": flatten_record_metrics(record),
    }


def compare_artifacts(
    baseline: dict[str, Any],
    candidate: dict[str, Any],
    rel_tol: float = DEFAULT_REL_TOL,
    share_tol: float = DEFAULT_SHARE_TOL,
    overhead_ceiling: float = DEFAULT_OVERHEAD_CEILING,
    profiler_ceiling: float = DEFAULT_PROFILER_CEILING,
) -> list[MetricDelta]:
    """Per-metric comparison; see the module docstring for the rules.

    :func:`metric_kind` maps each key to its tolerance class (``exact`` /
    ``share`` / ``count`` / ``floor`` / ``ceiling`` / ``timing``).
    ``timing`` metrics are reported but never regress — wall-clock is
    not gated.
    ``ceiling`` metrics gate against an absolute ceiling even when they
    are candidate-only: ``overhead_ceiling`` for telemetry ratios,
    ``profiler_ceiling`` (tighter) for ``profiler.*`` keys.
    """

    def ceiling_for(key: str) -> float:
        return profiler_ceiling if key.startswith("profiler.") else overhead_ceiling

    base_metrics: dict[str, float] = baseline["metrics"]
    cand_metrics: dict[str, float] = candidate["metrics"]
    deltas: list[MetricDelta] = []
    for key, base_value in base_metrics.items():
        if key not in cand_metrics:
            deltas.append(
                MetricDelta(key, base_value, None, "missing", True,
                            "tracked metric missing from candidate")
            )
            continue
        cand_value = cand_metrics[key]
        kind = metric_kind(key)
        if kind == "exact":
            regressed = cand_value != base_value
            reason = "exact-match metric changed" if regressed else ""
        elif kind == "share":
            drift = abs(cand_value - base_value)
            regressed = drift > share_tol
            reason = f"attribution drift {drift:.4f} > {share_tol}" if regressed else ""
        elif kind == "timing":
            regressed = False
            reason = ""
        elif kind == "ceiling":
            ceiling = ceiling_for(key)
            regressed = cand_value > ceiling
            reason = (
                f"{cand_value:.4f} > absolute ceiling {ceiling}"
                if regressed
                else ""
            )
        elif kind == "floor":
            # bigger-is-better (speedups): regress when the candidate drops
            limit = base_value * (1.0 - rel_tol)
            regressed = cand_value < limit
            reason = (
                f"{cand_value:,.3f} < {base_value:,.3f} (-{rel_tol:.0%} tolerance)"
                if regressed
                else ""
            )
        else:
            limit = base_value * (1.0 + rel_tol)
            regressed = cand_value > limit
            reason = (
                f"{cand_value:,.0f} > {base_value:,.0f} (+{rel_tol:.0%} tolerance)"
                if regressed
                else ""
            )
        deltas.append(MetricDelta(key, base_value, cand_value, kind, regressed, reason))
    for key, cand_value in cand_metrics.items():
        if key not in base_metrics:
            if metric_kind(key) == "ceiling":
                # absolute gates apply even without a baseline value:
                # new instrumentation must prove its own overhead
                ceiling = ceiling_for(key)
                regressed = cand_value > ceiling
                reason = (
                    f"{cand_value:.4f} > absolute ceiling {ceiling}"
                    if regressed
                    else ""
                )
                deltas.append(
                    MetricDelta(key, None, cand_value, "ceiling", regressed, reason)
                )
                continue
            deltas.append(MetricDelta(key, None, cand_value, "new", False,
                                      "not in baseline (informational)"))
    return deltas


def regressions(deltas: list[MetricDelta]) -> list[MetricDelta]:
    return [d for d in deltas if d.regressed]


def format_deltas(deltas: list[MetricDelta], verbose: bool = False) -> str:
    """Human-readable summary; regressions always listed, rest behind -v."""
    bad = regressions(deltas)
    lines = [
        f"compared {sum(d.kind != 'new' for d in deltas)} tracked metrics: "
        f"{len(bad)} regression(s)"
    ]
    for d in bad:
        lines.append(
            f"  REGRESSION {d.key}: {d.baseline} -> {d.candidate} ({d.reason})"
        )
    if verbose:
        for d in deltas:
            if not d.regressed and d.kind != "new":
                lines.append(f"  ok {d.key}: {d.baseline} -> {d.candidate}")
        for d in deltas:
            if d.kind == "new":
                lines.append(f"  new {d.key}: {d.candidate}")
    return "\n".join(lines)


def _latest_artifact(directory: pathlib.Path, exclude: pathlib.Path) -> pathlib.Path:
    candidates = sorted(
        p for p in directory.glob("BENCH_*.json")
        if p.resolve() != exclude.resolve() and p.name != "BENCH_baseline.json"
    )
    if not candidates:
        raise SystemExit(f"no BENCH_*.json candidates under {directory}")
    return candidates[-1]


def _load_artifact_or_record(path: pathlib.Path) -> dict[str, Any]:
    """Load a comparison side: a BENCH artifact or a saved run record."""
    data = json.loads(pathlib.Path(path).read_text())
    if data.get("kind") == "run-record":
        return artifact_from_record(data)
    return load_artifact(path)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.obs.regress",
        description="compare two bench-trajectory artifacts and gate regressions",
    )
    parser.add_argument("baseline", nargs="?",
                        help="committed baseline BENCH_*.json "
                             "(or use --against-run)")
    parser.add_argument("candidate", nargs="?",
                        help="candidate artifact (or use --latest)")
    parser.add_argument("--against-run", metavar="REF",
                        help="use ledger run REF (run id / prefix / latest~N) "
                             "as the baseline instead of a BENCH file")
    parser.add_argument("--ledger", metavar="DIR", default=None,
                        help="ledger directory for --against-run "
                             "(default: runs/)")
    parser.add_argument("--latest", metavar="DIR",
                        help="pick the newest BENCH_<date>.json in DIR as candidate")
    parser.add_argument("--rel-tol", type=float, default=DEFAULT_REL_TOL,
                        help="relative tolerance for miss/access totals")
    parser.add_argument("--share-tol", type=float, default=DEFAULT_SHARE_TOL,
                        help="absolute tolerance for attribution shares")
    parser.add_argument("--overhead-ceiling", type=float,
                        default=DEFAULT_OVERHEAD_CEILING,
                        help="absolute ceiling for telemetry overhead "
                             "ratios (default: %(default)s)")
    parser.add_argument("--profiler-ceiling", type=float,
                        default=DEFAULT_PROFILER_CEILING,
                        help="absolute ceiling for profiler.* overhead "
                             "ratios (default: %(default)s)")
    parser.add_argument("-v", "--verbose", action="store_true",
                        help="also list non-regressed metrics")
    args = parser.parse_args(argv)
    if args.against_run:
        from repro.obs.ledger import DEFAULT_LEDGER_DIR, Ledger, LedgerError

        try:
            record = Ledger(args.ledger or DEFAULT_LEDGER_DIR).get(args.against_run)
        except LedgerError as exc:
            parser.error(str(exc))
        baseline = artifact_from_record(record)
        baseline_desc = f"ledger run {record['run_id']}"
        baseline_path = pathlib.Path(args.baseline) if args.baseline else None
        if args.baseline and not args.candidate:
            # `regress --against-run REF CANDIDATE` binds the lone
            # positional to the candidate slot
            args.candidate, args.baseline = args.baseline, None
            baseline_path = None
    elif args.baseline:
        baseline_path = pathlib.Path(args.baseline)
        baseline = _load_artifact_or_record(baseline_path)
        baseline_desc = str(baseline_path)
    else:
        parser.error("provide BASELINE or --against-run REF")
    if args.candidate:
        candidate_path = pathlib.Path(args.candidate)
    elif args.latest:
        candidate_path = _latest_artifact(
            pathlib.Path(args.latest), baseline_path or pathlib.Path(os.devnull)
        )
    else:
        parser.error("provide CANDIDATE or --latest DIR")
    candidate = _load_artifact_or_record(candidate_path)
    deltas = compare_artifacts(baseline, candidate, rel_tol=args.rel_tol,
                               share_tol=args.share_tol,
                               overhead_ceiling=args.overhead_ceiling,
                               profiler_ceiling=args.profiler_ceiling)
    print(f"baseline:  {baseline_desc} (generated {baseline.get('generated')})")
    print(f"candidate: {candidate_path} (generated {candidate.get('generated')})")
    print(format_deltas(deltas, verbose=args.verbose))
    return 1 if regressions(deltas) else 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
