"""Perf-trajectory store: append benchmark wall times, fail on regressions.

Benchmarks (``benchmarks/test_parallel_speedup.py``,
``test_supervisor_overhead.py``, ``test_lint_perf.py``,
``test_runlog_overhead.py``) append one entry per run into a trajectory
file — ``BENCH_obs.json`` by convention — so the performance history of
the execution layer is a queryable artifact instead of a number that
scrolls by in a CI log.  ``python -m repro perf check`` then compares
each series' newest entry against its best prior entry and exits
nonzero when the regression exceeds a tolerance — the CI budget gate.

A series is *lower-is-better* (seconds, overhead fractions) unless its
unit is a rate (:data:`HIGHER_IS_BETTER_UNITS`, e.g. sessions per
second), which is higher-is-better.  The store keeps no timestamps of
its own: entries carry only the measured
value, a unit, and caller-supplied ``meta`` (host cores, trial counts),
so writing an entry never reads a clock and the file diffs cleanly.

File schema (``PERFSTORE_VERSION`` 1)::

    {"version": 1,
     "series": {"parallel.speedup.serial_s": [
         {"value": 2.41, "unit": "s", "meta": {"cores": 8}}, ...]}}
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Union

#: Trajectory file schema version.
PERFSTORE_VERSION = 1

#: Default regression tolerance: latest may exceed the best prior entry
#: by this fraction before the budget check fails.
DEFAULT_TOLERANCE = 0.25

#: Units of throughput series: their best entry is the largest, and a
#: rate regresses when the best prior rate exceeds it by the tolerance.
HIGHER_IS_BETTER_UNITS = frozenset({"1/s"})


def _best(entries: List["PerfEntry"]) -> float:
    values = [e.value for e in entries]
    higher = entries[-1].unit in HIGHER_IS_BETTER_UNITS
    return max(values) if higher else min(values)


@dataclass(frozen=True)
class PerfEntry:
    """One recorded measurement of one series."""

    value: float
    unit: str = "s"
    meta: Dict[str, Any] = field(default_factory=dict)

    def as_dict(self) -> dict:
        return {"value": self.value, "unit": self.unit, "meta": self.meta}

    @classmethod
    def from_dict(cls, raw: Dict[str, Any]) -> "PerfEntry":
        return cls(value=float(raw["value"]), unit=str(raw.get("unit", "s")),
                   meta=dict(raw.get("meta", {})))


@dataclass(frozen=True)
class BudgetCheck:
    """Verdict of one series' latest entry against its history."""

    name: str
    ok: bool
    latest: float
    baseline: Optional[float]  #: best prior value (None: nothing to compare)
    tolerance: float
    message: str


class PerfStore:
    """Append/compare API over one trajectory file.

    Writes are atomic full rewrites (write-temp-then-replace), the same
    pattern the trial journal uses, so a killed benchmark never leaves a
    half-written trajectory behind.
    """

    def __init__(self, path: Union[str, Path]):
        self.path = Path(path)

    def load(self) -> Dict[str, Any]:
        if not self.path.exists():
            return {"version": PERFSTORE_VERSION, "series": {}}
        raw = json.loads(self.path.read_text(encoding="utf-8"))
        if not isinstance(raw.get("series"), dict):
            raise ValueError(
                f"{self.path} is not a perf trajectory file "
                f"(missing 'series' mapping)"
            )
        return raw

    def series_names(self) -> List[str]:
        return sorted(self.load()["series"])

    def history(self, name: str) -> List[PerfEntry]:
        """All entries of one series, oldest first."""
        rows = self.load()["series"].get(name, [])
        return [PerfEntry.from_dict(r) for r in rows]

    def append(self, name: str, value: float, unit: str = "s",
               meta: Optional[Dict[str, Any]] = None) -> PerfEntry:
        """Record one measurement at the end of a series."""
        if value < 0:
            raise ValueError(f"perf series {name!r} value cannot be "
                             f"negative (got {value})")
        payload = self.load()
        payload["version"] = PERFSTORE_VERSION
        entry = PerfEntry(value=float(value), unit=unit, meta=dict(meta or {}))
        payload["series"].setdefault(name, []).append(entry.as_dict())
        self.path.parent.mkdir(parents=True, exist_ok=True)
        tmp = self.path.with_suffix(self.path.suffix + ".tmp")
        tmp.write_text(json.dumps(payload, indent=1, sort_keys=True),
                       encoding="utf-8")
        os.replace(tmp, self.path)
        return entry

    # -- budget checking ---------------------------------------------------

    def check(self, name: str,
              tolerance: float = DEFAULT_TOLERANCE) -> BudgetCheck:
        """Compare a series' newest entry against its best prior entry."""
        history = self.history(name)
        if not history:
            return BudgetCheck(name=name, ok=True, latest=float("nan"),
                               baseline=None, tolerance=tolerance,
                               message="no entries")
        latest = history[-1].value
        if len(history) < 2:
            return BudgetCheck(name=name, ok=True, latest=latest,
                               baseline=None, tolerance=tolerance,
                               message="first entry; no baseline yet")
        baseline = _best(history[:-1])
        # Compare costs (lower is better): a rate's cost is its
        # reciprocal, so latest and best swap places in the ratio.
        cost, best_cost = latest, baseline
        if history[-1].unit in HIGHER_IS_BETTER_UNITS:
            cost, best_cost = baseline, latest
        ok = cost <= best_cost * (1.0 + tolerance)
        ratio = cost / best_cost if best_cost > 0 else float("inf")
        verdict = "within budget" if ok else "REGRESSION"
        return BudgetCheck(
            name=name, ok=ok, latest=latest, baseline=baseline,
            tolerance=tolerance,
            message=(f"{verdict}: latest {latest:.4g} vs best {baseline:.4g} "
                     f"({ratio:.2f}x, budget {1.0 + tolerance:.2f}x)"),
        )

    def check_all(self,
                  tolerance: float = DEFAULT_TOLERANCE) -> List[BudgetCheck]:
        return [self.check(name, tolerance) for name in self.series_names()]


def default_store_path() -> Path:
    """``REPRO_PERFSTORE`` when set, else ``BENCH_obs.json`` in the cwd.

    Benchmarks resolve their trajectory file through this hook so CI can
    redirect writes to a workspace artifact without touching the tree.
    """
    return Path(os.environ.get("REPRO_PERFSTORE", "BENCH_obs.json"))


# -- CLI (python -m repro perf) ---------------------------------------------

def _cmd_show(store: PerfStore) -> int:
    names = store.series_names()
    if not names:
        print("(empty trajectory)")
        return 0
    for name in names:
        history = store.history(name)
        latest = history[-1]
        best = _best(history)
        print(f"{name}: {len(history)} entries, "
              f"latest {latest.value:.4g} {latest.unit}, best {best:.4g}")
    return 0


def _cmd_check(store: PerfStore, tolerance: float) -> int:
    checks = store.check_all(tolerance)
    if not checks:
        print("perf check: no series recorded; nothing to compare")
        return 0
    failed = 0
    for check in checks:
        print(f"{check.name}: {check.message}")
        if not check.ok:
            failed += 1
    if failed:
        print(f"perf check: {failed}/{len(checks)} series over budget")
        return 1
    print(f"perf check: {len(checks)} series within the "
          f"{tolerance:.0%} tolerance")
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point for ``python -m repro perf``."""
    parser = argparse.ArgumentParser(
        prog="repro perf",
        description="Inspect or budget-check a benchmark perf trajectory "
                    "file (BENCH_obs.json).",
    )
    parser.add_argument("action", choices=["show", "check"],
                        help="'show' lists series; 'check' fails on "
                             "regressions beyond --tolerance")
    parser.add_argument("path", help="trajectory file path")
    parser.add_argument("--tolerance", type=float, default=DEFAULT_TOLERANCE,
                        help="allowed regression over the best prior entry "
                             "(fraction; default 0.25)")
    options = parser.parse_args(argv)
    if options.tolerance < 0:
        print(f"error: --tolerance cannot be negative "
              f"(got {options.tolerance})", file=sys.stderr)
        return 2
    store = PerfStore(options.path)
    try:
        if options.action == "show":
            return _cmd_show(store)
        return _cmd_check(store, options.tolerance)
    except (OSError, ValueError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 1


__all__ = [
    "BudgetCheck",
    "DEFAULT_TOLERANCE",
    "PERFSTORE_VERSION",
    "PerfEntry",
    "PerfStore",
    "default_store_path",
    "main",
]
