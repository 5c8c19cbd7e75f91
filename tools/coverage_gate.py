#!/usr/bin/env python3
"""Line-coverage gate for the gated subsystems (stdlib-only).

Runs the gated test suites under a ``sys.settrace`` line tracer scoped
to the gated source directories, computes per-file and aggregate line
coverage per subsystem, and fails when any subsystem's aggregate drops
below its committed floor.  Gated today:

* ``src/repro/corpus``     against ``tests/corpus``     (floor 95%) —
  the columnar record store, index, search, statistics and the
  differential reference can't regress to untested;
* ``src/repro/durability`` against ``tests/durability`` (floor 95%) —
  the write-ahead log, snapshots, fault clock and recovery path are
  exactly the code that only runs when something already went wrong,
  so untested lines there are latent data loss;
* ``src/repro/resilience`` against ``tests/resilience`` (floor 95%) —
  retries, breakers and quarantine are likewise fault-path-only code:
  a line that never ran in tests first runs during a production fault;
* ``src/repro/state``      against ``tests/state``      (floor 95%) —
  the fork/merge protocol decides what every ``parallel`` barrier
  folds back into the shared stores; an untested line there is silent
  state divergence between a shard replica and its base store;
* ``src/repro/ontology``   against ``tests/ontology``   (floor 95%) —
  the structural index and distance rows answer every semantic
  verdict; an untested line there is a wrong correction;
* ``src/repro/linkgrammar`` against ``tests/linkgrammar`` (floor 95%) —
  the parser, its caches and the repair search decide every syntax
  verdict and correction; the ``lexicon`` subpackage (word lists and
  morphology) is not gated.

One pytest run covers all suites; coverage is attributed per subsystem
afterwards, so cross-subsystem hits (the durability tests exercising
corpus restore, say) count for both.

Executable lines are derived from the compiled code objects
(``co_lines`` over the module and every nested function/class body), so
the denominator is what the interpreter could actually attribute a line
event to — not raw source lines.

No third-party dependency: the sandbox image has no ``coverage``
package, and the gate must run identically offline and in CI.

Usage: ``python tools/coverage_gate.py`` (from the repo root; the
Makefile target sets PYTHONPATH).  Exit status 0 = every floor held,
1 = coverage regression or test failure.
"""

from __future__ import annotations

import sys
import threading
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]

#: The gates: (source subsystem, test suite, aggregate floor percent).
#: Floors are raised when coverage grows, never lowered to make a
#: failing PR pass.  corpus measured 97% when the columnar subsystem
#: landed (PR 5); durability measured 97% when the WAL/snapshot layer
#: landed (PR 6); resilience measured 96.7% when the
#: fault-tolerance subsystem landed (PR 7); state measured
#: 100% with the fork/merge protocol alone; ontology measured
#: 97.7% when its structural index landed; linkgrammar measured 95.8%
#: when it was gated (robust.py, at 83%, is its weakest file).
SUBSYSTEMS: tuple[tuple[str, str, float], ...] = (
    ("src/repro/corpus", "tests/corpus", 95.0),
    ("src/repro/durability", "tests/durability", 95.0),
    ("src/repro/resilience", "tests/resilience", 95.0),
    ("src/repro/state", "tests/state", 95.0),
    ("src/repro/ontology", "tests/ontology", 95.0),
    ("src/repro/linkgrammar", "tests/linkgrammar", 95.0),
)


def executable_lines(path: Path) -> set[int]:
    """Line numbers the interpreter can attribute events to, i.e. the
    union of ``co_lines`` over the module code object and every code
    object reachable through ``co_consts``."""
    code = compile(path.read_text(encoding="utf-8"), str(path), "exec")
    lines: set[int] = set()
    stack = [code]
    while stack:
        current = stack.pop()
        lines.update(
            line for _start, _end, line in current.co_lines() if line is not None
        )
        stack.extend(
            const for const in current.co_consts if hasattr(const, "co_lines")
        )
    return lines


def main() -> int:
    import pytest

    targets_by_subsystem: dict[str, list[Path]] = {
        source: sorted((REPO_ROOT / source).glob("*.py"))
        for source, _tests, _floor in SUBSYSTEMS
    }
    target_names = {
        str(path) for paths in targets_by_subsystem.values() for path in paths
    }
    hit: dict[str, set[int]] = {name: set() for name in target_names}
    test_args = ["-q", "-p", "no:cacheprovider"] + [
        str(REPO_ROOT / tests) for _source, tests, _floor in SUBSYSTEMS
    ]

    def tracer(frame, event, _arg):
        filename = frame.f_code.co_filename
        if filename not in target_names:
            return None  # don't trace lines outside the gated subsystems
        lines = hit[filename]

        def local(frame, event, _arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return local

        if event == "call":
            lines.add(frame.f_lineno)
        return local

    # Trace before importing: module-level lines (class bodies, defs)
    # execute exactly once, at import time.
    for name in list(sys.modules):
        if name == "repro" or name.startswith("repro."):
            del sys.modules[name]
    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        exit_code = pytest.main(test_args)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    if exit_code != 0:
        print(f"coverage gate: test run failed (pytest exit {exit_code})")
        return 1

    failures: list[str] = []
    print(f"{'file':<44} {'lines':>6} {'hit':>6} {'cover':>7}")
    for source, _tests, floor in SUBSYSTEMS:
        total_executable = 0
        total_hit = 0
        for path in targets_by_subsystem[source]:
            expected = executable_lines(path)
            covered = hit[str(path)] & expected
            total_executable += len(expected)
            total_hit += len(covered)
            percent = 100.0 * len(covered) / len(expected) if expected else 100.0
            print(
                f"{path.relative_to(REPO_ROOT).as_posix():<44} "
                f"{len(expected):>6} {len(covered):>6} {percent:>6.1f}%"
            )
        aggregate = (
            100.0 * total_hit / total_executable if total_executable else 100.0
        )
        label = f"TOTAL {source}"
        print(f"{label:<44} {total_executable:>6} {total_hit:>6} {aggregate:>6.1f}%")
        if aggregate < floor:
            failures.append(
                f"{source}: {aggregate:.1f}% < floor {floor:.1f}%"
            )
        else:
            print(
                f"coverage gate: {source} {aggregate:.1f}% >= floor {floor:.1f}%"
            )
    if failures:
        for failure in failures:
            print(f"coverage gate: {failure} — the subsystem lost test coverage")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
