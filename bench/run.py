"""Benchmark of the supervised chat system: one workload, one seed.

    python3 bench/run.py --workload classroom --seed 1 --seconds 10 --trace 0

Workloads (see bench/NOTES.md for why each exists):

* ``classroom``        in-process, closed loop, seeded learner traffic;
* ``template_cohort``  in-process, closed loop, 16 rooms of fixed templates;
* ``serving``          the HTTP server in a child process, open loop.

``--trace 0`` reports the end-to-end metrics: set-up is sampled several
times, each in a fresh process, and the median reported.  ``--trace 1``
runs the workload twice, untraced then traced, for ``--seconds / 2``
each, and reports the per-layer metrics plus the tracing overhead.
Every run checks the program's outputs: each post acknowledged, each
question answered by the QA system, nothing quarantined or shed.  A
readable report goes to stderr; the last stdout line is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("classroom", "template_cohort", "serving")
#: Set-ups per ``--trace 0`` run (the measured run's own included).
SETUP_SAMPLES = 5
#: Speed-probe samples taken just before each set-up, to scale it.
SETUP_PROBES = 20
#: Hard limit for one child process beyond its measuring time.
CHILD_SLACK_S = 60.0


def inproc(workload: str, seed: int, seconds: float, traced=False, setup_only=False):
    """One fresh in-process child: (set-up seconds, result or None)."""
    from serve_load import read_line

    command = [sys.executable, str(HERE / "inproc.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds)]
    if traced:
        command.append("--trace")
    if setup_only:
        command.append("--setup-only")
    start = time.monotonic()
    proc = subprocess.Popen(command, cwd=ROOT, stdout=subprocess.PIPE)
    try:
        ready = read_line(proc, start + CHILD_SLACK_S)
        setup_s = time.monotonic() - start
        if ready.strip() != b"READY":
            raise RuntimeError(f"{workload} child did not get ready: {ready!r}")
        out, _ = proc.communicate(timeout=seconds + CHILD_SLACK_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} child exited with {proc.returncode}")
    if setup_only:
        return setup_s, None
    lines = [l for l in out.decode().splitlines() if l.startswith("RESULT ")]
    return setup_s, json.loads(lines[-1][len("RESULT "):])


def run_once(workload: str, seed: int, seconds: float, traced: bool, workdir: Path) -> dict:
    if workload == "serving":
        import serve_load

        return serve_load.run(workdir / f"run-{int(traced)}", seed, seconds, traced)
    setup_s, result = inproc(workload, seed, seconds, traced=traced)
    result["setup_s"] = setup_s
    return result


def setup_sample(workload: str, seed: int, workdir: Path, n: int) -> float:
    if workload == "serving":
        import serve_load

        return serve_load.setup_sample(workdir / f"setup-{n}", seed)
    return inproc(workload, seed, 0, setup_only=True)[0]


def measure(workload: str, seed: int, seconds: float, trace: bool, workdir: Path) -> dict:
    import metrics
    from speed import SpeedProbe

    if not trace:
        # The probe samples the host's speed just before each set-up; the
        # set-ups are scaled by the mean over all of them.
        probe = SpeedProbe()
        setups = []
        for n in range(SETUP_SAMPLES):
            for _ in range(SETUP_PROBES):
                probe.sample()
            if n < SETUP_SAMPLES - 1:
                setups.append(setup_sample(workload, seed, workdir, n))
        result = run_once(workload, seed, seconds, False, workdir)
        setups.append(result["setup_s"])
        values = dict(result["metrics"], setup_s=statistics.median(setups) * probe.factor())
        result["setups"] = setups
        result["setup_factor"] = probe.factor()
        result["values"] = metrics.emit(values, metrics.END_TO_END)
        return result
    plain = run_once(workload, seed, seconds / 2, False, workdir)
    traced = run_once(workload, seed, seconds / 2, True, workdir)
    values = dict(traced["layers"])
    if workload == "serving":
        # Open loop: throughput is the offered rate, so compare latency.
        basis = "reply_p50_ms"
        values["trace.overhead_pct"] = 100 * (
            traced["metrics"][basis] / plain["metrics"][basis] - 1
        )
    else:
        basis = "throughput_msg_s"
        values["trace.overhead_pct"] = 100 * (
            plain["metrics"][basis] / traced["metrics"][basis] - 1
        )
    attempted = plain["attempted"] + traced["attempted"]
    failed = plain["failed"] + traced["failed"]
    values["fail_ratio"] = failed / attempted if attempted else 0.0
    for name in ("reply_p99_ms", "ack_p99_ms"):
        values[name] = plain["metrics"][name]
    return {
        "attempted": attempted,
        "failed": failed,
        "failures": plain["failures"] + traced["failures"],
        "posts": plain["posts"] + traced["posts"],
        "values": metrics.emit(values, metrics.per_layer()),
        "shares": traced["shares"],
        "overhead": (basis, plain["metrics"][basis], traced["metrics"][basis]),
    }


def report(args, result: dict, problems: list[str]) -> None:
    """The human-readable report (stderr)."""
    import metrics

    def say(line: str) -> None:
        print(line, file=sys.stderr)

    say(f"{args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}: "
        f"{result['posts']} posts, {result['attempted']} ops, {result['failed']} failed")
    for name, metric in result["values"].items():
        if args.trace == 0 or not name.endswith((".calls", ".p95_ms")) or metric["value"]:
            say(f"  {name:42s} {metric['value']:14.4f} {metric['unit']}")
    if args.trace == 0:
        say("  setup samples (s): " + ", ".join(f"{s:.3f}" for s in result["setups"])
            + f"; speed factor {result['setup_factor']:.3f}")
        say(f"  run speed factor {result['speed_factor']:.3f}; unscaled: " + ", ".join(
            f"{name} {value:.4f}" for name, value in result["unscaled"].items()
            if name in metrics.SCALED_BY_PROBE))
    else:
        total = sum(result["shares"].values()) or 1.0
        groups: dict[str, float] = {}
        for name, self_ms in result["shares"].items():
            group = name.split(".")[0]
            groups[group] = groups.get(group, 0.0) + self_ms
        say("  self time by layer: " + ", ".join(
            f"{g} {v / total:.1%}" for g, v in sorted(groups.items(), key=lambda kv: -kv[1])))
        say("  self time by span:  " + ", ".join(
            f"{n} {v / total:.1%}" for n, v in sorted(result["shares"].items(), key=lambda kv: -kv[1])[:8]))
        basis, plain, traced = result["overhead"]
        say(f"  tracing overhead: {basis} untraced {plain:.3f}, traced {traced:.3f}")
    for line in problems + result["failures"]:
        say(f"  FAIL {line}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program sources at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(HERE), str(ROOT / "src")]
    import metrics
    import traffic

    manifest = ROOT / "BENCHMARK.json"
    problems = metrics.check_manifest(json.loads(manifest.read_text())) if manifest.exists() else []
    if problems:
        print("error: " + "; ".join(problems), file=sys.stderr)
        return 2
    problems = traffic.self_test(args.seed)
    workdir = ROOT / ".bench_run" / str(os.getpid())
    try:
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass  # another run still uses it
    report(args, result, problems)
    print(json.dumps({
        "correct": result["failed"] == 0 and not problems,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": result["values"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
