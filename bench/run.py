"""Layered benchmark of the ``lfmix`` command line.

Usage:
    python3 bench/run.py --workload {crowd_10k,check_ball,sweep_hd} \
        --seed N --seconds S --trace {0,1}

Runs the workload's command through ``lfmix.cli.main`` in one fresh child
process at a time (closed loop, one client) until ``--seconds`` have passed,
checks every output, and prints one line per run, a summary, the recorded
environment, the output digests and, last, one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones (median over runs).
With ``--trace 1`` untraced and traced runs alternate; the metrics are the
per-layer ones that every workload produces, of the traced run with the
median wall time, plus ``trace.overhead_s``. The metrics of layers only
some workloads call come on the ``layers`` line before it. A run fails on a
nonzero exit, a golden-digest mismatch, outputs that differ between runs of
the same seed, or a check verdict other than ``pass``. See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path

import workloads as wl
from tracer import DETAIL_UNITS, UNITS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
TMP_ROOT = ROOT / ".bench_tmp"
GOLDEN = BENCH / "golden.json"
GOLDEN_SEEDS = range(0, 21)  # the seeds golden.json holds digests for
CHILD = BENCH / "child.py"
CHILD_TIMEOUT_S = 150
MIN_PLAIN_RUNS = 3  # set-up time is a median over at least this many fresh processes
WORKLOADS = ("crowd_10k", "check_ball", "sweep_hd")
END_TO_END = {"wall_s": "s", "setup_s": "s", "agent_steps_per_s": "1/s", "peak_rss_mb": "MiB"}
THREAD_VARIABLES = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


@dataclass
class Sample:
    """One child run."""

    traced: bool
    exit: int | None = None
    setup_s: float = 0.0
    wall_s: float = 0.0
    rss_mb: float = 0.0
    outcome: wl.Outcome = field(default_factory=wl.Outcome)
    trace: dict | None = None
    problems: list[str] = field(default_factory=list)

    @property
    def timed(self) -> bool:
        return self.exit is not None


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("LFMIX_THREADS", None)
    env.update(dict.fromkeys(THREAD_VARIABLES, "1"))
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def _spawn(job: wl.Job, tmp: Path, trace: bool, sample: Sample) -> dict | None:
    """Run the child and wait for it; returns its result or None, and fills
    in peak RSS from the child's own rusage."""
    result_path = tmp / "result.json"
    spec = tmp / "spec.json"
    spec.write_text(json.dumps({"argv": job.argv, "scenario": str(job.scenario), "trace": trace,
                                "result": str(result_path)}), encoding="utf-8")
    with open(tmp / "stdout.txt", "wb") as out, open(tmp / "stderr.txt", "wb") as err:
        proc = subprocess.Popen([sys.executable, str(CHILD), str(spec)], cwd=tmp, env=child_env(),
                                stdin=subprocess.DEVNULL, stdout=out, stderr=err)
        deadline = time.monotonic() + CHILD_TIMEOUT_S
        while True:
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                break
            if time.monotonic() > deadline:
                proc.kill()
                _, status, usage = os.wait4(proc.pid, 0)
                sample.problems.append(f"child killed after {CHILD_TIMEOUT_S} s")
                break
            time.sleep(0.01)
    proc.returncode = os.waitstatus_to_exitcode(status)
    sample.rss_mb = usage.ru_maxrss / 1024.0  # kilobytes on Linux
    if proc.returncode != 0 or not result_path.is_file():
        tail = (tmp / "stderr.txt").read_text(encoding="utf-8", errors="replace").strip().splitlines()[-3:]
        sample.problems.append(f"child exited with {proc.returncode}: {' | '.join(tail)}")
        return None
    return json.loads(result_path.read_text(encoding="utf-8"))


def run_once(workload: str, seed: int, trace: bool, golden: dict | None,
             extra_argv: tuple[str, ...] = (), mutate=None) -> Sample:
    """Prepare inputs, run one child, verify its outputs, delete everything.

    ``extra_argv`` and ``mutate`` (called on the job before its outputs are
    inspected) exist so the self-tests can show that a broken run fails.
    """
    sample = Sample(traced=trace)
    TMP_ROOT.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=TMP_ROOT))
    try:
        job = wl.prepare(workload, seed, tmp)
        job.argv.extend(extra_argv)
        result = _spawn(job, tmp, trace, sample)
        if result is None:
            return sample
        sample.exit, sample.setup_s, sample.wall_s = result["exit"], result["setup_s"], result["wall_s"]
        sample.trace = result.get("trace")
        if sample.exit != 0:
            sample.problems.append(f"lfmix exited with {sample.exit}")
            return sample
        if mutate is not None:
            mutate(job)
        sample.outcome = wl.inspect(job)
        sample.problems.extend(sample.outcome.problems)
        if golden is not None:
            sample.problems.extend(_diff_digests(golden, sample.outcome.digests, "golden"))
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            TMP_ROOT.rmdir()
        except OSError:
            pass  # another run's directory is still there
    return sample


def _diff_digests(expected: dict, actual: dict, what: str) -> list[str]:
    keys = sorted(set(expected) | set(actual))
    return [f"{key}: {actual.get(key)} differs from {what} {expected.get(key)}"
            for key in keys if expected.get(key) != actual.get(key)]


def load_golden(workload: str, seed: int) -> dict | None:
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    return golden["digests"].get(workload, {}).get(str(seed))


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def end_to_end(samples: list[Sample]) -> dict[str, list[float]]:
    timed = [s for s in samples if s.timed and s.outcome.agent_steps]
    return {
        "wall_s": [s.wall_s for s in timed],
        "setup_s": [s.setup_s for s in timed],
        "agent_steps_per_s": [s.outcome.agent_steps / s.wall_s for s in timed],
        "peak_rss_mb": [s.rss_mb for s in timed],
    }


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True)
    return done.stdout.strip() or "unknown"


def environment(samples: list[Sample]) -> dict:
    shape = next((s.outcome for s in samples if s.outcome.agents), wl.Outcome())
    return {
        "agents": shape.agents, "dimension": shape.dimension, "leader_groups": shape.groups,
        "steps": shape.steps, "nproc": os.cpu_count(), "python": platform.python_version(),
        "numpy": metadata.version("numpy"), "scipy": metadata.version("scipy"), "commit": git_commit(),
    }


def measure(workload: str, seed: int, seconds: float, trace: bool) -> list[Sample]:
    """Closed loop of child runs until the time is up. With tracing, plain and
    traced runs alternate so the overhead is measured in the same run."""
    golden = load_golden(workload, seed)
    samples: list[Sample] = []
    started = time.monotonic()
    while True:
        traced = trace and len(samples) % 2 == 1
        run_started = time.monotonic()
        sample = run_once(workload, seed, traced, golden)
        took = time.monotonic() - run_started
        if samples and not sample.problems:
            sample.problems.extend(_diff_digests(samples[0].outcome.digests, sample.outcome.digests, "run 1"))
        samples.append(sample)
        status = "ok" if not sample.problems else "FAILED: " + "; ".join(sample.problems[:5])
        print(f"run {len(samples)}{' traced' if traced else ''}: wall {sample.wall_s:.4f} s, "
              f"setup {sample.setup_s:.4f} s, rss {sample.rss_mb:.1f} MiB, {status}", flush=True)
        plain = sum(1 for s in samples if not s.traced)
        enough = any(s.traced for s in samples) if trace else plain >= MIN_PLAIN_RUNS
        if enough and time.monotonic() - started + took > seconds:
            return samples


def per_layer(samples: list[Sample]) -> dict:
    """The per-layer metrics of the traced child with the median wall time.
    Prints the metrics of layers only some workloads call on a ``layers``
    line and returns the rest, the ones BENCHMARK.json lists."""
    traced = sorted((s for s in samples if s.traced and s.trace), key=lambda s: s.wall_s)
    plain = [s.wall_s for s in samples if not s.traced and s.timed]
    if not traced:
        return {name: None for name in UNITS}
    chosen = traced[(len(traced) - 1) // 2]
    metrics = dict(chosen.trace["metrics"])
    overhead = statistics.median(s.wall_s for s in traced) - statistics.median(plain) if plain else None
    metrics["trace.overhead_s"] = overhead
    for name in chosen.trace["absent"]:
        print(f"absent span: {name}")
    for name in chosen.trace["not_run"]:
        print(f"not run on this workload: {name}")
    print(f"dynamics.stop_reason: {', '.join(chosen.trace['stop_reasons'])}")
    print(f"trace: root span {chosen.trace['root_s']:.6f} s, self times sum to {chosen.trace['self_sum_s']:.6f} s")
    print("layers " + json.dumps({name: {"value": metrics.get(name), "unit": unit}
                                  for name, unit in DETAIL_UNITS.items()}))
    return {name: metrics.get(name) for name in UNITS}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    missing = [p for p in (ROOT / "src" / "lfmix" / "cli.py", wl.CROWD_SCENARIO, GOLDEN) if not p.is_file()]
    if missing:
        print(f"bench: not an lfmix checkout, missing {', '.join(map(str, missing))}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("bench: --seconds must be positive", file=sys.stderr)
        return 2

    samples = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    failed = sum(1 for s in samples if s.problems)
    print(f"{args.workload} seed {args.seed}: {len(samples)} runs, {failed} failed, "
          f"error_rate {failed / len(samples):.4f}")
    values = end_to_end([s for s in samples if not s.traced])
    for name, unit in END_TO_END.items():
        if values[name]:
            q1, q2, q3 = quartiles(values[name])
            print(f"  {name:18} median {q2:.6g} {unit}  p25 {q1:.6g}  p75 {q3:.6g}  n={len(values[name])}")
    print("env " + json.dumps(environment(samples), sort_keys=True))
    for key, digest in sorted(next((s.outcome.digests for s in samples if s.outcome.digests), {}).items()):
        print(f"digest {args.workload} seed={args.seed} {key} {digest}")

    if args.trace:
        metrics = {name: {"value": value, "unit": UNITS[name]} for name, value in per_layer(samples).items()}
    else:
        metrics = {name: {"value": statistics.median(values[name]) if values[name] else None, "unit": unit}
                   for name, unit in END_TO_END.items()}
    print(json.dumps({"correct": failed == 0, "attempted": len(samples), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
