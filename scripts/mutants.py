"""Mutation check: every proven margin, exactness rule and shortcut of the
engine and the checks has a test that fails without it.

Each entry of ``MUTANTS`` names a file under ``src/lfmix``, one of its lines
exactly as written (without its indentation), the line that replaces it and
the test files that should kill it. For each mutant the script copies
``src/`` to a temporary directory, replaces that line in the copy, keeping
its indentation, and runs ``python -m pytest -x -q -p no:cacheprovider`` on
the named test files with the copy first on ``PYTHONPATH``. pytest runs in
the temporary directory without writing bytecode, so nothing is written
into the checkout. Run it from anywhere::

    python scripts/mutants.py

It prints one line per mutant and exits 1 when a mutant survives (its tests
pass) or its line does not occur exactly once in its file.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# (name, file, line, replacement, test files)
MUTANTS = [
    # the rounding proofs and exactness rules of the neighbor search, the pair list and the update
    ("tie-rule", "neighbors.py", "keep[band] = (diff * diff).sum(axis=-1) <= eps2",
     "keep[band] = (diff * diff).sum(axis=-1) < eps2", ["test_neighbors.py"]),
    ("scan-sigma-zero", "neighbors.py",
     "sigma = 4 * (d + 2) * 2.0**-53 * (norms + (top + eps2)) + (d + 1) * 2.0**-1071",
     "sigma = 0.0 * norms", ["test_neighbors.py"]),
    ("within-slack-zero", "neighbors.py", "slack = 4 * d * 2.0**-53", "slack = 0.0", ["test_neighbors.py"]),
    ("cell-side-eps", "neighbors.py",
     "return eps * (1.0 + 2.0**-48) + float(np.maximum(-lo, hi).max()) * 2.0**-50  # the largest |x|",
     "return eps", ["test_neighbors.py"]),
    ("diameter-w-one", "analysis.py", "near = x[r + r[a] > math.sqrt(lower) * (1.0 - (d + 6) * 2.0**-52)]",
     "near = x[r + r[a] > math.sqrt(lower)]", ["test_analysis.py"]),
    ("pairwise-beta-sums", "schedules.py", "total = np.zeros(betas.shape[:-1])", "return betas.sum(axis=-1)",
     ["test_dynamics.py"]),
    ("holds-band-skipped", "neighbors.py",
     "return not (gap[:ahead] <= moved[i[:ahead]] + moved[j[:ahead]] + self.margin).any()",
     "return True", ["test_neighbors.py"]),
    ("empty-sets-unmasked", "dynamics.py", "w[:, 1:] = np.where(size[1:] > 0, betas.transpose(0, 2, 1), 0.0)",
     "w[:, 1:] = betas.transpose(0, 2, 1)", ["test_dynamics.py"]),
    ("full-set-copies-zeroed", "neighbors.py", "sums[target] = sums[source]", "sums[target] = 0.0",
     ["test_dynamics.py"]),
    ("pair-list-margin-zero", "neighbors.py",
     "_MARGIN = 2.0**-30  # rounding margin of a pair list, as a fraction of epsilon + skin",
     "_MARGIN = 0.0", ["test_neighbors.py"]),
    # held chunks of weights, the degree table and the checks' blocks of states
    ("held-step-reads-previous-entry", "dynamics.py", "return tuple(part[t - first] for part in weights)",
     "return tuple(part[t - first - 1] for part in weights)", ["test_dynamics.py"]),
    ("block-check-without-beta-sums", "dynamics.py",
     "clean &= (beta_sums(block[..., 1:]) <= 1.0).all(axis=1)", "pass", ["test_dynamics.py"]),
    ("served-ignores-block-check", "dynamics.py",
     "return max(self.served_until - t, 0) if self.start <= t else 0",
     "return max(self.stop - t, 0) if self.start <= t else 0", ["test_dynamics.py"]),
    ("row-served-past-served-until", "dynamics.py", "if t < self.served_until:", "if t <= self.served_until:",
     ["test_dynamics.py"]),
    ("lemma1-worst-at-row-0", "analysis.py",
     "worst[start : start + len(x), row : row + block.shape[1]] = np.where(block <= eps2, dist0,",
     "worst[start : start + len(x), 0 : block.shape[1]] = np.where(block <= eps2, dist0,", ["test_analysis.py"]),
    ("cor2-contact-at-block-start", "analysis.py", "first = start + int(hit.argmax())", "first = start",
     ["test_analysis.py"]),
    ("cor2-scan-first-block-only", "analysis.py",
     "for start, x in _state_blocks(trajectory.states[:first], floats):",
     "for start, x in list(_state_blocks(trajectory.states[:first], floats))[:1]:", ["test_analysis.py"]),
    # the series keeps each group's leader degrees; cor2 measures the joint run's final state itself
    ("group-alphas-from-leading-columns", "analysis.py",
     "group_alphas = tuple(alphas[:, np.searchsorted(leaders, ids)] for ids in part.leader_ids)",
     "group_alphas = tuple(alphas[:, :ids.size] for ids in part.leader_ids)", ["test_analysis.py"]),
    ("cor2-joint-from-initial-state", "analysis.py",
     "joint = distances_to(trajectory.final_state.opinions[members], g)",
     "joint = distances_to(trajectory.states[0].opinions[members], g)", ["test_analysis.py"]),
    # cor1 adds a follower's betas as the engine does
    ("cor1-total-pairwise", "analysis.py", "total = beta_sums(tail[-1])", "total = tail[-1].sum(axis=1)",
     ["test_analysis.py"]),
    # an override holds only its degree key
    ("override-keys-with-per-agent", "model.py",
     'sub_base, sub_norm = parse_group_entry(e, sub, f"schedules.{name}.per_agent[{agent}]", ())',
     'sub_base, sub_norm = parse_group_entry(e, sub, f"schedules.{name}.per_agent[{agent}]")', ["test_model.py"]),
    # the one block budget and the measured search rule
    ("per-block-without-floor", "neighbors.py", "return max(1, _BLOCK_FLOATS // max(floats, 1))",
     "return _BLOCK_FLOATS // max(floats, 1)", ["test_dynamics.py"]),
    ("uses-grid-without-3-to-the-d", "neighbors.py",
     "if n < _GRID_AGENTS * 3 ** min(d, 20):  # 64 · 3^20 > 2^31: past d = 20 no int32 N reaches it",
     "if n < _GRID_AGENTS:", ["test_neighbors.py"]),
    # one sort per class expansion, one degree row per step, and the traced degree queries
    ("expanded-unsorted", "neighbors.py", 'key.sort(kind="stable")', "pass", ["test_dynamics.py"]),
    ("table-without-kept-row", "dynamics.py", "if self.asked is not None and self.asked[0] == t:", "if False:",
     ["test_dynamics.py"]),
    ("engine-alpha-untraced", "dynamics.py", "alpha = realized_alpha(scenario, t, degrees)",
     "alpha = degrees.row(t)[:, 0]", ["test_bench_interface.py"]),
    # membership as code arrays: cor2's subsystem labels and the writer's names by group code
    ("subsystem-members-at-or-above-k", "analysis.py", "members = np.flatnonzero(label == k)",
     "members = np.flatnonzero(label >= k)", ["test_analysis.py"]),
    ("writer-name-of-code-0", "scenario_io.py",
     'prefixes = [f",{i},{quoted[code]}," for i, code in enumerate(part.group_of.tolist())]',
     'prefixes = [f",{i},{quoted[0]}," for i, code in enumerate(part.group_of.tolist())]', ["test_io.py"]),
    # peak written once in the schedule base class; distances and plot times that overflow
    ("base-peak-zero", "schedules.py", "return self.at(0, t)", "return 0.0", ["test_model.py"]),
    ("thm2-infinite-c0-unguarded", "analysis.py",
     "if not math.isfinite(c0):  # overflowed squares: no envelope bounds an infinite distance", "if False:",
     ["test_analysis.py"]),
    ("plot-t-unbounded", "scenario_io.py",
     "float(t)  # an OverflowError where t does not fit a float, as the chart's x axis needs", "pass",
     ["test_cli.py"]),
]


def mutate(src: Path, file: str, line: str, replacement: str) -> bool:
    """Replace ``line`` in the copy's ``file``, keeping its indentation;
    False, with nothing written, unless it occurs exactly once."""
    path = src / "lfmix" / file
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    hits = [i for i, text in enumerate(lines) if text.strip() == line]
    if len(hits) != 1:
        return False
    text = lines[hits[0]]
    lines[hits[0]] = text[:len(text) - len(text.lstrip())] + replacement + "\n"
    path.write_text("".join(lines), encoding="utf-8")
    return True


def main() -> int:
    failed = 0
    for name, file, line, replacement, tests in MUTANTS:
        started = time.perf_counter()
        with tempfile.TemporaryDirectory() as tmp:
            src = Path(tmp) / "src"
            shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
            if not mutate(src, file, line, replacement):
                verdict = f"line not found exactly once in {file}"
            else:
                env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
                cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
                       *(str(ROOT / "tests" / test) for test in tests)]
                done = subprocess.run(cmd, cwd=tmp, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
                verdict = "killed" if done.returncode == 1 else f"not killed (pytest exit {done.returncode})"
        failed += verdict != "killed"
        print(f"{name}: {verdict} ({time.perf_counter() - started:.1f} s)", flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
