"""Digests of every output of a source tree's CLI, for comparing two trees.

Runs, with the tree's ``src`` first on ``PYTHONPATH``: ``simulate``,
``plot`` of the metrics it wrote, ``check`` and ``check --inject-fault
mean-shift`` on every ``scenarios/*.json`` of the tree (``perf_10k.json``
at ``--horizon 10``), then a ``sweep`` of ``ball_consensus.json`` over
``n=100:400:3`` with ``--seed 11`` and one of ``mixture_demo.json`` over
``beta=0.1:0.4:4``. For each command it keeps the exit code and the
sha256 of its stdout and stderr, with the tree's and the output's paths
masked, and the sha256 of every file it wrote (a chart counts with the
run whose metrics it draws). Timings are left out: ``run.json`` drops
``timings``, ``wall_time_seconds`` and ``pair_search.seconds``, and a
check report drops ``scenario``, its path. Usage::

    python scripts/output_digests.py TREE > digests.json

It prints one indented JSON object with sorted keys, so that two trees'
digests can be compared with ``diff``.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _file_digest(path: Path) -> str:
    if path.name == "run.json":
        payload = json.loads(path.read_text(encoding="utf-8"))
        for key in ("timings", "wall_time_seconds"):
            payload.pop(key, None)
        payload.get("pair_search", {}).pop("seconds", None)
        return _sha(json.dumps(payload, sort_keys=True).encode())
    if path.name == "report.json":
        payload = json.loads(path.read_text(encoding="utf-8"))
        payload.pop("scenario", None)
        return _sha(json.dumps(payload, sort_keys=True).encode())
    return _sha(path.read_bytes())


def commands(tree: Path, tmp: Path) -> list[tuple[str, list[str]]]:
    """(label, lfmix arguments) per command; a command writes under
    ``tmp / label``, and a ``plot`` next to the metrics it reads."""
    out = []
    for path in sorted((tree / "scenarios").glob("*.json")):
        horizon = ["--horizon", "10"] if path.name == "perf_10k.json" else []
        scenario = ["--scenario", str(path), *horizon]
        run = tmp / f"simulate {path.stem}"
        out += [(run.name, ["simulate", *scenario, "--out", str(run)]),
                (f"plot {path.stem}", ["plot", "--metrics", str(run / "metrics.csv"),
                                       "--out", str(run / "metrics.svg")])]
        for label, fault in ((f"check {path.stem}", []),
                             (f"check --inject-fault {path.stem}", ["--inject-fault", "mean-shift"])):
            out.append((label, ["check", *scenario, *fault, "--report", str(tmp / label / "report.json")]))
    for label, name, vary, seed in (("sweep ball_consensus n", "ball_consensus", "n=100:400:3", ["--seed", "11"]),
                                    ("sweep mixture_demo beta", "mixture_demo", "beta=0.1:0.4:4", [])):
        out.append((label, ["sweep", "--scenario", str(tree / "scenarios" / f"{name}.json"), "--vary", vary, *seed,
                            "--out", str(tmp / label)]))
    return out


def main() -> int:
    if len(sys.argv) != 2:
        print("usage: python scripts/output_digests.py TREE", file=sys.stderr)
        return 2
    tree = Path(sys.argv[1]).resolve()
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    digests = {}
    with tempfile.TemporaryDirectory() as name:
        tmp = Path(name)

        def masked(data: bytes) -> str:
            return _sha(data.replace(name.encode(), b"TMP").replace(str(tree).encode(), b"TREE"))

        for label, argv in commands(tree, tmp):
            done = subprocess.run([sys.executable, "-m", "lfmix.cli", *argv], capture_output=True, env=env, cwd=tmp)
            digests[label] = {"exit": done.returncode, "stdout": masked(done.stdout), "stderr": masked(done.stderr)}
        for label, entry in digests.items():
            out = tmp / label
            files = sorted(p for p in out.rglob("*") if p.is_file()) if out.exists() else []
            entry["files"] = {str(p.relative_to(out)): _file_digest(p) for p in files}
    print(json.dumps(digests, indent=1, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
