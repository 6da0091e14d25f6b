"""Record the golden output digests of every workload.

Usage: python3 bench/record_golden.py

Runs each workload once for every seed in ``run.GOLDEN_SEEDS`` (0..20) on
the code in this checkout and rewrites bench/golden.json. Only do this on a
commit whose outputs are known to be right: the benchmark fails every later
run whose outputs differ from these digests.
"""

import json
import sys

import run


def main() -> int:
    digests = {}
    for workload in run.WORKLOADS:
        digests[workload] = {}
        for seed in run.GOLDEN_SEEDS:
            sample = run.run_once(workload, seed, False, None)
            if sample.problems:
                print(f"{workload} seed {seed}: {'; '.join(sample.problems)}", file=sys.stderr)
                return 1
            digests[workload][str(seed)] = sample.outcome.digests
            print(f"{workload} seed {seed}: wall {sample.wall_s:.3f} s", flush=True)
    seeds = [run.GOLDEN_SEEDS[0], run.GOLDEN_SEEDS[-1]]
    payload = {"commit": run.git_commit(), "seeds": seeds, "digests": digests}
    run.GOLDEN.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
