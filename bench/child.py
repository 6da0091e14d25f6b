"""One measured run of an ``lfmix`` command in a fresh process.

Usage: python3 bench/child.py SPEC_JSON

SPEC_JSON holds ``argv`` (the CLI arguments), ``scenario`` (the file loaded
during set-up), ``trace`` (record spans) and ``result`` (where to write the
timings). Set-up is ``import lfmix.cli`` plus ``load_scenario`` of the
scenario; the wall time is ``lfmix.cli.main(argv)`` from call to return.
The parent reads peak RSS from this process's rusage.
"""

import json
import sys
from time import perf_counter


def main() -> int:
    with open(sys.argv[1], encoding="utf-8") as fh:
        spec = json.load(fh)
    started = perf_counter()
    import lfmix.cli
    from lfmix.scenario_io import load_scenario

    load_scenario(spec["scenario"])
    setup = perf_counter() - started

    tracer = None
    if spec["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    started = perf_counter()
    try:
        code = tracer.call(lfmix.cli.main, spec["argv"]) if tracer else lfmix.cli.main(spec["argv"])
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
    wall = perf_counter() - started

    result = {"exit": code, "setup_s": setup, "wall_s": wall}
    if tracer is not None:
        result["trace"] = tracer.summary()
    with open(spec["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
