"""One benchmark pass in a fresh interpreter.

    python3 child.py '{"ops": [[...argv...], ...], "trace": false, "src": "src"}'

Runs from the workload directory. Imports ``motifroles.cli`` from ``src``,
calls ``motifroles.cli.main`` once per argument list, sends the CLI's own
output to ``cli_output.txt`` and prints one JSON line: the exit codes, the
pass's wall time from the first call's start to the last call's end, the
time of each call, and this process's peak resident memory. With
``"trace": true`` the line also holds the spans and counters of the library
calls. An empty ``ops`` list only measures the import.
"""

from __future__ import annotations

import contextlib
import json
import resource
import sys
import time
import traceback
from pathlib import Path


def _call(main, argv) -> int:
    try:
        return int(main(argv))
    except SystemExit as exc:  # argparse rejected the arguments
        return exc.code if isinstance(exc.code, int) else 2
    except Exception:  # a crash fails this call; the pass goes on
        traceback.print_exc()
        return -1


def main() -> int:
    spec = json.loads(sys.argv[1])
    t0 = time.perf_counter()
    import motifroles.cli as cli
    import motifroles.evaluation as evaluation

    import_s = time.perf_counter() - t0
    src = Path(spec["src"]).resolve()
    if not Path(cli.__file__).resolve().is_relative_to(src):
        print(f"motifroles imported from {cli.__file__}, not from {src}", file=sys.stderr)
        return 2

    tracer = None
    if spec["trace"]:
        from spans import Tracer
        from workloads import window_triples

        tracer = Tracer()
        tracer.install([cli, evaluation])

    codes, op_s = [], []
    with open("cli_output.txt", "w", encoding="utf-8") as sink, \
            contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        root = tracer.begin("cli.pass") if tracer else None
        start = time.perf_counter()
        for argv in spec["ops"]:
            span = tracer.begin(f"cli.{argv[0]}") if tracer else None
            op_start = time.perf_counter()
            codes.append(_call(cli.main, argv))
            op_s.append(time.perf_counter() - op_start)
            if tracer:
                tracer.end(span)
        end = time.perf_counter()
        if tracer:
            tracer.end(root)

    result = {
        "import_s": import_s,
        "pass_s": end - start,
        "op_s": op_s,
        "codes": codes,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer:
        result["pass_s"] = root.end - root.start
        result["spans"] = [vars(s) for s in tracer.spans]
        counters = dict(tracer.fill_counters())
        counters["counting.window_triples"] = sum(
            window_triples(t, delta) for t, delta in tracer.count_inputs
        )
        result["counters"] = counters
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
