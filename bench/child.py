"""One benchmark child process: import qid, load the registry, run qid CLI
commands and print one JSON record of what happened.

    python3 bench/child.py SRC_DIR [--trace SPANS.jsonl] CMD_JSON...

SRC_DIR is the directory that holds the `qid` package.  Each CMD_JSON is a
JSON list of `qid` command-line arguments, run in order through
`qid.cli.main` in this one process, so module caches stay warm from one
command to the next.  The parent records the launch time; `t_ready` here is
the moment qid is imported and the registry is loaded, so the difference is
the process's set-up time.  All times are `time.perf_counter()` readings,
which on Linux share one monotonic clock across processes.

With --trace the public functions of each qid layer are wrapped (see
layertrace.py) once set-up is done; the spans go to SPANS.jsonl and the per-layer
totals into the JSON record.
"""

from __future__ import annotations

import io
import json
import os
import resource
import sys
import time
from contextlib import redirect_stdout


def main(argv: list[str]) -> int:
    src, rest = argv[0], argv[1:]
    spans_path = None
    if rest[:1] == ["--trace"]:
        spans_path, rest = rest[1], rest[2:]
    sys.path.insert(0, os.path.abspath(src))

    import qid.cli
    import qid.engine
    qid.engine.load_registry()
    t_ready = time.perf_counter()

    tracer = None
    if spans_path is not None:
        from layertrace import Tracer
        tracer = Tracer()
        tracer.install()

    commands = []
    for item, raw in enumerate(rest):
        cmd = json.loads(raw)
        buf = io.StringIO()
        if tracer is not None:
            tracer.item = item
        t0 = time.perf_counter()
        with redirect_stdout(buf):
            code = qid.cli.main(cmd)
        t1 = time.perf_counter()
        commands.append({"argv": cmd, "code": code, "stdout": buf.getvalue(),
                         "t_start": t0, "t_end": t1})

    record = {"t_ready": t_ready, "commands": commands,
              "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}
    if tracer is not None:
        tracer.uninstall()
        tracer.write_spans(spans_path)
        record["layers"] = tracer.totals()
    sys.stdout.write(json.dumps(record) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
