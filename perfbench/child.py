"""One walshlab CLI process, with timestamps the harness can read.

    python3 perfbench/child.py STAMP [--setup-only] [--trace] -- CLI-ARGS...

Imports walshlab from the checkout's ``src``, records CLOCK_MONOTONIC (a
clock shared by every process on the machine) on entry to
``walshlab.cli.main`` and on its return, and writes them to STAMP as JSON
with the exit code and the facts about the build that the result header
needs.  ``--setup-only`` stops at the entry of ``main``; ``--trace``
installs the spans of ``tracer`` first and adds the per-layer metrics.
"""

from __future__ import annotations

import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


def _blas() -> dict:
    import numpy as np

    info = {"numpy": np.__version__, "blas": "unknown", "blas_threads": "unknown"}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        pass
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        if os.environ.get(var):
            info["blas_threads"] = f"{os.environ[var]} ({var})"
            break
    else:
        info["blas_threads"] = f"library default ({os.cpu_count()} cpus)"
    return info


def main(argv) -> int:
    stamp_path = argv[0]
    split = argv.index("--")
    flags, cli_args = argv[1:split], argv[split + 1 :]
    sys.path.insert(0, SRC)
    import walshlab
    from walshlab import _kernels, cli

    if not os.path.abspath(walshlab.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"walshlab imported from {walshlab.__file__}, not {SRC}")
    stamp = {"using_numba": bool(_kernels.USING_NUMBA)}
    tracer = None
    if "--trace" in flags:
        sys.path.insert(0, HERE)
        import tracer as tracing

        tracer = tracing.Tracer(walshlab).install()
    stamp["main_ns"] = time.monotonic_ns()
    if "--setup-only" in flags:
        stamp.update(_blas())
    else:
        try:
            stamp["rc"] = cli.main(cli_args)
        finally:
            stamp["end_ns"] = time.monotonic_ns()
            if tracer is not None:
                tracer.uninstall()
                stamp["layers"] = tracing.layer_metrics(tracer.recorder)
                stamp["missing"] = tracer.missing
    with open(stamp_path, "w", encoding="utf-8") as fh:
        json.dump(stamp, fh)
    return stamp.get("rc", 0)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
