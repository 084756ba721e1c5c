"""Run one solitonlab CLI command in this fresh interpreter, as
``python -m solitonlab`` does, between two runs of the calibration kernel.

    python3 bench/cli_shim.py REPORT.json [--trace] -- <solitonlab arguments...>

The exit code is the command's own.  REPORT.json receives the two kernel
times, the time to import ``solitonlab.cli`` and, with ``--trace``, the
totals and spans of the layer wrappers of ``tracer.py``, which are
installed after the import.
"""

import json
import os
import sys
import time

from speed import kernel


def main() -> int:
    report_path, flags = sys.argv[1], sys.argv[2:sys.argv.index("--")]
    argv = sys.argv[sys.argv.index("--") + 1:]
    kernel_before = kernel()
    t0 = time.perf_counter()
    import solitonlab.cli as cli
    report = {"import_s": time.perf_counter() - t0, "pid": os.getpid()}
    tracer = None
    if "--trace" in flags:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    try:
        rc = (tracer.wrap("cli.main", cli.main) if tracer else cli.main)(argv)
    finally:
        if tracer is not None:
            tracer.uninstall()
            report.update(tracer.snapshot())
        sys.stdout.flush()
    report["kernel_s"] = [kernel_before, kernel()]
    with open(report_path, "w") as fh:
        json.dump(report, fh)
    return rc


if __name__ == "__main__":
    raise SystemExit(main())
