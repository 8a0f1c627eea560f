"""One benchmark process: import branesim, run one CLI command, report.

Usage: child.py RESULT_JSON [--trace SPANS_NPZ] [--probe] -- CLI_ARGS...

The parent starts this script with ``src`` on PYTHONPATH and its clock
(``time.perf_counter``, system-wide monotonic on Linux) read just before the
spawn, so ``setup_end`` minus that reading is the import time.  With
``--probe`` the process only imports branesim.
"""

import time

import branesim

SETUP_END = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402

from branesim import cli  # noqa: E402


def peak_rss_kb() -> int:
    """This program's peak resident set size, in kB.

    Not ru_maxrss: the child is started with vfork, and Linux carries the
    parent's peak resident set into it across execve.
    """
    with open("/proc/self/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM line in /proc/self/status")


def main(argv: list[str]) -> int:
    split = argv.index("--")
    opts, cli_args = argv[:split], argv[split + 1 :]
    result_path = opts[0]
    spans_path = opts[opts.index("--trace") + 1] if "--trace" in opts else None
    result = {"setup_end": SETUP_END, "branesim_file": branesim.__file__}
    rc = 0
    if "--probe" not in opts:
        tracer = None
        if spans_path is not None:
            from spans import Tracer

            tracer = Tracer()
            tracer.install()
        t0 = time.perf_counter()
        try:
            rc = cli.main(cli_args)
        finally:
            solve_s = time.perf_counter() - t0
            if tracer is not None:
                tracer.uninstall()
                tracer.save(spans_path)
                result["trace_missing"] = tracer.missing
        result["solve_s"] = solve_s
    result["rc"] = rc
    result["peak_rss_kb"] = peak_rss_kb()
    with open(result_path, "w") as f:
        json.dump(result, f)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
