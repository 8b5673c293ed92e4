"""The machine record the committed ``BENCH_*.json`` files carry: a
speed claim counts only together with the machine that made it."""

import os
import platform


def machine(**versions):
    """CPU count, CPU model and Python version, plus any extra
    ``name=version`` pairs (e.g. ``numpy=numpy.__version__``)."""
    model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "python": platform.python_version(),
        **versions,
    }
