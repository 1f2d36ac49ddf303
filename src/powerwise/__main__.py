"""The CLI's process entry: ``python -m powerwise`` and the ``powerwise`` console script both call ``run``.

``run`` is for a process that runs one command and exits; ``powerwise.cli.main``
is the in-process entry and changes no process-wide state.
"""

import gc
import os

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def run() -> int:
    """Run one CLI command in this process and return its exit code.

    Each BLAS thread-count variable the user left unset is set to 1 before
    numpy loads: a season's solve is too small to gain from threads, and one
    thread makes the ratings' bits the same on every host. The collector is
    off while the CLI's modules load, and what they built is then frozen, so
    no collection walks objects that live until exit anyway.
    """
    for name in BLAS_THREAD_VARS:
        os.environ.setdefault(name, "1")
    gc.disable()
    try:
        from .cli import main

        gc.freeze()
    finally:
        gc.enable()
    return main()


if __name__ == "__main__":
    raise SystemExit(run())
