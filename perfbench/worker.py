"""One repetition of one benchmark workload, in a fresh interpreter.

``run.py`` starts this script once per repetition, so every repetition
begins cold: the search's process-wide ``lru_cache`` and the workload
registries' memoized networks start empty.  The repetition sets up its
inputs from the seed, runs the measured phase, checks the outputs and
prints one JSON object as the last line of its standard output.

    PYTHONPATH=src python3 perfbench/worker.py --workload serve-chaos \
        --seed 1 --trace 0

``--setup-only`` stops after the set-up (``run.py`` uses it to sample
``setup_s`` more often than the long workloads repeat); ``--trace 1``
records spans around every call into the program and adds the
per-layer metrics.
"""

from __future__ import annotations

import time

#: Set-up time counts from here, so importing the program is part of it.
T_START = time.perf_counter()

from scenarios import main  # noqa: E402

if __name__ == "__main__":
    raise SystemExit(main(T_START))
