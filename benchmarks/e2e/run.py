#!/usr/bin/env python3
"""Entry point of the end-to-end benchmark (see README.md next to this file).

``python3 benchmarks/e2e/run.py --workload W --seed N --seconds S --trace 0|1``
is the form ``BENCHMARK.json`` names; ``run.py all`` and ``run.py compare``
are the researcher-facing forms.
"""

import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))

from e2ebench.cli import main  # noqa: E402

if __name__ == "__main__":
    sys.exit(main())
