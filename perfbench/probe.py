"""Set-up probe: what a fresh interpreter pays before its first report.

Imports ``qdesk.cli`` from the checkout's ``src`` and generates the first
round of the workload's jobs, then exits.  ``run.py`` times several of
these and reports the median as ``setup_s``.

    python3 perfbench/probe.py period-exact 7
"""

from __future__ import annotations

import sys
from pathlib import Path

if __name__ == "__main__":
    here = Path(__file__).resolve().parent
    sys.path[:0] = [str(here.parent / "src"), str(here)]

    import qdesk.cli  # noqa: F401
    import jobs

    jobs.make_round(sys.argv[1], int(sys.argv[2]), 0, here.parent)
