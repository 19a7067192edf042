"""Regenerate the committed expected outputs (default seed) of every workload.

Run from the root of a checkout, only when a change is meant to alter the
simulated outputs, and say why in that change::

    python3 perfbench/write_expected.py
"""

from __future__ import annotations

import sys

import grids
import hostpaths
import simbench
from run import ROOT


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    for workload in grids.SIMULATOR_WORKLOADS:
        print(f"wrote {simbench.write_expected(ROOT, workload)}")
    print(f"wrote {hostpaths.write_expected(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
