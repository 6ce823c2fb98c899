"""Set-up probe: a fresh interpreter up to the first compute.

Imports the package, parses the workload's first command line (which loads
its circuit) and prints the system-wide monotonic clock, so the parent can
time the whole start-up from before it spawned this process.

    python3 perfbench/probe.py simulate --circuit abcda --out x.csv
"""

import sys
import time

from geomphase import cli

cli.parse_args(sys.argv[1:])
print(repr(time.monotonic()))
