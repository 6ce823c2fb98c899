"""Regenerate the stored reference outputs of the fixed-input workloads.

    PYTHONPATH=src python3 perfbench/make_reference.py

Run only at a commit whose outputs are known good: the correctness gate
compares every later run against these files (1e-12 on simulated c and
alpha, 1e-6 on oracle values).
"""

import os
import tempfile

from geomphase import cli

import workloads

for name in ("preset-trace", "long-cycle-sweep"):
    with tempfile.TemporaryDirectory() as workdir:
        for inv in workloads.build(name, 0, workdir):
            code = cli.main(inv.argv + ["--out", inv.reference])
            if code != 0:
                raise SystemExit(f"{' '.join(inv.argv)} exited {code}")
            print(f"wrote {os.path.relpath(inv.reference)}")
