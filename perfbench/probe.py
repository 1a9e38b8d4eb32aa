"""Set-up probe: a fresh interpreter imports ringstar and runs one CLI job.

Run from the repository root:

    python3 perfbench/probe.py <command> <config.json> <out.csv>

The benchmark times this whole process, which is what every command-line
invocation pays before doing its own work.
"""
import os
import sys

sys.path.insert(0, os.path.join(os.getcwd(), "src"))

from ringstar.cli import main  # noqa: E402

if __name__ == "__main__":
    sys.exit(main([sys.argv[1], "--config", sys.argv[2], "--out", sys.argv[3]]))
