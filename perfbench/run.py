"""Entry point of the dsmatch stream benchmark; see perfbench/README.md.

    python3 perfbench/run.py --workload sw-insert-q100 --seed 1 --seconds 20 --trace 0

Runs from a source checkout: it imports dsmatch from the checkout's ``src``
directory and refuses to run (exit code 2) when that is missing.
"""

import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

if __name__ == "__main__":
    if not (SRC / "dsmatch" / "__init__.py").is_file():
        print(f"perfbench: no dsmatch sources under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    from harness import main

    sys.exit(main())
