"""Write ``reference.json``: the fixed-seed summaries the benchmark checks.

Run from the root of a source checkout, only when a change is meant to
alter the program's numerical output:

    python3 benchmarks/reference.py
"""

import json
import sys
from pathlib import Path

from run import use_checkout


def main() -> None:
    use_checkout(Path.cwd())
    import workloads

    ref = {name: wl.reference() for name, wl in workloads.WORKLOADS.items()}
    ref = {name: summary for name, summary in ref.items() if summary is not None}
    workloads.REFERENCE_FILE.write_text(json.dumps(ref, indent=2, sort_keys=True) + "\n")
    print(f"wrote {workloads.REFERENCE_FILE}", file=sys.stderr)


if __name__ == "__main__":
    main()
