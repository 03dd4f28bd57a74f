"""Set-up probe, run in a fresh interpreter by ``run.py``.

Reads a scenario document on standard input and prints the seconds taken to
import chernlab and build the document's metrics and maps (catalog
construction, expression parsing and probe validation), running no task.
"""

import json
import sys
from pathlib import Path
from time import perf_counter


def main():
    doc = json.load(sys.stdin)
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    start = perf_counter()
    from chernlab.scenario import run_scenario

    run_scenario({**doc, "tasks": []})
    print(perf_counter() - start)


if __name__ == "__main__":
    main()
