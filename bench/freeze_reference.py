#!/usr/bin/env python3
"""Freeze the six ``reproduce`` figures as the curves workload's reference.

    python3 bench/freeze_reference.py

Writes bench/reference_curves.json.  Run it only at the commit that defines
the reference: every later commit is checked against these values.
"""

import json
import sys

import run


def main() -> int:
    run.load_pairsim()
    from pairsim import cli

    run.WORK.mkdir(exist_ok=True)
    out = run.WORK / "figure.json"
    reference = {}
    for figure in run.FILTER_FIGURES + run.AWG_FIGURES:
        if cli.main(["reproduce", "--figure", figure, "--out", str(out)]) != 0:
            sys.exit(f"reproduce --figure {figure} failed")
        with open(out, encoding="utf-8") as fh:
            table = json.load(fh)
        reference[figure] = {"columns": table["columns"], "rows": table["rows"]}
    out.unlink()
    # one row per line: reviewable diffs, exact float round trip
    blocks = []
    for figure, table in reference.items():
        rows = ",\n".join("    " + json.dumps(row) for row in table["rows"])
        blocks.append(f'  "{figure}": {{"columns": {json.dumps(table["columns"])}, "rows": [\n{rows}\n  ]}}')
    with open(run.REFERENCE, "w", encoding="utf-8") as fh:
        fh.write("{\n" + ",\n".join(blocks) + "\n}\n")
    print(f"wrote {run.REFERENCE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
