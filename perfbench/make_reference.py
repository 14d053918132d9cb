"""Record the reference output digests that every benchmark report must match.

Run from the repository root, on a commit whose output is known good:

    python3 perfbench/make_reference.py

It runs ``nws-repro report --seed S`` cold at ``--jobs 2`` for the seed
the benchmark uses and writes the digest of the output tree to
``perfbench/reference.json``.  The repository treats report output as
byte-stable, so a digest changes only when a change alters the paper's
tables or figures on purpose.
"""

from __future__ import annotations

import json
import shutil
import sys

from report_part import JOBS, REFERENCE, SEED, report_args
from common import ROOT, cli_command, launch, program_present, reap, tree_digest


def main() -> int:
    if not program_present():
        print("make_reference: no program sources under src/", file=sys.stderr)
        return 2
    work = ROOT / ".perfbench_work" / "reference"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        out = work / "out"
        code, _ = reap(launch(cli_command(*report_args(out, SEED, work / "cache", JOBS))))
        if code != 0:
            print(f"make_reference: report exited {code}", file=sys.stderr)
            return 1
        digest = tree_digest(out)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    REFERENCE.write_text(json.dumps({"digests": {str(SEED): digest}}, indent=2) + "\n")
    print(f"seed {SEED}: {digest}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
