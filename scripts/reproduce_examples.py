"""Run every bundled syllogism document and tabulate the results.

Prints each document's ``sylq FILE`` text output and writes its
``sylq FILE --format csv`` output (``level,lo,hi,feasible``) into the output
directory, both through the ``sylq`` command-line front end.

    python3 scripts/reproduce_examples.py [--docs DIR] [--out DIR]
"""

from __future__ import annotations

import argparse
import io
import sys
from contextlib import redirect_stdout
from pathlib import Path

from sylq import cli

REPO_ROOT = Path(__file__).resolve().parents[1]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--docs",
        type=Path,
        default=REPO_ROOT / "syllogisms",
        help="directory of .syl documents (default: bundled set)",
    )
    parser.add_argument(
        "--out",
        type=Path,
        default=REPO_ROOT / "results",
        help="directory for per-document CSV files (default: results/)",
    )
    args = parser.parse_args(argv)

    paths = sorted(args.docs.glob("*.syl"))
    if not paths:
        print("no .syl documents in %s" % args.docs, file=sys.stderr)
        return 1
    args.out.mkdir(parents=True, exist_ok=True)

    status = 0
    for path in paths:
        print("== %s" % path.stem)
        text_code = cli.main([str(path)])
        table = io.StringIO()
        with redirect_stdout(table):
            csv_code = cli.main([str(path), "--format", "csv"])
        status = status or text_code or csv_code
        target = args.out / (path.stem + ".csv")
        target.write_text(table.getvalue(), encoding="utf-8")
        print("wrote %s" % target)
        print()
    return status


if __name__ == "__main__":
    sys.exit(main())
