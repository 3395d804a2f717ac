"""Print a JSON digest of what `sylq` prints for a fixed set of 156 runs.

The runs are every bundled document in text, JSON and CSV, each in its own
mode and with `--mode` crisp, kersup and alpha (96 runs); the four alpha
documents in JSON on grids of 7 levels (cut levels such as 1/6, whose
bounds are not decimal) and of 101 levels (8 runs); `sylq verify --cap 10`
on every document (8 runs); the 18 `scale_sweep` chains of
`perfbench/bench_inputs.py` in text and JSON (36 runs); and `sylq DOC
--verify 10` on every document (8 runs), whose audit solves nothing past
the run's own LPs.  For each run the digest records the exit code, a
SHA-256 of stdout and of stderr, and for every `simplex.minimize` call in
order its pivots and a SHA-256 of the LP it was given (costs and rows).

Run it in two checkouts and diff the results; identical files mean the two
trees print the same bytes and hand the simplex the same LPs, call for call,
with the same pivots:

    python3 scripts/output_digest.py > digest.json
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(REPO_ROOT / "src"), str(REPO_ROOT / "perfbench")]

import bench_inputs  # noqa: E402
from sylq import cli, simplex  # noqa: E402

FORMATS = ("text", "json", "csv")
MODES = (None, "crisp", "kersup", "alpha")
GRID_DOCS = (
    "course_passrates_fuzzy",
    "course_passrates_nonnormalized",
    "wine_exports_rim",
    "wine_boxes_exception",
)
GRID_LEVELS = (7, 101)


def runs():
    """(name, argv, stdin text or None) for every run, in a fixed order."""
    docs = sorted(p.stem for p in (REPO_ROOT / "syllogisms").glob("*.syl"))
    for doc in docs:
        path = "syllogisms/%s.syl" % doc
        for fmt in FORMATS:
            for mode in MODES:
                argv = [path, "--format", fmt] + (["--mode", mode] if mode else [])
                yield "%s %s %s" % (doc, fmt, mode or "own"), argv, None
    for doc in GRID_DOCS:
        for levels in GRID_LEVELS:
            argv = ["syllogisms/%s.syl" % doc, "--format", "json", "--levels", str(levels)]
            yield "%s levels %d" % (doc, levels), argv, None
    for doc in docs:
        yield "%s verify" % doc, ["verify", "syllogisms/%s.syl" % doc, "--cap", "10"], None
    for case in bench_inputs.scale_cases(0):
        for fmt in ("text", "json"):
            yield "%s %s" % (case.name, fmt), ["-", "--format", fmt], case.stdin
    for doc in docs:
        yield "%s --verify" % doc, ["syllogisms/%s.syl" % doc, "--verify", "10"], None


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def lp_sha(costs, rows) -> str:
    """SHA-256 of one LP, the same for equal values in lists or tuples."""
    lp = (tuple(costs), tuple((tuple(nums), den, rel) for nums, den, rel in rows))
    return _sha(repr(lp))


def run_one(argv, stdin):
    """Exit code, stdout, stderr, and per-call pivots and LP hashes of one run."""
    pivots, lps = [], []
    original = simplex.minimize

    def recording_minimize(costs, rows, **kwargs):
        lps.append(lp_sha(costs, rows))
        sol = original(costs, rows, **kwargs)
        pivots.append(sol.pivots)
        return sol

    out, err = io.StringIO(), io.StringIO()
    saved_stdin = sys.stdin
    sys.stdin = io.StringIO(stdin or "")
    simplex.minimize = recording_minimize
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(argv)
    finally:
        simplex.minimize = original
        sys.stdin = saved_stdin
    return code, out.getvalue(), err.getvalue(), pivots, lps


def main() -> int:
    os.chdir(REPO_ROOT)  # documents are named by relative path in every output
    digest = {}
    for name, argv, stdin in runs():
        code, out, err, pivots, lps = run_one(argv, stdin)
        digest[name] = {
            "code": code,
            "stdout": _sha(out),
            "stderr": _sha(err),
            "pivots": pivots,
            "lps": lps,
        }
    total = sum(sum(run["pivots"]) for run in digest.values())
    print(json.dumps({"runs": len(digest), "pivots": total, "digest": digest}, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
