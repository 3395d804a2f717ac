"""Print a JSON digest of what `sylq` prints for a fixed set of 187 runs.

The runs are every bundled document in text, JSON and CSV, each in its own
mode and with `--mode` crisp, kersup and alpha (96 runs); the four alpha
documents in JSON on grids of 7 levels (cut levels such as 1/6, whose
bounds are not decimal) and of 101 levels (8 runs); `sylq verify --cap 10`
on every document (8 runs); the 18 `scale_sweep` chains of
`perfbench/bench_inputs.py` in text and JSON (36 runs); `sylq DOC
--verify 10` on every document (8 runs), whose audit solves nothing past
the run's own LPs; 8 runs of how the command line is read: `--help`
and `verify --help`, `--format=json`, a prefix (`--form json`), FILE after
the options, and three usage errors; 5 documents on stdin in JSON
(STDIN_DOCS) that compile what no other run does: comparative and
similarity families, some/not-all, a declared universe and a set named
twice in one row; 4 documents on stdin in JSON (UNBOUNDED_DOCS), one per
unbounded outcome kind, the first of them in text too and the unbounded
below one in kersup mode too (6 runs), so the minimum of a nonnegative
measure unbounded above is pinned in text and JSON, and kersup's kernel and
support where both levels are unbounded below; `sylq verify - --cap 10`
on each stdin document and on VERIFY_DOC (10 runs), so the oracle's ranges of
their conclusions, and the population guard's refusal of the two S=3
`universe: 40` documents, are pinned too; `sylq verify - --cap 1` on an
S=10 document (ATOMS_DOC), whose 2^10 atoms the population guard refuses;
and one alpha document on stdin in text (RIM_DOC), whose `rim(3/2)` cuts
are rounded down to a multiple of 1e-09 and whose output warns that they
are.  For each run the digest records
the exit code, a SHA-256 of stdout and of stderr, and for every
`simplex.minimize` call in order its pivots and a SHA-256 of the LP it was
given (costs and rows).

Run it in two checkouts and diff the results; identical files mean the two
trees print the same bytes and hand the simplex the same LPs, call for call,
with the same pivots:

    python3 scripts/output_digest.py > digest.json

With `--replay` it instead checks the runs that do not enumerate against
the pin in `tests/output_digest.json` (see replay) and exits 1 if any
changed:

    python3 scripts/output_digest.py --replay

Any other argument prints a one-line usage on stderr and exits 2.
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
# what no bundled document or chain compiles: comparative and similarity
# families, some/not-all (strict rows), a declared universe (with a ratio
# conclusion, a rhs on the Charnes-Cooper t column) and a set named twice
# in one row (`a vs a`; `some * -> *` with its strict margin on the universe)
STDIN_DOCS = (
    (
        "stdin cmpabs a vs a",
        "terms: a, b\n"
        "premise: cmpabs[0, 2] a vs a\n"
        "premise: cmpabs[1, 3] a vs b\n"
        "premise: abs[2, 6] a -> b\n"
        "premise: abs[0, 12] * -> b\n"
        "conclude: cmpabs? b vs a & b\n",
    ),
    (
        "stdin universe some not-all prop",
        "terms: a, b, c\n"
        "universe: 40\n"
        "premise: some a -> b\n"
        "premise: not-all b -> c\n"
        "premise: abs[5, 10] a -> b\n"
        "premise: abs[2, 6] a -> c\n"
        "premise: exc[0, 20] * -> c\n"
        "conclude: prop? a -> c\n",
    ),
    (
        "stdin some not-all prop",
        "terms: a, b, c\n"
        "premise: some * -> *\n"
        "premise: not-all a -> b\n"
        "premise: prop[0.2, 0.6] b -> c\n"
        "premise: some a -> c\n"
        "conclude: prop? a -> b | c\n",
    ),
    (
        "stdin cmpprop sim",
        "terms: a, b, c\n"
        "premise: cmpprop[0.5, 2] a vs b\n"
        "premise: sim[0.3, 0.8] a vs c\n"
        "premise: prop[0.1, 0.9] b -> c\n"
        "conclude: sim? b vs c\n",
    ),
    (
        "stdin universe alpha cmpprop",
        "terms: a, b, c\n"
        "universe: 40\n"
        "premise: cmpabs tz(-2, 0, 0, 2) a vs a\n"
        "premise: cmpprop tz(0.5, 1, 1.5, 2) a vs b\n"
        "premise: abs[4, 30] a -> c\n"
        "premise: sim[0.2, 0.9] b vs c\n"
        "conclude: cmpprop? c vs a\n"
        "options: mode=alpha\n",
    ),
)
# one document per outcome kind that no other run reaches: unbounded above
# with a nonnegative objective and a positive minimum, unbounded above with
# a signed objective, unbounded below, and unbounded both ways at every
# alpha level
UNBOUNDED_DOCS = (
    (
        "stdin exc unbounded above attained",
        "terms: dog, cat, parrot\n"
        "premise: exc[2, 2] * -> dog\n"
        "premise: exc[2, 2] * -> cat\n"
        "premise: exc[2, 2] * -> parrot\n"
        "conclude: abs? * -> *\n",
    ),
    (
        "stdin cmpabs unbounded above",
        "terms: a, b\n"
        "premise: cmpabs[-2, inf] a vs b\n"
        "conclude: cmpabs? a vs b\n",
    ),
    (
        "stdin cmpabs unbounded below",
        "terms: a, b\n"
        "premise: cmpabs[1, inf] a vs b\n"
        "conclude: cmpabs? b vs a\n",
    ),
    (
        "stdin alpha unbounded both ways",
        "terms: p, q\n"
        "premise: abs tz(1, 2, 3, 4) p -> q\n"
        "conclude: cmpabs? p vs q\n",
    ),
)
# verified on stdin besides STDIN_DOCS and UNBOUNDED_DOCS: a ratio conclusion over a declared
# universe whose denominator varies, with num > den on some populations
VERIFY_DOC = (
    "stdin universe cmpprop",
    "terms: a, b\n"
    "universe: 60\n"
    "premise: prop[0.2, 0.8] * -> a\n"
    "premise: abs[10, 40] * -> b\n"
    "premise: prop[0.5, 0.9] a -> b\n"
    "conclude: cmpprop? b vs a\n",
)

# S=10 properties: 2^10 atoms, past the population guard's 2^9 (the
# oracle recurses once per atom), though its 1024 populations of size 1
# are within the count
ATOMS_DOC = (
    "stdin S=10 universe 1",
    "terms: %s\n"
    "universe: 1\n"
    "premise: abs[0, 1] p0 -> p1\n"
    "conclude: abs? p0 -> p1\n" % ", ".join("p%d" % i for i in range(10)),
)

# a RIM premise whose 1/e = 2/3 is not an integer: its cuts between levels 0
# and 1 are rounded outward, which the answer's lower ends show and a
# warning says
RIM_DOC = (
    "stdin alpha rim rounded",
    "terms: p, q, r\n"
    "premise: prop rim(3/2) p -> q\n"
    "premise: all q -> r\n"
    "conclude: prop? p -> r\n"
    "options: mode=alpha\n",
)


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
    pets = "syllogisms/pets_at_home.syl"
    yield "help", ["--help"], None
    yield "verify help", ["verify", "--help"], None
    yield "pets_at_home json equals", [pets, "--format=json"], None
    yield "pets_at_home json prefix", [pets, "--form", "json"], None
    warehouse = "syllogisms/warehouse_sales_mix.syl"
    yield "warehouse_sales_mix file last", ["--mode", "alpha", "--format", "csv", warehouse], None
    yield "usage error choice", [pets, "--format", "xml"], None
    yield "usage error missing value", [pets, "--levels"], None
    yield "usage error second file", ["verify", pets, pets], None
    for name, text in (*STDIN_DOCS, *UNBOUNDED_DOCS):
        yield name, ["-", "--format", "json"], text
    name, text = UNBOUNDED_DOCS[0]
    yield "%s text" % name, ["-"], text
    name, text = UNBOUNDED_DOCS[2]
    yield "%s kersup" % name, ["-", "--mode", "kersup", "--format", "json"], text
    for name, text in (*STDIN_DOCS, *UNBOUNDED_DOCS, VERIFY_DOC):
        yield "%s verify" % name, ["verify", "-", "--cap", "10"], text
    name, text = ATOMS_DOC
    yield "%s verify" % name, ["verify", "-", "--cap", "1"], text
    name, text = RIM_DOC
    yield name, ["-"], text


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


def digest_one(argv, stdin):
    """The digest entry of one run."""
    code, out, err, pivots, lps = run_one(argv, stdin)
    return {"code": code, "stdout": _sha(out), "stderr": _sha(err), "pivots": pivots, "lps": lps}


# how many runs do not enumerate: replay() checks each of them
REPLAYED = 160


def replay() -> int:
    """Replay every pinned run that does not enumerate against the pin.

    Those runs need only the standard library (the runs that enumerate, with
    `--cap` or `--verify`, need numpy), so they check the pin on any
    supported Python.  Returns 1 when a run changed or the count of replayed
    runs is not REPLAYED, else 0.
    """
    pin = json.loads((REPO_ROOT / "tests" / "output_digest.json").read_text(encoding="utf-8"))
    replayed, changed = 0, []
    for name, argv, stdin in runs():
        if "--cap" in argv or "--verify" in argv:
            continue
        replayed += 1
        if digest_one(argv, stdin) != pin["digest"][name]:
            changed.append(name)
    print("%d runs replayed, changed: %s" % (replayed, ", ".join(changed) or "none"))
    return int(bool(changed) or replayed != REPLAYED)


def main(args) -> int:
    if args not in ([], ["--replay"]):
        print("usage: python3 scripts/output_digest.py [--replay]", file=sys.stderr)
        return 2
    os.chdir(REPO_ROOT)  # documents are named by relative path in every output
    if args:
        return replay()
    digest = {name: digest_one(argv, stdin) for name, argv, stdin in runs()}
    total = sum(sum(run["pivots"]) for run in digest.values())
    print(json.dumps({"runs": len(digest), "pivots": total, "digest": digest}, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
