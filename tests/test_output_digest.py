"""What `sylq` prints, and the LPs it solves, are pinned for 187 runs.

`scripts/output_digest.py` digests the exit code, stdout, stderr and, per
`simplex.minimize` call, the pivots and a hash of the LP of every bundled
document in each format and mode, of the four alpha documents on 7- and
101-level grids, of `sylq verify` on each document, of the `scale_sweep`
chains, of `sylq DOC --verify 10` on each document, of help, option
spellings and usage errors, of five stdin documents whose families,
strict rows, universe and repeated sets no other run compiles, of four
stdin documents, one per unbounded outcome kind (one of them in text too,
and the unbounded below one in kersup mode too), and of
`sylq verify - --cap 10` on those nine and on one more, a ratio conclusion
over a declared universe whose denominator varies, of `sylq verify - --cap
1` on an S=10 document the population guard refuses for its 2^10 atoms,
and of one alpha stdin document in text whose `rim(3/2)` cuts are rounded
outward, with its warning.  A change that alters
any of them on purpose regenerates the pin and says why; a failure lists
each changed run's exit code and per-call pivots, old and new:

    python3 scripts/output_digest.py > tests/output_digest.json
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PIN = Path(__file__).resolve().parent / "output_digest.json"


def test_output_digest_is_unchanged():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "output_digest.py")],
        capture_output=True,
        text=True,
        check=True,
    )
    got = json.loads(proc.stdout)
    want = json.loads(PIN.read_text(encoding="utf-8"))
    # each changed run with its exit code and per-call pivots, old -> new,
    # ready to quote when a change re-pins on purpose
    changed = [
        "%s: exit %s -> %s, pivots %s -> %s"
        % (name, run["code"], new.get("code"), run["pivots"], new.get("pivots"))
        for name, run in want["digest"].items()
        if (new := got["digest"].get(name, {})) != run
    ]
    assert not changed, "runs whose output, LPs or pivots changed:\n" + "\n".join(changed)
    assert got == want


def test_other_arguments_exit_2_with_nothing_on_stdout():
    # a mistyped replay step must fail, not print the digest and exit 0
    for args in (["--replya"], ["--replay", "extra"]):
        proc = subprocess.run(
            [sys.executable, str(ROOT / "scripts" / "output_digest.py"), *args],
            capture_output=True,
            text=True,
        )
        assert (proc.returncode, proc.stdout) == (2, ""), args
        assert proc.stderr.startswith("usage:") and proc.stderr.count("\n") == 1, args
