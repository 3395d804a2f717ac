"""What `sylq` prints, and the LPs it solves, are pinned for 169 runs.

`scripts/output_digest.py` digests the exit code, stdout, stderr and, per
`simplex.minimize` call, the pivots and a hash of the LP of every bundled
document in each format and mode, of the four alpha documents on 7- and
101-level grids, of `sylq verify` on each document, of the `scale_sweep`
chains, of `sylq DOC --verify 10` on each document, of help, option
spellings and usage errors, and of five stdin documents whose families,
strict rows, universe and repeated sets no other run compiles.  A change
that alters any of them on purpose regenerates the pin and says why:

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
    assert (got["runs"], got["pivots"]) == (want["runs"], want["pivots"])
    changed = sorted(
        name for name, run in want["digest"].items() if got["digest"].get(name) != run
    )
    assert not changed, "runs whose output, LPs or pivots changed: %s" % ", ".join(changed)
    assert got == want
