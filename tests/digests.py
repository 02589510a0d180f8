"""Pinned digests of ``oplab`` output that holds floats, with their recipes.

The tests import the digests and recipes from here.  The module needs no
pytest, so any interpreter can check them:

    PYTHONPATH=src python tests/digests.py

recomputes ``GK_SHA256``, each ``SERIES_SHA256`` and both ``SWEEP_SHA256``
of ``perfbench/workloads.py``, prints one line per digest and exits 1 when
any of them differs.
"""

from __future__ import annotations

import hashlib
import io
import os
import sys
import tempfile
from pathlib import Path

from oplab.cli import run

# stdout of `series` as csv, json and gnuplot, one digest per source, when
# ex46-avoidance was counted on windows of letters and algebra files on the
# proper prefixes of their forbidden words
SERIES_SHA256 = {
    "series --preset ex46-avoidance --max 300":
        "2a334f0053ab02f4121861ad0546a0a68dfc133d123689f561d6a6be52e20725",
    "series --source alg.txt --max 60":
        "13bf0417223f8f9e19c2a4127ede6ab92e10767d0a75d6b1757baf71136c7e15",
}

# the algebra file alg.txt that the SERIES_SHA256 command lines read
SERIES_ALGEBRA = ("var x1\nvar x2\nvar x3\nforbid x1 x2 x1\nforbid x2 x2\n"
                  "forbid x3 x1 x3 x3\nforbid x3 x3 x3\n")

# `gk` command lines (argv, stdin): floorpow:3/2 on both sides of the edges
# of 4096-value pieces, other presets, integral Fraction cells and a flat
# tail whose slope prints as -0.000000
GK_RUNS = [
    *((("--preset", "floorpow:3/2", "--N", str(n)), None)
      for n in (7, 4095, 4096, 4097, 8193, 100000)),
    (("--preset", "ex35:5/2", "--N", "5000"), None),
    (("--preset", "ex62", "--N", "100000"), None),
    (("--preset", "free:2", "--N", "4097"), None),
    (("--preset", "polyring:3", "--N", "2000"), None),
    ((), "".join(f"{n},{3 * (n % 5 + n)}/3\n" for n in range(60))),
    ((), "".join(f"{n},{7 if 11 <= n <= 13 else 0}\n" for n in range(23))),
]

# SHA-256 over the exit code and stdout of `gk` and `gk --emit json` on each
# of GK_RUNS, when gk_estimate cut its pieces at the window start and the
# geometric test's anchors
GK_SHA256 = "7690dbeed177e19dd744fc15bcc26416459d70c2af23d337aaf23f59025d4c72"


def invoke(argv, stdin: str | None = None) -> tuple[int, str]:
    """Exit code and stdout of ``oplab argv``, run in this process, reading
    ``stdin`` when it is given."""
    out = io.StringIO()
    saved = sys.stdin
    if stdin is not None:
        sys.stdin = io.StringIO(stdin)
    try:
        return run(list(argv), out=out), out.getvalue()
    finally:
        sys.stdin = saved


def gk_digest() -> str:
    """The SHA-256 that ``GK_SHA256`` pins."""
    digest = hashlib.sha256()
    for argv, stdin in GK_RUNS:
        for emit in ("csv", "json"):
            code, text = invoke(("gk", *argv, "--emit", emit), stdin)
            digest.update(f"{code}\n{text}".encode())
    return digest.hexdigest()


def series_digest(argv: str) -> str:
    """The SHA-256 that ``SERIES_SHA256[argv]`` pins, run in a fresh
    directory that holds only ``alg.txt``; every run must exit 0."""
    digest = hashlib.sha256()
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as work:
        Path(work, "alg.txt").write_text(SERIES_ALGEBRA)
        os.chdir(work)
        try:
            for emit in ("csv", "json", "gnuplot"):
                code, text = invoke((*argv.split(), "--emit", emit))
                if code:
                    raise RuntimeError(f"{argv} --emit {emit} exited {code}")
                digest.update(text.encode())
        finally:
            os.chdir(cwd)
    return digest.hexdigest()


def sweep_digest(weight: int) -> str:
    """The SHA-256 of ``sweep --relation-weight weight --horizon 40``'s stdout,
    which ``SWEEP_SHA256[weight]`` pins; the run must exit 0."""
    code, text = invoke(("sweep", "--relation-weight", str(weight), "--horizon", "40"))
    if code:
        raise RuntimeError(f"sweep --relation-weight {weight} exited {code}")
    return hashlib.sha256(text.encode()).hexdigest()


def main() -> int:
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
    from workloads import SWEEP_SHA256

    checks = [("gk GK_RUNS", gk_digest(), GK_SHA256)]
    checks += [(argv, series_digest(argv), pinned) for argv, pinned in SERIES_SHA256.items()]
    checks += [(f"sweep --relation-weight {w} --horizon 40", sweep_digest(w), pinned)
               for w, pinned in sorted(SWEEP_SHA256.items())]
    failed = 0
    for name, got, pinned in checks:
        failed += got != pinned
        print(f"{'ok' if got == pinned else 'MISMATCH'} {got} {name}")
    print(f"Python {sys.version.split()[0]}: {len(checks) - failed} of {len(checks)} digests match")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
