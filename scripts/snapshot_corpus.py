#!/usr/bin/env python3
"""Golden corpus of CLI outputs: write it, or check the tree against it.

Each configuration below runs the ``transform-orders`` CLI in-process.
Its snapshot in tests/corpus/<name>.txt holds the line ``exit <code>``
followed by the exact stdout bytes (JSON reports, CSV sign maps).  The
corpus is the byte-identity gate for refactors: a change that keeps the
behaviour must leave every snapshot unchanged, and any intended change
to a snapshot is named in CHANGES.md.  The Tier-1 test
tests/test_corpus.py imports CONFIGS from here, so the corpus is defined
in this one place.

Usage:
    PYTHONPATH=src python scripts/snapshot_corpus.py          # write all snapshots
    PYTHONPATH=src python scripts/snapshot_corpus.py --check  # exit 1 on any change

--check names each changed snapshot with its first differing line.
"""

from __future__ import annotations

import argparse
import io
import os
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from transform_orders.cli import main as cli_main

CORPUS = Path(__file__).resolve().parent.parent / "tests" / "corpus"

CLASSIC = ("--lambda", "2,3", "--theta", "1.5,3.5")
REVERSED = ("--lambda", "1.5,3.5", "--theta", "2,3")
HOMOGENEOUS = ("--lambda", "2.5,2.5", "--theta", "1.5,3.5")
IDENTICAL = ("--lambda", "2,3", "--theta", "2,3")
RESCALED = ("--lambda", "2,3", "--theta", "3,7")
NARROW = ("--lambda", "1,1.000001", "--theta", "0.9999995,1.0000015")
EXTREME = ("--lambda", "1,1000", "--theta", "0.5,1000.5")
# NUMERICAL_HOLDS_PAIR of scripts/repr_digest.py: the full (a, b) grid has an
# incomplete pattern, so no numerical HOLDS for the convex order.
NUMERICAL_HOLDS = ("--lambda", "0.6384049867156364,0.7631396960750423",
                   "--theta", "2.308588531300789,3.881142047020032")

# (name, argv, environment)
CONFIGS: tuple[tuple[str, tuple[str, ...], dict[str, str]], ...] = (
    ("classic-star", ("check-star", *CLASSIC), {}),
    ("classic-convex", ("check-convex", *CLASSIC), {}),
    ("classic-convex-at", ("check-convex", *CLASSIC, "--a", "0.749", "--b", "0.0125"), {}),
    ("classic-convex-at-allowed", ("check-convex", *CLASSIC, "--a", "1.5", "--b", "0.1"), {}),
    ("classic-counterexample", ("find-counterexample", *CLASSIC), {}),
    ("classic-sign-floor", ("check-convex", *CLASSIC, "--sign-floor", "1e-14"), {}),
    ("reversed-star", ("check-star", *REVERSED), {}),
    ("reversed-convex", ("check-convex", *REVERSED), {}),
    ("reversed-counterexample", ("find-counterexample", *REVERSED), {}),
    ("homogeneous-star", ("check-star", *HOMOGENEOUS), {}),
    ("homogeneous-convex", ("check-convex", *HOMOGENEOUS), {}),
    ("homogeneous-counterexample", ("find-counterexample", *HOMOGENEOUS), {}),
    ("identical-star", ("check-star", *IDENTICAL), {}),
    ("identical-convex", ("check-convex", *IDENTICAL), {}),
    ("identical-n3-star", ("check-star", "--lambda", "1,2,3", "--theta", "1,2,3"), {}),
    ("n3-star", ("check-star", "--lambda", "2,3,4", "--theta", "1,3,5"), {}),
    ("n3-reversed-star", ("check-star", "--lambda", "1,3,5", "--theta", "2,3,4"), {}),
    ("n3-convex", ("check-convex", "--lambda", "2,3,4", "--theta", "1,3,5"), {}),
    ("n3-counterexample", ("find-counterexample", "--lambda", "2,3,4", "--theta", "1,3,5"), {}),
    ("n4-star", ("check-star", "--lambda", "2,2.5,3,3.5", "--theta", "1.5,2.5,3,4"), {}),
    ("n6-star", ("check-star", "--lambda", "2,2.2,2.4,2.6,2.8,3",
                 "--theta", "1.5,2,2.4,2.6,3,3.5"), {}),
    ("rescaled-star-numerical", ("check-star", *RESCALED, "--allow-numerical-holds"), {}),
    ("rescaled-convex-numerical",
     ("check-convex", *RESCALED, "--allow-numerical-holds"), {}),
    ("numerical-holds-convex",
     ("check-convex", *NUMERICAL_HOLDS, "--allow-numerical-holds"), {}),
    ("narrow-star", ("check-star", *NARROW), {}),
    ("narrow-convex", ("check-convex", *NARROW), {}),
    ("extreme-star", ("check-star", *EXTREME), {}),
    ("extreme-convex", ("check-convex", *EXTREME), {}),
    ("sign-map-tiny-b-csv", ("sign-map", *CLASSIC, "--b", "1e-9"), {}),
    ("sign-map-large-b-csv", ("sign-map", *CLASSIC, "--b", "5"), {}),
    ("sign-map-tiny-b-json", ("sign-map", *CLASSIC, "--b", "1e-9", "--format", "json"), {}),
    ("sign-map-large-b-json", ("sign-map", *CLASSIC, "--b", "5", "--format", "json"), {}),
    ("n3-sign-map-csv", ("sign-map", "--lambda", "2,3,4", "--theta", "1,3,5", "--b", "0.05"), {}),
    ("failure-rate", ("failure-rate", "--lambda", "2,3", "--x", "1.0"), {}),
    ("failure-rate-underflow", ("failure-rate", "--lambda", "2,3", "--x", "1000"), {}),
    ("simulate", ("simulate", "--lambda", "1,2,3", "--samples", "1000", "--seed", "7"), {}),
    ("tol-override", ("check-convex", *CLASSIC, "--a", "0.749", "--b", "0.0125"),
     {"TOL_OVERRIDE": "1e8"}),
)


def render(argv: tuple[str, ...], env: dict[str, str]) -> bytes:
    """Snapshot bytes of one configuration: its exit line, then its stdout.

    TOL_OVERRIDE is unset unless the configuration sets it.
    """
    saved = os.environ.pop("TOL_OVERRIDE", None)
    os.environ.update(env)
    out = io.StringIO()
    try:
        with redirect_stdout(out), redirect_stderr(io.StringIO()):
            code = cli_main(list(argv))
    finally:
        os.environ.pop("TOL_OVERRIDE", None)
        if saved is not None:
            os.environ["TOL_OVERRIDE"] = saved
    return f"exit {code}\n{out.getvalue()}".encode()


def snapshot_path(name: str) -> Path:
    return CORPUS / f"{name}.txt"


def first_difference(old: bytes, new: bytes) -> str:
    """The first line where two snapshots differ, old and new side by side."""
    old_lines, new_lines = old.decode().splitlines(), new.decode().splitlines()
    for i, (a, b) in enumerate(zip(old_lines, new_lines), 1):
        if a != b:
            return f"line {i}: {a.strip()!r} -> {b.strip()!r}"
    i = min(len(old_lines), len(new_lines)) + 1
    return f"line {i}: {len(old_lines)} lines -> {len(new_lines)} lines"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true",
                        help="compare with the stored snapshots instead of writing them")
    args = parser.parse_args(argv)
    changed = []
    if not args.check:
        CORPUS.mkdir(parents=True, exist_ok=True)
    for name, cli_argv, env in CONFIGS:
        data = render(cli_argv, env)
        path = snapshot_path(name)
        if args.check:
            if not path.exists():
                changed.append((name, "no snapshot"))
            elif path.read_bytes() != data:
                changed.append((name, first_difference(path.read_bytes(), data)))
        else:
            path.write_bytes(data)
    for name, where in changed:
        print(f"changed: {name}: {where}", file=sys.stderr)
    if args.check:
        print(f"{len(CONFIGS) - len(changed)} of {len(CONFIGS)} snapshots unchanged")
    else:
        print(f"wrote {len(CONFIGS)} snapshots to {CORPUS}")
    return 1 if changed else 0


if __name__ == "__main__":
    sys.exit(main())
