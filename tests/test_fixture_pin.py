"""The fixture pipeline's output bytes, pinned in `tests/data/fixture-out.sha256`.

The run covers ingest -> report in all three layouts, both review exports, a
review import of a CSV filled here, emit-ft and stats, all under the replay
script. Each line of the pin is `path sha256` for one file under `out/`.
Manifests are pinned with `python_version` and `package_version` removed, so
one pin holds for every Python version and release.

A change that alters any output byte must update the pin and say in CHANGES
which file changed and why. To rewrite the pin, run
`PYTHONPATH=src python tests/test_fixture_pin.py`.
"""

from __future__ import annotations

import csv
import hashlib
import json
import sys
import tempfile
from pathlib import Path

from conftest import DATA, run_cli

PIN = DATA / "fixture-out.sha256"
STEPS = (
    "ingest", "extract", "build-kg", "genqa", "verify", "eval",
    "report", "report --layout markdown", "report --layout csv",
    "review-export", "review-export --kind triples",
)
UNPINNED_MANIFEST_KEYS = ("python_version", "package_version")


def fill_review(exported: Path, filled: Path) -> None:
    """Give every third question of an exported review CSV a fail, the others a pass, each with a note."""
    with open(exported, encoding="utf-8", newline="") as fh:
        header, *rows = list(csv.reader(fh))
    verdict, notes = header.index("verdict"), header.index("notes")
    for n, row in enumerate(rows):
        row[verdict], row[notes] = ("fail", "distractor also fits") if n % 3 == 2 else ("pass", "")
    with open(filled, "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh).writerows([header, *rows])


def run_fixture(work: Path) -> Path:
    """Run the pinned pipeline into `work`/out and return that directory."""
    out = work / "out"
    run_cli(out, *STEPS)
    filled = work / "review-filled.csv"
    fill_review(out / "review.csv", filled)
    run_cli(out, f"review-import {filled}", "emit-ft", "stats")
    return out


def digests(out: Path) -> dict[str, str]:
    """SHA-256 of every file under `out` by its relative path; manifests without their version fields."""
    found = {}
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        key = path.relative_to(out).as_posix()
        data = path.read_bytes()
        if key.startswith("manifests/"):
            manifest = json.loads(data)
            for field in UNPINNED_MANIFEST_KEYS:
                manifest.pop(field)
            data = (json.dumps(manifest, indent=2, sort_keys=True) + "\n").encode("utf-8")
        found[key] = hashlib.sha256(data).hexdigest()
    return found


def read_pin() -> dict[str, str]:
    return dict(line.split(" ") for line in PIN.read_text(encoding="ascii").splitlines())


def test_the_fixture_pipeline_writes_the_pinned_bytes(tmp_path):
    found, pinned = digests(run_fixture(tmp_path)), read_pin()
    changed = sorted(key for key in found.keys() | pinned.keys() if found.get(key) != pinned.get(key))
    assert not changed, "output files that differ from the pin (missing on one side or changed):\n" + "\n".join(
        f"  {key}: pinned {pinned.get(key, '-')[:12]}, now {found.get(key, '-')[:12]}" for key in changed
    )


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as work:
        lines = [f"{key} {digest}\n" for key, digest in digests(run_fixture(Path(work))).items()]
    PIN.write_text("".join(lines), encoding="ascii")
    print(f"wrote {len(lines)} digests to {PIN}", file=sys.stderr)
