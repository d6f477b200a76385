"""The seed-42 command-line walkthrough reproduces its committed digests.

`golden_seed42.json` holds the sha256 of every file that README's
walkthrough writes at seed 42 and of everything it prints to stdout, plus
the Python and numpy versions that made them. The commands run with the
working directory as their root and relative paths, so stdout holds no
machine path. A change that alters an output on purpose regenerates the
manifest, which prints the files whose digests moved:

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import platform
import sys
import tempfile
from pathlib import Path

import numpy as np

from farecast import cli

MANIFEST = Path(__file__).with_name("golden_seed42.json")

# README's walkthrough at seed 42, with the waterfall data written as well.
WALKTHROUGH = [
    ["synth", "--out", "data", "--seed", "42"],
    ["features", "--data", "data", "--out", "out"],
    ["train", "--features", "out", "--out", "out"],
    ["evaluate", "--features", "out", "--models", "out", "--out", "out/comparison.csv"],
    ["explain", "--features", "out", "--models", "out", "--od", "AMS-DXB", "--row", "0",
     "--top", "5", "--out", "w.csv"],
    ["simulate", "--scenario", "data/scenario.ini", "--features", "out", "--models", "out",
     "--out", "out"],
]


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def walkthrough_digests(root: Path) -> dict:
    """Run WALKTHROUGH in the empty directory root and return the manifest:
    the versions, the stdout digest and each written file's digest by its
    path relative to root."""
    stdout = io.StringIO()
    cwd = os.getcwd()
    os.chdir(root)
    try:
        with contextlib.redirect_stdout(stdout):
            for args in WALKTHROUGH:
                code = cli.main(args)
                if code != 0:
                    raise RuntimeError(f"farecast {' '.join(args)} exited {code}")
    finally:
        os.chdir(cwd)
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "stdout": _sha256(stdout.getvalue().encode("utf-8")),
        "files": {path.relative_to(root).as_posix(): _sha256(path.read_bytes())
                  for path in sorted(root.rglob("*")) if path.is_file()},
    }


def changed_outputs(old: dict, new: dict) -> list[str]:
    """Files whose digest differs or that only one manifest holds, then
    "stdout" if its digest differs."""
    names = sorted(old["files"].keys() | new["files"].keys())
    changed = [name for name in names if old["files"].get(name) != new["files"].get(name)]
    if old["stdout"] != new["stdout"]:
        changed.append("stdout")
    return changed


def test_walkthrough_outputs_match_the_golden_digests(tmp_path):
    golden = json.loads(MANIFEST.read_text(encoding="utf-8"))
    got = walkthrough_digests(tmp_path)
    changed = changed_outputs(golden, got)
    assert not changed, (
        f"{len(changed)} of {len(golden['files']) + 1} outputs (the files and stdout) differ "
        f"from {MANIFEST.name} (made with Python {golden['python']}, numpy {golden['numpy']}; "
        f"this run: Python {got['python']}, numpy {got['numpy']}): {changed}"
    )


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        manifest = walkthrough_digests(Path(tmp))
    if MANIFEST.is_file():
        changed = changed_outputs(json.loads(MANIFEST.read_text(encoding="utf-8")), manifest)
        print(f"{len(changed)} outputs changed: {changed}")
    MANIFEST.write_text(json.dumps(manifest, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {MANIFEST} ({len(manifest['files'])} files)", file=sys.stderr)
