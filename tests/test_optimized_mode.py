"""The witness reports under ``python -O``, byte for byte.

``python -O`` strips every ``assert`` statement, so a check written as one
would silently vanish there; ``tests/test_asserts.py`` keeps ``src/`` free
of them.  The witness command's checks are the ones a point's validity
rests on (the admissibility of its prefix, the agreement at each hit), so
this runs ``python -O -m shrinktarget.cli witness`` in a subprocess on each
witness golden config and compares the exit code and every report byte
with the golden files.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

from test_golden_reports import CASES, GOLDEN

REPO = Path(__file__).resolve().parents[1]
WITNESS_CASES = ("witness_golden_zeros", "witness_schedule3", "witness_sft60", "witness_arithmetic")


@pytest.mark.parametrize("case", WITNESS_CASES)
def test_witness_under_optimize_flag_matches_golden(case, tmp_path):
    config, codes = CASES[case]
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "out"
    done = subprocess.run(
        [sys.executable, "-B", "-O", "-m", "shrinktarget.cli", "witness", "--config", str(path), "--out", str(out), "--format", "both"],
        cwd=tmp_path,
        env={"PYTHONPATH": str(REPO / "src"), "PATH": ""},
        capture_output=True,
        text=True,
    )
    assert done.returncode == codes["witness"], done.stderr
    expected = {p.name: p.read_bytes() for p in sorted((GOLDEN / case / "witness").iterdir())}
    assert {p.name: p.read_bytes() for p in sorted(out.iterdir())} == expected
