"""Matrix reports checked against the benchmark's independent reference.

``perfbench/reference.py`` rebuilds every number of an ``analyze``,
``bounds``, ``exact`` and ``sweep`` report from the integer entries alone,
with sympy and mpmath and without this package: exact square-free spectra,
40-digit roots and the closed forms.  Here it checks the reports of
``matrix_cases.structured_matrices``, whose repeated eigenvalues a float
spectrum splits apart.  The module reads ``perfbench/`` and writes nothing
there.
"""

from __future__ import annotations

import functools
import json
import random
import sys
from pathlib import Path

import pytest

pytest.importorskip("sympy")
pytest.importorskip("mpmath")

sys.path.append(str(Path(__file__).resolve().parents[1] / "perfbench"))

import reference  # noqa: E402
from workloads import System  # noqa: E402

from matrix_cases import structured_matrices  # noqa: E402
from shrinktarget import cli  # noqa: E402
from shrinktarget.config import parse_config  # noqa: E402

COMMANDS = ("analyze", "bounds", "exact", "sweep")
CASES = dict(structured_matrices())
TAUS = [round(0.2 * k, 10) for k in range(11)]
D2_BOUNDS = "ROADMAP D2: bounds and sweep error on a hyperbolic, non-expanding matrix with |det| > 1"
D2_EXACT = (
    "ROADMAP D2: no exact theorem covers |det| > 1, so the CLI writes an error row "
    "where reference.exact_matrix_row still expects the automorphism row"
)


@functools.cache
def _case(name: str) -> tuple[System, reference.MatrixRef]:
    entries = CASES[name]
    tau = round(random.Random(name).uniform(0.05, 0.6), 6)
    config = {
        "system": {"kind": "matrix", "entries": entries},
        "rates": [
            {
                "phi": {"kind": "exponential", "tau": tau},
                "time_set": {"kind": "all"},
                "target": {"kind": "point", "point": [0.0] * len(entries)},
            }
        ],
        "tasks": ["analyze", "bounds", "exact"],
        "sweep": {"taus": TAUS},
    }
    system = System(name, "matrix", config)
    return system, reference.reference_for(system)


@pytest.mark.parametrize("command", COMMANDS)
@pytest.mark.parametrize("name", sorted(CASES))
def test_report_matches_reference(name, command, request):
    system, ref = _case(name)
    if command != "analyze" and ref.hyperbolic and not ref.expanding and abs(ref.det) > 1:
        reason = D2_EXACT if command == "exact" else D2_BOUNDS
        request.applymarker(pytest.mark.xfail(strict=True, reason=reason))
    report, _, _ = cli.run(parse_config(system.config), command)
    issues = reference.check(system, command, json.loads(cli.render_json(report)), ref)
    assert issues == []
