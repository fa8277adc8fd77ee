"""Every command on a corpus of edge configs ends in an exit code, never a traceback.

Each config of the corpus pairs one system with one rate triple: every rate
kind at S = N, then every time-set kind, the other spellings of N and
oversized offsets and steps included, at an exponential rate.  Every command runs on every config
through ``cli.main``: exit 0 or 1 with a report of that command's one
result, or exit 2 for a config that fails validation.
"""

import json
import math

import pytest

from shrinktarget.cli import main
from shrinktarget.config import TASKS

BIG = 10**400  # an integer literal beyond the float range

MATRICES = {
    "one_by_one": [[2]],
    "rotation": [[0, -1], [1, 0]],
    "cat_map": [[2, 1], [1, 1]],
    "complex_pair": [[0, 0, 1], [1, 0, 1], [0, 1, 0]],  # x^3 - x - 1
    "det2": [[3, 1], [1, 1]],
}
SHIFTS = {
    "one_symbol": ([[1]], "one", [0]),
    "golden": ([[1, 1], [1, 0]], "one", [0]),
    "periodic": ([[0, 1], [1, 0]], "one", [0, 1]),
    "two_sided": ([[1, 1], [1, 0]], "two", [0]),
    "reducible": ([[1, 1], [0, 1]], "one", [0]),
}
PROFILE = {"kind": "profile", "lambda2": 1.5, "ln_l2": 1.7, "h_top": 0.9}
SYSTEMS = {
    **{name: ({"kind": "matrix", "entries": m}, len(m)) for name, m in MATRICES.items()},
    **{name: ({"kind": "sft", "transition": t, "sided": sided}, cycle) for name, (t, sided, cycle) in SHIFTS.items()},
    "profile_bi_lipschitz": (dict(PROFILE, lambda1=1.0, ln_l1=1.2), 1),
    "profile_lipschitz": (dict(PROFILE, lambda1="inf"), 1),
    "sofic_even": ({"kind": "sofic", "states": 2, "edges": [[0, 0, "1"], [0, 1, "0"], [1, 0, "0"]]}, [0]),
    "sofic_periodic": ({"kind": "sofic", "states": 2, "edges": [[0, 1, "a"], [1, 0, "b"]], "sided": "two"}, [0]),
    "sofic_states_big": ({"kind": "sofic", "states": BIG, "edges": [[0, 0, "a"]]}, [0]),
}
PHIS = [
    {"kind": "exponential", "tau": 0.5},
    {"kind": "power_law", "a": 2.0},
    {"kind": "piecewise_exponential", "period": 2, "taus": [0.3, 0.8]},
    {"kind": "tabulated", "values": [1.0, 0.5, 0.25], "tail_tau": 0.4},
    {"kind": "exponents", "tau_upper": 0.6, "tau_lower": 0.3},
    {"kind": "exponents", "tau_upper": "inf", "tau_lower": 0.5},
    {"kind": "exponential", "tau": BIG},
]
TIME_SETS = [
    # N spelled three more ways beside "all": each misses finitely many times
    {"kind": "arithmetic", "offset": 0, "step": 1},
    {"kind": "arithmetic", "offset": 5, "step": 1},
    {"kind": "explicit", "times": [0, 1, 2], "tail": {"offset": 3, "step": 1}},
    {"kind": "arithmetic", "offset": 1, "step": 3},
    {"kind": "explicit", "times": [2, 5], "tail": {"kind": "arithmetic", "offset": 10, "step": 2}},
    {"kind": "arithmetic", "offset": BIG, "step": 1},
    {"kind": "arithmetic", "offset": 0, "step": BIG},
    {"kind": "explicit", "times": [1], "tail": {"kind": "arithmetic", "offset": BIG, "step": 1}},
]
GRIDS = [[0, 0.25, 1.5], [0.5, math.inf], [0.1, BIG]]


def _target(spec, variant: int) -> dict:
    """A point target for a matrix or profile (``spec`` its dimension), else a symbol target (``spec`` its cycle)."""
    if isinstance(spec, int):
        point = [0.0] * spec
        return {"kind": "point", "point": point} if variant % 2 else {"kind": "points", "preperiod": [point], "cycle": [point]}
    symbols = {"head": [], "cycle": spec}
    return {"kind": "symbols", **symbols} if variant % 2 else {"kind": "symbol_schedule", "cycle": [symbols]}


def configs(system: dict, spec):
    """One config per rate triple: every rate kind at S = N, then every time set."""
    triples = [(phi, {"kind": "all"}) for phi in PHIS] + [(PHIS[0], s) for s in TIME_SETS]
    for i, (phi, time_set) in enumerate(triples):
        yield {
            "system": system,
            "rates": [{"phi": phi, "time_set": time_set, "target": _target(spec, i)}],
            "tasks": ["bounds"],
            "sweep": {"taus": GRIDS[i % len(GRIDS)]},
            "oracle_params": {"depth": 8, "stages": 3, "eta": 0.2},
        }


@pytest.mark.parametrize("name", sorted(SYSTEMS))
def test_every_command_ends_in_an_exit_code(tmp_path, capsys, name):
    cfg, out = tmp_path / "config.json", tmp_path / "out"
    for i, payload in enumerate(configs(*SYSTEMS[name])):
        cfg.write_text(json.dumps(payload))
        for command in (*TASKS, "sweep"):
            rc = main([command, "--config", str(cfg), "--out", str(out)])
            assert rc in (0, 1, 2), (i, command)
            if rc != 2:
                (res,) = json.loads((out / "report.json").read_text())["results"]
                assert (res["task"], res["status"]) == (command, "ok" if rc == 0 else "error"), (i, command)
    capsys.readouterr()
