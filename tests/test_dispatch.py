"""One analysis per CLI call, one dispatcher for bounds, exact and sweep."""

import importlib.util
import json
from collections import Counter
from pathlib import Path

import pytest

from shrinktarget import symbolic, systems
from shrinktarget.cli import fmt, main

ROOT = Path(__file__).resolve().parents[1]
CAT = [[2, 1], [1, 1]]

SYSTEMS = {
    "sft": {"kind": "sft", "transition": [[1, 1], [1, 0]], "sided": "two"},
    "sofic": {"kind": "sofic", "states": 2, "edges": [[0, 0, "0"], [0, 1, "1"], [1, 0, "1"]]},
    "matrix": {"kind": "matrix", "entries": CAT},
}
COUNTED = (
    (symbolic, "strongly_connected_components"),
    (symbolic, "perron_root"),
    (systems, "_eigen_moduli"),
)


def _sweep_config(system: dict, taus) -> dict:
    target = {"kind": "point", "point": [0.0, 0.0]}
    if system["kind"] != "matrix":
        target = {"kind": "symbols", "head": [], "cycle": [0]}
    return {
        "system": system,
        "rates": [{"phi": {"kind": "exponential", "tau": 0.2}, "time_set": {"kind": "all"}, "target": target}],
        "sweep": {"taus": list(taus)},
    }


def _run_sweep(tmp_path: Path, config: dict) -> dict:
    tmp_path.mkdir(exist_ok=True)
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(config))
    assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
    return json.loads((tmp_path / "out" / "report.json").read_text())


def _counted_sweep(tmp_path: Path, monkeypatch, system: dict, n_taus: int) -> Counter:
    counts: Counter = Counter()
    with monkeypatch.context() as patch:
        for module, name in COUNTED:
            original = getattr(module, name)

            def counted(*args, _original=original, _name=name, **kwargs):
                counts[_name] += 1
                return _original(*args, **kwargs)

            patch.setattr(module, name, counted)
        _run_sweep(tmp_path, _sweep_config(system, [0.005 * i for i in range(n_taus)]))
    return counts


@pytest.mark.parametrize("kind", sorted(SYSTEMS))
def test_sweep_analyses_the_system_once(kind, tmp_path, monkeypatch):
    few = _counted_sweep(tmp_path / "few", monkeypatch, SYSTEMS[kind], 3)
    many = _counted_sweep(tmp_path / "many", monkeypatch, SYSTEMS[kind], 300)
    assert sum(few.values()) > 0
    assert few == many


def _load_script(name: str):
    spec = importlib.util.spec_from_file_location(name, ROOT / "scripts" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_cat_map_script_rows_equal_cli_sweep_rows(tmp_path):
    step = 0.05
    rows = _load_script("cat_map_sweep").sweep(tuple(map(tuple, CAT)), step)
    taus = [k * step for k in range(len(rows))]
    assert [row["tau"] for row in rows] == [fmt(t) for t in taus]
    report = _run_sweep(tmp_path, _sweep_config(SYSTEMS["matrix"], taus))
    assert report["results"][0]["rows"] == rows
