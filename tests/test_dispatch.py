"""One analysis per CLI call for every command, one dispatcher for bounds,
exact and sweep, and example configs that the CLI runs as-is."""

import json
from collections import Counter
from pathlib import Path

import pytest

from shrinktarget import bounds, cli, oracle, symbolic, systems
from shrinktarget.cli import main

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
    target = {"kind": "point", "point": [0.0] * len(system.get("entries", ()))}
    if system["kind"] != "matrix":
        target = {"kind": "symbols", "head": [], "cycle": [0]}
    return {
        "system": system,
        "rates": [{"phi": {"kind": "exponential", "tau": 0.2}, "time_set": {"kind": "all"}, "target": target}],
        "sweep": {"taus": list(taus)},
    }


def _run(tmp_path: Path, config: dict, command: str = "sweep") -> dict:
    tmp_path.mkdir(exist_ok=True)
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(config))
    assert main([command, "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
    return json.loads((tmp_path / "out" / "report.json").read_text())


def _counted(tmp_path: Path, monkeypatch, config: dict, command: str, counted_names) -> Counter:
    """Calls of each named function during one CLI call, wherever it is bound.

    The modules import these functions by name, so each module namespace
    that holds the original gets the counting wrapper.
    """
    counts: Counter = Counter()
    with monkeypatch.context() as patch:
        for home, name in counted_names:
            original = getattr(home, name)

            def counted(*args, _original=original, _name=name, **kwargs):
                counts[_name] += 1
                return _original(*args, **kwargs)

            for module in (home, cli, oracle):
                if getattr(module, name, None) is original:
                    patch.setattr(module, name, counted)
        _run(tmp_path, config, command)
    return counts


@pytest.mark.parametrize("kind", sorted(SYSTEMS))
def test_sweep_analyses_the_system_once(kind, tmp_path, monkeypatch):
    def counted(path, n_taus):
        config = _sweep_config(SYSTEMS[kind], [0.005 * i for i in range(n_taus)])
        return _counted(path, monkeypatch, config, "sweep", COUNTED)

    few = counted(tmp_path / "few", 3)
    many = counted(tmp_path / "many", 300)
    assert sum(few.values()) > 0
    assert few == many


THEOREMS = tuple(
    (bounds, name)
    for name in (
        "bounds_one_sided_shift",
        "bounds_two_sided_shift",
        "bounds_general_profile",
        "bounds_hyperbolic_set",
        "bounds_expanding",
    )
)


@pytest.mark.parametrize("kind", sorted(SYSTEMS))
def test_sweep_calls_each_theorem_once_per_run(kind, tmp_path, monkeypatch):
    # both grids pass the thresholds 1 (two-sided shift) and ln L1 of the cat
    # map (0.962), so they split into the same runs whatever their length
    def calls(path, taus):
        counts = _counted(path, monkeypatch, _sweep_config(SYSTEMS[kind], taus), "sweep", THEOREMS)
        return sum(counts.values())

    few = calls(tmp_path / "few", [0.0, 1.0, 1.5])
    many = calls(tmp_path / "many", [i / 150 for i in range(300)])
    assert 1 <= few == many <= 4


SHIFT_ANALYSIS = (
    (symbolic, "strongly_connected_components"),
    (symbolic, "mixing_gap"),
    (symbolic, "sft_entropy"),
)


def _oracle_config(command: str, n_rates: int) -> dict:
    target = {"kind": "symbols", "head": [], "cycle": [0]}
    return {
        "system": {"kind": "sft", "transition": [[1, 1], [1, 0]], "sided": "one"},
        "rates": [
            {"phi": {"kind": "exponential", "tau": 0.3 + 0.05 * i}, "time_set": {"kind": "all"}, "target": target}
            for i in range(n_rates)
        ],
        "tasks": [command],
        "oracle_params": {"depth": 8, "stages": 2},
    }


@pytest.mark.parametrize("command", ["oracle", "witness"])
def test_oracle_commands_analyse_the_shift_once(command, tmp_path, monkeypatch):
    def counted(path, n_rates):
        return _counted(path, monkeypatch, _oracle_config(command, n_rates), command, SHIFT_ANALYSIS)

    one = counted(tmp_path / "one", 1)
    many = counted(tmp_path / "many", 16)
    assert one["mixing_gap"] == one["sft_entropy"] == 1
    assert one == many


def test_oracle_counts_words_once_per_target_symbol(tmp_path, monkeypatch):
    # rates that share a first target symbol share one word-count recurrence,
    # and each Moran estimate is one squaring walk
    counted_names = ((symbolic, "word_counts_ending"), (symbolic, "log_count_words_many"))

    def counted(path, config):
        return _counted(path, monkeypatch, config, "oracle", counted_names)

    one = counted(tmp_path / "one", _oracle_config("oracle", 1))
    many = counted(tmp_path / "many", _oracle_config("oracle", 16))
    assert one == {"word_counts_ending": 1, "log_count_words_many": 1}
    assert many == {"word_counts_ending": 1, "log_count_words_many": 16}
    mixed = _oracle_config("oracle", 16)
    for rate in mixed["rates"][::2]:
        rate["target"] = {"kind": "symbols", "head": [], "cycle": [1, 0]}
    assert counted(tmp_path / "mixed", mixed)["word_counts_ending"] == 2


EXAMPLES = sorted((ROOT / "docs" / "examples").glob("*.json"))


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda p: p.stem)
def test_example_config_runs(path, tmp_path):
    # every command the example names, and sweep when it has a grid, as-is
    config = json.loads(path.read_text())
    commands = config["tasks"] + (["sweep"] if "sweep" in config else [])
    for command in commands:
        out = tmp_path / command
        assert main([command, "--config", str(path), "--out", str(out)]) == 0
        (result,) = json.loads((out / "report.json").read_text())["results"]
        if command == "oracle":
            assert result["rows"]
            for row in result["rows"]:
                assert float(row["bracket_lo"]) <= float(row["shift_exact_value"]) < float(row["bracket_hi"])
        if command == "witness":
            assert result["rows"]
            for row in result["rows"]:
                assert row["all_verified"] and row["planned_hits"]
                assert row["independently_confirmed"] == row["planned_hits"]
        if command == "sweep":
            assert (out / "sweep.csv").is_file()
