"""Byte identity of CLI reports against committed golden files.

Each case below is one config; every listed command runs through
``cli.main`` with ``--format both`` and must reproduce, byte for byte, the
``report.json`` and CSV files stored under ``tests/golden/<case>/<command>/``
together with the exit code.

The golden files pin the reports of the bounds/exact/sweep dispatch and of
the oracle and witness commands, so a refactor of the dispatch or of the
counting and matching kernels cannot move a printed digit unnoticed.  To
write them afresh (only when a report is meant to change), run

    python tests/test_golden_reports.py
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

import pytest

if __name__ == "__main__":  # pytest's pythonpath setting does not reach a script
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from shrinktarget.cli import main  # noqa: E402

GOLDEN = Path(__file__).resolve().parent / "golden"

TAUS = [round(0.1 * k, 10) for k in range(21)]  # 0.0, 0.1, ..., 2.0
MATRIX_COMMANDS = ("analyze", "bounds", "exact", "sweep")
SHIFT_COMMANDS = ("analyze", "bounds", "sweep")
CAT = [[2, 1], [1, 1]]


def _rate(phi, target, time_set=None):
    return {"phi": phi, "time_set": time_set or {"kind": "all"}, "target": target}


def _exp(tau):
    return {"kind": "exponential", "tau": tau}


def _point(d):
    return {"kind": "point", "point": [0.0] * d}


def _symbols(cycle):
    return {"kind": "symbols", "head": [], "cycle": cycle}


def _config(system, rates, tasks):
    return {
        "system": system,
        "rates": rates,
        "tasks": list(tasks),
        "sweep": {"taus": TAUS},
        "output": {"dir": "out", "formats": ["json", "csv"]},
    }


def _matrix(entries, rates=None):
    d = len(entries)
    return _config(
        {"kind": "matrix", "entries": entries},
        rates or [_rate(_exp(0.2), _point(d))],
        [t for t in MATRIX_COMMANDS if t != "sweep"],
    )


def _sft(transition, sided, rates):
    return _config(
        {"kind": "sft", "transition": transition, "sided": sided},
        rates,
        [t for t in SHIFT_COMMANDS if t != "sweep"],
    )


def _block_diag(*blocks):
    n = sum(len(b) for b in blocks)
    out = [[0] * n for _ in range(n)]
    at = 0
    for b in blocks:
        for i, row in enumerate(b):
            out[at + i][at : at + len(row)] = row
        at += len(b)
    return out


def _oracle_sft(transition, rates, command, **params):
    """One-sided SFT config for the ``oracle``/``witness`` commands."""
    cfg = _config({"kind": "sft", "transition": transition, "sided": "one"}, rates, [command])
    cfg["oracle_params"] = params
    return cfg


ARITH_EVEN = {"kind": "arithmetic", "offset": 0, "step": 2}
GOLDEN_MEAN = [[1, 1], [1, 0]]
FULL3 = [[1] * 3 for _ in range(3)]
# 60-symbol primitive SFT: a -> b allowed iff (7a + 3b) % 5 != 0
SFT60 = [[int((7 * a + 3 * b) % 5 != 0) for b in range(60)] for a in range(60)]

# name -> (config, {command: expected exit code})
CASES = {
    "cat_map": (_matrix(CAT), dict.fromkeys(MATRIX_COMMANDS, 0)),
    "cat_map_even_times": (
        _matrix(
            CAT,
            [
                _rate(_exp(0.3), _point(2), ARITH_EVEN),
                _rate({"kind": "piecewise_exponential", "period": 2, "taus": [0.8, 0.4]}, _point(2)),
            ],
        ),
        {"bounds": 0, "exact": 0},
    ),
    "hyperbolic_block6": (
        _matrix(_block_diag(CAT, [[1, 1], [1, 2]], [[0, 1], [-1, 3]])),
        dict.fromkeys(MATRIX_COMMANDS, 0),
    ),
    "jordan3_at_2": (
        _matrix([[2, 1, 0], [0, 2, 1], [0, 0, 2]]),
        dict.fromkeys(MATRIX_COMMANDS, 0),
    ),
    "expanding_diag_2_3": (_matrix([[2, 0], [0, 3]]), dict.fromkeys(MATRIX_COMMANDS, 0)),
    "endomorphism_det2": (
        _matrix(_block_diag(CAT, CAT, [[1, 1], [1, -1]])),
        {"analyze": 0, "bounds": 1, "sweep": 1},
    ),
    "shear": (_matrix([[1, 1], [0, 1]]), {"analyze": 0, "bounds": 1, "exact": 1, "sweep": 1}),
    "golden_two_sided": (
        _sft([[1, 1], [1, 0]], "two", [_rate(_exp(0.5), _symbols([0]))]),
        dict.fromkeys(SHIFT_COMMANDS, 0),
    ),
    "full2_even_times": (
        _sft(
            [[1, 1], [1, 1]],
            "one",
            [_rate({"kind": "piecewise_exponential", "period": 2, "taus": [0.8, 0.4]}, _symbols([0]), ARITH_EVEN)],
        ),
        dict.fromkeys(SHIFT_COMMANDS, 0),
    ),
    "period2_common_index": (
        _sft(
            [[0, 0, 1, 1], [0, 0, 1, 1], [1, 1, 0, 0], [1, 1, 0, 0]],
            "one",
            [_rate(_exp(0.2), _symbols([0, 2]), ARITH_EVEN)],
        ),
        dict.fromkeys(SHIFT_COMMANDS, 0),
    ),
    "period2_disjoint_index_two_sided": (
        _sft(
            [[0, 1], [1, 0]],
            "two",
            [
                _rate(_exp(0.2), _symbols([0, 1]), ARITH_EVEN),
                _rate(_exp(0.2), _symbols([1, 0]), ARITH_EVEN),
            ],
        ),
        dict.fromkeys(SHIFT_COMMANDS, 0),
    ),
    "even_shift_sofic": (
        _config(
            {"kind": "sofic", "states": 2, "edges": [[0, 0, "0"], [0, 1, "1"], [1, 0, "1"]], "sided": "one"},
            [_rate(_exp(0.5), _symbols([0]))],
            ["analyze", "bounds"],
        ),
        dict.fromkeys(SHIFT_COMMANDS, 0),
    ),
    "period2_sofic_two_sided": (
        _config(
            {"kind": "sofic", "states": 2, "edges": [[0, 1, "a"], [0, 1, "b"], [1, 0, "c"]], "sided": "two"},
            [_rate(_exp(0.3), _symbols([0]))],
            ["analyze", "bounds"],
        ),
        dict.fromkeys(SHIFT_COMMANDS, 0),
    ),
    "profile_invertible": (
        _config(
            {"kind": "profile", "lambda1": 1.0, "lambda2": 1.5, "ln_l1": 1.2, "ln_l2": 1.7, "h_top": 0.9},
            [_rate(_exp(0.5), _symbols([0]))],
            ["bounds"],
        ),
        {"bounds": 0, "sweep": 0},
    ),
    "profile_expanding": (
        _config(
            {"kind": "profile", "lambda1": "inf", "lambda2": 0.7, "ln_l2": 1.1, "h_top": 1.3},
            [_rate(_exp(0.5), _symbols([0]))],
            ["bounds"],
        ),
        {"bounds": 0, "sweep": 0},
    ),
    # tau 0.02 at depth 60 mixes levels without (n < 50) and with a pinned
    # part in one bracket; at tau 0.05 levels below 20 have none
    "oracle_golden_mean": (
        _oracle_sft(GOLDEN_MEAN, [_rate(_exp(t), _symbols([0])) for t in (0.02, 0.05, 0.5, 1.3)], "oracle", depth=60),
        {"oracle": 0},
    ),
    "oracle_full3": (
        _oracle_sft(FULL3, [_rate(_exp(t), _symbols([0])) for t in (0.3, 1.0)], "oracle", depth=40),
        {"oracle": 0},
    ),
    "oracle_sft60": (
        _oracle_sft(SFT60, [_rate(_exp(0.5), _symbols([0, 1]))], "oracle", depth=12),
        {"oracle": 0},
    ),
    # a single Moran stage: the estimate is one log word count over one length
    "oracle_one_stage": (
        _oracle_sft(
            GOLDEN_MEAN,
            [_rate(_exp(t), _symbols([0])) for t in (0.0, 0.3, 0.5, 1.0)],
            "oracle",
            depth=40,
            stages=1,
        ),
        {"oracle": 0},
    ),
    "witness_golden_zeros": (
        _oracle_sft(GOLDEN_MEAN, [_rate(_exp(0.5), _symbols([0]))], "witness", stages=8),
        {"witness": 0},
    ),
    "witness_schedule3": (
        _oracle_sft(
            GOLDEN_MEAN,
            [
                _rate(
                    _exp(0.4),
                    {
                        "kind": "symbol_schedule",
                        "preperiod": [{"head": [1], "cycle": [0]}],
                        "cycle": [{"cycle": [0]}, {"cycle": [0, 1]}, {"head": [0, 1], "cycle": [0, 0, 1]}],
                    },
                )
            ],
            "witness",
            stages=8,
        ),
        {"witness": 0},
    ),
    "witness_arithmetic": (
        _oracle_sft(
            FULL3,
            [_rate(_exp(0.6), _symbols([2, 0, 1]), {"kind": "arithmetic", "offset": 1, "step": 3})],
            "witness",
            stages=7,
            eta=0.08,
        ),
        {"witness": 0},
    ),
    "witness_sft60": (
        _oracle_sft(SFT60, [_rate(_exp(0.5), _symbols([0, 1]))], "witness", stages=6),
        {"witness": 0},
    ),
}


def _run(case: str, command: str, work: Path) -> tuple[int, dict[str, bytes]]:
    config, _ = CASES[case]
    cfg = work / "config.json"
    cfg.write_text(json.dumps(config))
    out = work / "out"
    code = main([command, "--config", str(cfg), "--out", str(out), "--format", "both"])
    files = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
    return code, files


PARAMS = [(case, command) for case, (_, commands) in CASES.items() for command in commands]


@pytest.mark.parametrize("case,command", PARAMS, ids=[f"{c}-{m}" for c, m in PARAMS])
def test_report_bytes_match_golden(case, command, tmp_path):
    code, files = _run(case, command, tmp_path)
    assert code == CASES[case][1][command]
    expected_dir = GOLDEN / case / command
    expected = {p.name: p.read_bytes() for p in sorted(expected_dir.iterdir())}
    assert sorted(files) == sorted(expected)
    for name, data in expected.items():
        assert files[name] == data, f"{case}/{command}/{name} differs from the golden file"


def _regenerate() -> None:
    for case, (_, commands) in CASES.items():
        for command, want in commands.items():
            with tempfile.TemporaryDirectory() as tmp:
                code, files = _run(case, command, Path(tmp))
            if code != want:
                raise SystemExit(f"{case}/{command}: exit {code}, expected {want}")
            target = GOLDEN / case / command
            shutil.rmtree(target, ignore_errors=True)
            target.mkdir(parents=True)
            for name, data in files.items():
                (target / name).write_bytes(data)
            print(f"wrote {target}", file=sys.stderr)


if __name__ == "__main__":
    _regenerate()
