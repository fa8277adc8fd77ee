"""Seeded workload corpus: which systems, which CLI calls, which configs.

Everything here is plain data built from ``random.Random(seed)``; nothing
imports the library under test.  The seed relabels SFT alphabets by a
permutation (conjugacy keeps entropy, period, mixing gap and every bound),
draws the tau grids of the sweeps and draws rate exponents from fixed ranges.

The oracle taus are fixed, not seeded: whether a finite-depth bracket
contains h/(1+tau) depends on tau alone, so seeded taus would make the
failed-call count and max_ref_err depend on the seed rather than on the
program.  They are drawn once from a fixed generator, not picked by hand.

The two golden-mean witness inputs keep the identity labelling: the witness
filler is the lexicographically least admissible word, so relabelling a
two-letter alphabet changes whether the filler agrees with the target and
with it the amount of work, which would make the run time depend on the
seed's parity rather than on the program.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

@dataclass(frozen=True)
class System:
    """One generated config: the system data the checker rebuilds references from."""

    name: str
    kind: str  # "matrix", "sft" or "sofic"
    config: dict


@dataclass(frozen=True)
class Call:
    system: str
    command: str


@dataclass(frozen=True)
class Workload:
    name: str
    systems: tuple[System, ...]
    calls: tuple[Call, ...]

    def system(self, name: str) -> System:
        return next(s for s in self.systems if s.name == name)


# --- systems -----------------------------------------------------------------

CAT = [[2, 1], [1, 1]]


def block_diag(*blocks: list[list[int]]) -> list[list[int]]:
    n = sum(len(b) for b in blocks)
    out = [[0] * n for _ in range(n)]
    at = 0
    for b in blocks:
        for i, row in enumerate(b):
            out[at + i][at : at + len(row)] = row
        at += len(b)
    return out


def jordan(value: int, d: int) -> list[list[int]]:
    return [[value if i == j else (1 if j == i + 1 else 0) for j in range(d)] for i in range(d)]


# three trace-3, det-1 blocks: two eigenvalue moduli, only one block normal
HYPERBOLIC_6 = block_diag(CAT, [[1, 1], [1, 2]], [[0, 1], [-1, 3]])
# |det| = 2, hyperbolic but not expanding
ENDOMORPHISM_6 = block_diag(CAT, CAT, [[1, 1], [1, -1]])
DOUBLE_CAT_4 = block_diag(CAT, CAT)


def sft60() -> list[list[int]]:
    return [[1 if (7 * i + 3 * j) % 5 != 0 else 0 for j in range(60)] for i in range(60)]


def cycle_with_chord(k: int) -> list[list[int]]:
    """k-cycle plus the chord k-1 -> 1: cycles of lengths k and k-1,
    mixing gap (k-1)^2 + 1 (the Wielandt bound)."""
    m = [[0] * k for _ in range(k)]
    for i in range(k):
        m[i][(i + 1) % k] = 1
    m[k - 1][1] = 1
    return m


# oracle rates per call on the golden mean and the full 3-shift, where a
# bracket takes milliseconds (one 60-symbol bracket takes seconds)
ORACLE_TAUS = 16

GOLDEN = [[1, 1], [1, 0]]
FULL3 = [[1, 1, 1], [1, 1, 1], [1, 1, 1]]
# even shift: state 0 emits 0 (stay) or 1 (to 1); state 1 emits 1 (back to 0)
EVEN_SHIFT_EDGES = [[0, 0, "0"], [0, 1, "1"], [1, 0, "1"]]


def relabel(matrix: list[list[int]], perm: list[int]) -> list[list[int]]:
    """Conjugate by the symbol permutation a -> perm[a]."""
    k = len(matrix)
    out = [[0] * k for _ in range(k)]
    for a in range(k):
        for b in range(k):
            out[perm[a]][perm[b]] = matrix[a][b]
    return out


def _perm(rng: random.Random, k: int) -> list[int]:
    p = list(range(k))
    rng.shuffle(p)
    return p


def _rate(tau: float, target: dict) -> dict:
    return {
        "phi": {"kind": "exponential", "tau": tau},
        "time_set": {"kind": "all"},
        "target": target,
    }


def _symbols(cycle: list[int]) -> dict:
    return {"kind": "symbols", "cycle": cycle}


def _config(system: dict, rate: dict, tasks: list[str], **extra) -> dict:
    cfg = {
        "system": system,
        "rates": [rate],
        "tasks": tasks,
        "output": {"dir": "out", "formats": ["json", "csv"]},
    }
    cfg.update(extra)
    return cfg


def _tau(rng: random.Random, lo: float, hi: float) -> float:
    return round(rng.uniform(lo, hi), 6)


def _grid(rng: random.Random, n: int, hi: float) -> list[float]:
    return sorted({round(rng.uniform(0.0, hi), 9) for _ in range(n)})


def _matrix(name: str, entries, rng, tasks, grid=None) -> System:
    d = len(entries)
    extra = {"sweep": {"taus": grid}} if grid is not None else {}
    cfg = _config(
        {"kind": "matrix", "entries": entries},
        _rate(_tau(rng, 0.05, 0.6), {"kind": "point", "point": [0.0] * d}),
        tasks,
        **extra,
    )
    return System(name, "matrix", cfg)


def _sft(name, matrix, rng, tasks, target, sided="one", tau_range=(0.05, 0.6), perm=True, taus=None, **extra):
    """An SFT relabelled by a seeded permutation; one rate with a seeded tau,
    or one rate per tau of ``taus``."""
    k = len(matrix)
    p = _perm(rng, k) if perm else list(range(k))
    target = _relabel_target(target, p)
    cfg = _config(
        {"kind": "sft", "transition": relabel(matrix, p), "sided": sided},
        _rate(_tau(rng, *tau_range), target),
        tasks,
        **extra,
    )
    if taus is not None:
        cfg["rates"] = [_rate(t, target) for t in taus]
    return System(name, "sft", cfg)


def _relabel_target(target: dict, p: list[int]) -> dict:
    if target["kind"] == "symbols":
        return {"kind": "symbols", "cycle": [p[c] for c in target["cycle"]]}
    return {
        "kind": "symbol_schedule",
        "cycle": [{"cycle": [p[c] for c in seq["cycle"]]} for seq in target["cycle"]],
    }


# --- workloads ---------------------------------------------------------------


def tau_sweep(rng: random.Random, tiny: bool) -> Workload:
    n = 40 if tiny else 2000
    sweep = lambda: {"sweep": {"taus": _grid(rng, n, 2.0)}}  # noqa: E731
    shift_tasks = ["analyze", "bounds"]
    matrix_tasks = ["analyze", "bounds", "exact"]
    systems = [
        _sft("sft60", sft60(), rng, shift_tasks, _symbols([0, 1]), **sweep()),
        _sft("golden_two_sided", GOLDEN, rng, shift_tasks, _symbols([0]), sided="two", **sweep()),
        System(
            "even_shift",
            "sofic",
            _config(
                {"kind": "sofic", "states": 2, "edges": EVEN_SHIFT_EDGES, "sided": "one"},
                _rate(_tau(rng, 0.05, 0.6), _symbols([0])),
                shift_tasks,
                **sweep(),
            ),
        ),
        _matrix("cat", CAT, rng, matrix_tasks, _grid(rng, n, 2.0)),
        _matrix("hyperbolic6", HYPERBOLIC_6, rng, matrix_tasks, _grid(rng, n, 2.0)),
        _matrix("jordan3", jordan(2, 3), rng, matrix_tasks, _grid(rng, n, 2.0)),
        _matrix("endomorphism6", ENDOMORPHISM_6, rng, ["analyze", "bounds"]),
    ]
    calls = []
    for s in systems:
        calls += [Call(s.name, t) for t in s.config["tasks"]]
        if "sweep" in s.config:
            calls.append(Call(s.name, "sweep"))
    return Workload("tau_sweep", tuple(systems), tuple(calls))


def oracle_deep(rng: random.Random, tiny: bool) -> Workload:
    def params(depth: int) -> dict:
        return {"oracle_params": {"depth": depth, "stages": 4 if tiny else 12}}

    fixed = random.Random("oracle_deep taus")
    taus = lambda n: [_tau(fixed, 0.3, 0.7) for _ in range(n)]  # noqa: E731
    many = 2 if tiny else ORACLE_TAUS
    systems = [
        _sft("sft60", sft60(), rng, ["oracle"], _symbols([0, 1]), taus=taus(1), **params(8 if tiny else 40)),
        _sft("golden", GOLDEN, rng, ["oracle"], _symbols([0]), taus=taus(many), **params(200)),
        _sft("full3", FULL3, rng, ["oracle"], _symbols([0]), taus=taus(many), **params(100)),
    ]
    return Workload("oracle_deep", tuple(systems), tuple(Call(s.name, "oracle") for s in systems))


def witness_long(rng: random.Random, tiny: bool) -> Workload:
    params = {"oracle_params": {"stages": 4 if tiny else 14}}
    schedule = [[0], [0, 1], [1, 0]]
    rng.shuffle(schedule)
    fixed = (0.5, 0.5)
    systems = [
        _sft("golden_zeros", GOLDEN, rng, ["witness"], _symbols([0]), tau_range=fixed, perm=False, **params),
        _sft(
            "golden_schedule",
            GOLDEN,
            rng,
            ["witness"],
            {"kind": "symbol_schedule", "cycle": [{"cycle": c} for c in schedule]},
            tau_range=fixed,
            perm=False,
            **params,
        ),
        _sft("sft60", sft60(), rng, ["witness"], _symbols([0, 1]), tau_range=fixed, **params),
    ]
    return Workload("witness_long", tuple(systems), tuple(Call(s.name, "witness") for s in systems))


def analyze_slow_mixing(rng: random.Random, tiny: bool) -> Workload:
    ks = (12, 16) if tiny else (64, 80)
    systems = [
        _sft(name, cycle_with_chord(k), rng, ["analyze"], _symbols(list(range(k))))
        for name, k in zip(("chord_small", "chord_large"), ks)
    ]
    systems += [
        _matrix("jordan3", jordan(2, 3), rng, ["analyze"]),
        _matrix("jordan4", jordan(5, 4), rng, ["analyze"]),
        _matrix("double_cat4", DOUBLE_CAT_4, rng, ["analyze"]),
        _matrix("endomorphism6", ENDOMORPHISM_6, rng, ["analyze"]),
    ]
    return Workload(
        "analyze_slow_mixing", tuple(systems), tuple(Call(s.name, "analyze") for s in systems)
    )


_GENERATORS = {
    "tau_sweep": tau_sweep,
    "oracle_deep": oracle_deep,
    "witness_long": witness_long,
    "analyze_slow_mixing": analyze_slow_mixing,
}
WORKLOADS = tuple(_GENERATORS)


def build(name: str, seed: int, tiny: bool = False) -> Workload:
    """The workload ``name`` for ``seed``; ``tiny`` shrinks every size for self-tests."""
    return _GENERATORS[name](random.Random(f"{name}:{seed}"), tiny)
