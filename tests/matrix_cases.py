"""Integer matrices whose spectrum is known by construction.

Jordan blocks J (one eigenvalue of multiplicity d), block repeats B (+) B
(every eigenvalue of B doubled), and their conjugates U A U^-1 by unimodular
integer matrices U, which keep the characteristic polynomial and det but hide
the structure from any solver that looks at the entries.
"""

from __future__ import annotations

import random


def jordan(value: int, d: int) -> list[list[int]]:
    return [[value if i == j else int(j == i + 1) for j in range(d)] for i in range(d)]


def block_repeat(b: list[list[int]]) -> list[list[int]]:
    """B (+) B."""
    n = len(b)
    return [row + [0] * n for row in b] + [[0] * n + row for row in b]


def matmul(a: list[list[int]], b: list[list[int]]) -> list[list[int]]:
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def unimodular(rng: random.Random, d: int, steps: int = 3) -> tuple[list[list[int]], list[list[int]]]:
    """(U, U^-1): a product of elementary operations I + c e_ij, c = +-1."""
    u = [[int(i == j) for j in range(d)] for i in range(d)]
    v = [row[:] for row in u]
    for _ in range(steps):
        i, j = rng.sample(range(d), 2)
        c = rng.choice((-1, 1))
        u[i] = [x + c * y for x, y in zip(u[i], u[j])]  # E u: row i += c row j
        for row in v:  # v E^-1: column j -= c column i
            row[j] -= c * row[i]
    assert matmul(u, v) == [[int(i == j) for j in range(d)] for i in range(d)]
    return u, v


def conjugate(a: list[list[int]], rng: random.Random) -> list[list[int]]:
    u, v = unimodular(rng, len(a))
    return matmul(matmul(u, a), v)


# 2x2 blocks for B (+) B: a hyperbolic automorphism (two moduli), two with the
# cat map's characteristic polynomial, expanding blocks with one modulus (real
# +-sqrt 2, complex 1 +- i and +-i sqrt 2), and a hyperbolic non-expanding
# block with |det| = 2
BLOCKS = {
    "cat": [[2, 1], [1, 1]],
    "cat_companion": [[0, 1], [-1, 3]],
    "silver": [[2, 1], [1, 0]],
    "pm_sqrt2": [[1, 1], [1, -1]],
    "one_pm_i": [[1, -1], [1, 1]],
    "pm_i_sqrt2": [[0, -2], [1, 0]],
    "det_minus2": [[3, 2], [1, 0]],
}


def structured_matrices(jordan_conjugates: int = 3, block_conjugates: int = 2, seed: int = 0):
    """(name, entries): each Jordan block at +-2 and +-3 for d = 2..4 with
    ``jordan_conjugates`` integer conjugates, and each B (+) B of ``BLOCKS``
    with ``block_conjugates`` conjugates.  Conjugate 0 is the block itself."""
    rng = random.Random(seed)
    out = []
    for value in (2, -2, 3, -3):
        for d in (2, 3, 4):
            block = jordan(value, d)
            out += [(f"jordan{value:+d}_d{d}_u{k}", conjugate(block, rng) if k else block) for k in range(jordan_conjugates)]
    for name, b in BLOCKS.items():
        block = block_repeat(b)
        out += [(f"{name}_x2_u{k}", conjugate(block, rng) if k else block) for k in range(block_conjugates)]
    return out
