"""Hypothesis strategies and small shift builders shared by tests."""

import math
from collections import deque

from hypothesis import assume, strategies as st

from shrinktarget.oracle import moran_dimension, moran_layout
from shrinktarget.symbolic import (
    NotMixingError,
    ReducibleShiftError,
    ShiftOfFiniteType,
    SoficPresentation,
    digraph_period,
    mixing_gap,
    perron_root,
    word_counts,
)


def full_shift(k, sided="one"):
    return ShiftOfFiniteType(tuple(tuple(1 for _ in range(k)) for _ in range(k)), sided)


def golden_mean_shift(sided="one"):
    """Binary shift forbidding the word 11."""
    return ShiftOfFiniteType(((1, 1), (1, 0)), sided)


def clique_with_path(n, p):
    """0/1 rows of an n-clique with loops on symbols 0..n-1 and a path of p
    new symbols from n - 1 back to 0: irreducible, with a Perron vector
    that falls by about n^-p along the path."""
    k = n + p
    rows = [[int(a < n and b < n) for b in range(k)] for a in range(k)]
    for a in range(n - 1, k):
        rows[a][(a + 1) % k] = 1
    return rows


def entropy(shift):
    """h_top of an irreducible SFT as the CLI's analysis computes it: ln of the Perron root."""
    return math.log(perron_root(shift.transition))


def count_words(shift, n):
    """Exact number of admissible n-words, from the CLI's counting recurrence."""
    return deque(word_counts(shift, n, ()), maxlen=1).pop()[0]


def moran_estimate(shift, tau, stages):
    """One rate's Moran estimate: its layout at the shift's mixing gap, walked alone."""
    return moran_dimension(shift, [moran_layout(tau, stages, mixing_gap(shift))])[0]


def sft_as_sofic(shift):
    """Identity labeling: states = symbols, the edge a->b is labeled by b."""
    k = shift.alphabet_size
    edges = tuple((a, b, str(b)) for a in range(k) for b in range(k) if shift.transition[a][b])
    return SoficPresentation(states=k, edges=edges, sided=shift.sided)


@st.composite
def irreducible_shifts(draw, max_k=6, mixing=False):
    """Random irreducible (optionally primitive) 0/1 matrices, k <= max_k."""
    k = draw(st.integers(min_value=1, max_value=max_k))
    density = draw(st.sampled_from([0.4, 0.6, 0.9]))
    bits = draw(st.lists(st.floats(0.0, 1.0), min_size=k * k, max_size=k * k))
    rows = [[1 if bits[i * k + j] < density else 0 for j in range(k)] for i in range(k)]
    assume(any(map(any, rows)))
    try:
        digraph_period(rows)
    except ReducibleShiftError:
        assume(False)
    shift = ShiftOfFiniteType(tuple(map(tuple, rows)))
    if mixing:
        try:
            mixing_gap(shift)
        except NotMixingError:
            assume(False)
    return shift
