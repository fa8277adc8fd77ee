"""Hypothesis strategies and small shift builders shared by tests."""

from hypothesis import assume, strategies as st

from shrinktarget.symbolic import (
    NotMixingError,
    ShiftOfFiniteType,
    SoficPresentation,
    mixing_gap,
    strongly_connected_components,
    word_counts_ending,
)


def full_shift(k, sided="one"):
    return ShiftOfFiniteType(tuple(tuple(1 for _ in range(k)) for _ in range(k)), sided)


def golden_mean_shift(sided="one"):
    """Binary shift forbidding the word 11."""
    return ShiftOfFiniteType(((1, 1), (1, 0)), sided)


def count_words(shift, n):
    """Exact number of admissible n-words, from the CLI's counting recurrence."""
    return word_counts_ending(shift, n, ())[0][-1]


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
    assume(any(map(any, rows)) and len(strongly_connected_components(rows)) == 1)
    shift = ShiftOfFiniteType(tuple(map(tuple, rows)))
    if mixing:
        try:
            mixing_gap(shift)
        except NotMixingError:
            assume(False)
    return shift
