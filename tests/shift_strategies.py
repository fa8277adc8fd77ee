"""Hypothesis strategies for random shifts of finite type, shared by tests."""

from hypothesis import assume, strategies as st

from shrinktarget.symbolic import (
    NotMixingError,
    ShiftOfFiniteType,
    mixing_gap,
    strongly_connected_components,
)


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
