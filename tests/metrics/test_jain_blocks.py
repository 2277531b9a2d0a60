"""``jain_series`` by membership block equals the per-row ``jain_index`` loop
bit for bit, whatever the membership pattern and the input's memory layout."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.metrics import jain_index, jain_series
from repro.metrics.fairness import active_mask
from repro.sim import Flow


def per_row(times, rates, flows):
    """The series the way it was computed before blocks: one masked row at a time."""
    rates = np.asarray(rates, dtype=float)
    mask = active_mask(flows, times) if flows is not None else rates > 0
    return np.array([jain_index(rates[i][mask[i]]) for i in range(len(times))])


RATE = st.one_of(
    st.just(0.0),
    st.floats(1e-9, 1e12),
    st.floats(-1e3, 0.0),
    st.sampled_from([1.0, 12.5e9, 100e9 / 3]),
)


@st.composite
def rate_matrices(draw):
    """(rates matrix, a layout to present it in)."""
    n_rows = draw(st.integers(0, 14))
    n_cols = draw(st.integers(0, 9))
    values = np.array(
        draw(st.lists(RATE, min_size=n_rows * n_cols, max_size=n_rows * n_cols)),
        dtype=float,
    ).reshape(n_rows, n_cols)
    membership = draw(st.sampled_from(["every-row", "never", "free"]))
    if membership == "never" and n_cols:
        # One zero pattern for every row, so the whole series is one block.
        keep = np.array(draw(st.lists(st.booleans(), min_size=n_cols, max_size=n_cols)))
        values = np.where(keep, np.abs(values) + 1.0, 0.0)
    elif membership == "every-row" and n_cols:
        # Each row toggles one more flow than the row before.
        live = np.ones(n_cols, dtype=bool)
        for i in range(n_rows):
            live[i % n_cols] = not live[i % n_cols]
            values[i] = np.where(live, np.abs(values[i]) + 1.0, 0.0)
    for i in draw(st.lists(st.integers(0, max(n_rows - 1, 0)), max_size=3)):
        if n_rows:
            values[i] = 0.0  # an all-zero row
    for i in draw(st.lists(st.integers(0, max(n_rows - 1, 0)), max_size=3)):
        if n_rows and n_cols:
            values[i] = 0.0
            values[i, i % n_cols] = 3.0e9  # a row with one positive rate
    layout = draw(st.sampled_from(["contiguous", "strided", "offset", "fortran"]))
    return values, layout


def present(values, layout):
    """``values`` as a view of a larger array, with the requested strides."""
    n_rows, n_cols = values.shape
    if layout == "strided":
        big = np.full((2 * n_rows + 1, 3 * n_cols + 1), 7.0)
        view = big[::2, ::3][:n_rows, :n_cols]
    elif layout == "offset":
        big = np.full((n_rows + 1, n_cols + 1), 7.0)
        view = big[1:, 1:]
    elif layout == "fortran":
        big = np.full((n_cols, n_rows), 7.0)
        view = big.T
    else:
        return values.copy()
    view[...] = values
    return view


@given(matrix=rate_matrices(), use_flows=st.booleans(), data=st.data())
@settings(max_examples=300, deadline=None)
def test_blocks_equal_the_per_row_loop(matrix, use_flows, data):
    values, layout = matrix
    rates = present(values, layout)
    n_rows, n_cols = values.shape
    times = np.cumsum(data.draw(st.lists(st.floats(0.5, 10.0), min_size=n_rows, max_size=n_rows)))
    times = np.asarray(times, dtype=float).reshape(n_rows)
    flows = None
    if use_flows:
        flows = []
        for fid in range(n_cols):
            start = data.draw(st.floats(0.0, 40.0))
            flow = Flow(fid, 0, 1, 1000, start_time=start)
            if data.draw(st.booleans()):
                flow.finish_time = start + data.draw(st.floats(0.0, 40.0))
            flows.append(flow)
    got_times, got = jain_series(times, rates, flows)
    want = per_row(times, rates, flows)
    assert got_times.tobytes() == times.tobytes()
    assert got.dtype == want.dtype and got.shape == want.shape == (n_rows,)
    assert got.tobytes() == want.tobytes()


def test_a_converged_incast_is_one_block():
    """Rows that share membership are one block whatever their values."""
    rates = np.tile([4.0, 5.0, 0.0, 6.0], (50, 1)) * np.linspace(1.0, 2.0, 50)[:, None]
    times = np.arange(50.0)
    _, got = jain_series(times, rates)
    assert got.tobytes() == per_row(times, rates, None).tobytes()
    assert np.allclose(got, got[0])  # scaled copies of one row
