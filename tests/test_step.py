"""Step-function arithmetic: canonical form, piecewise algebra, JSON round trip."""

import math
import operator
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from rifs import SchemaError, StepFunction, absolute, add, indicator, maximum, minimum, scale
from rifs.step import ARRAY_MIN_PIECES, MERGE_TOL, _settle, _settle_array


def test_canonical_sorts_merges_and_drops_zeros():
    x = StepFunction.make([(2, 3, 1.0), (0, 1, 1.0), (1, 2, 1.0), (5, 6, 0.0)])
    assert x.pieces == ((0.0, 3.0, 1.0),)


def test_overlapping_pieces_rejected():
    with pytest.raises(SchemaError):
        StepFunction.make([(0, 2, 1.0), (1, 3, 2.0)])


def test_alpha_one_bounds_support():
    x = StepFunction.make([(0, 1, 2.0)], alpha=1.0)
    assert x.support_end == 1.0
    with pytest.raises(SchemaError):
        StepFunction.make([(0, 2, 1.0)], alpha=1.0)


def test_add_indicator_doubles():
    x = indicator(0, 1)
    assert add(x, x).pieces == ((0.0, 1.0, 2.0),)


def test_scale_by_zero_gives_zero_function():
    x = StepFunction.make([(0, 1, 3.0), (2, 4, -1.0)])
    assert scale(x, 0.0).is_zero


def test_scale_rejects_non_finite_factor():
    with pytest.raises(SchemaError):
        scale(indicator(0, 1), math.inf)


@pytest.mark.parametrize("n", [1, ARRAY_MIN_PIECES])
def test_overflow_to_inf_raises(n):
    # add runs on lists for n = 1 and on arrays for n = ARRAY_MIN_PIECES.
    x = StepFunction.make([(2 * i, 2 * i + 1, 1e308) for i in range(n)])
    with pytest.raises(SchemaError):
        add(x, x)
    with pytest.raises(SchemaError):
        scale(x, 10.0)


@pytest.mark.parametrize("n", [1, ARRAY_MIN_PIECES])
@pytest.mark.parametrize("factor", [np.float32(0.1), np.float64(-0.3)])
def test_scale_by_numpy_factor_matches_make(n, factor):
    # make turns each value into a Python float; scale must too, or numpy
    # scalars (float32 ones included) would reach the pieces and later sums.
    x = StepFunction.make([(2 * i, 2 * i + 1, 0.7 + i) for i in range(n)])
    y = scale(x, factor)
    assert y.pieces == StepFunction.make([(t0, t1, factor * v) for t0, t1, v in x.pieces]).pieces
    assert all(type(v) is float for _, _, v in y.pieces)
    z = add(y, y)
    assert z.pieces == StepFunction.make([(t0, t1, v + v) for t0, t1, v in y.pieces]).pieces
    assert all(type(v) is float for _, _, v in z.pieces)


def test_array_path_leaves_numpy_ma_unloaded():
    # np.unique and np.union1d import numpy.ma on first use, which adds to
    # the resident memory of every caller; the step core must not need them.
    code = (
        "import sys\n"
        "from rifs import StepFunction, add, rearrange\n"
        "x = StepFunction.make([(2 * i, 2 * i + 1, (-1.0) ** i * (i % 7 + 1)) for i in range(1000)])\n"
        "y = StepFunction.make([(3 * i, 3 * i + 2, i % 5 + 1.0) for i in range(1000)])\n"
        "rearrange(add(x, y))\n"
        "print('numpy.ma' in sys.modules)\n"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
    assert out.stdout.strip() == "False"


def test_absolute_example():
    x = StepFunction.make([(0, 1, -2.0), (1, 2, 1.0)])
    assert absolute(x).pieces == ((0.0, 1.0, 2.0), (1.0, 2.0, 1.0))


def test_max_min_against_implicit_zero():
    x = StepFunction.make([(0, 1, -2.0)])
    y = StepFunction.make([(0.5, 1.5, 1.0)])
    assert maximum(x, y).pieces == ((0.5, 1.5, 1.0),)
    assert minimum(x, y).pieces == ((0.0, 1.0, -2.0),)


def test_mixed_domains_rejected():
    with pytest.raises(SchemaError):
        add(indicator(0, 1), indicator(0, 1, alpha=1.0))


def test_json_round_trip_is_identity_on_canonical_form():
    x = StepFunction.make([(0, 1, 1.5), (2.5, 3.25, -0.5)])
    again = StepFunction.from_json(x.to_json())
    assert again == x
    assert StepFunction.from_json(again.to_json()) == again


def test_json_alpha_encoding():
    assert indicator(0, 1).to_json()["alpha"] == "inf"
    assert indicator(0, 1, alpha=1.0).to_json()["alpha"] == "1"


raw_pieces = st.tuples(
    st.floats(min_value=0.0, max_value=50.0),
    st.floats(min_value=0.01, max_value=5.0),
    st.floats(min_value=-10.0, max_value=10.0, allow_nan=False),
)
piece_lists = st.lists(raw_pieces, min_size=0, max_size=6)
# With each other, with a short list or with a shrunken copy, these reach
# both sides of ARRAY_MIN_PIECES.
long_piece_lists = st.lists(raw_pieces, min_size=ARRAY_MIN_PIECES // 2,
                            max_size=ARRAY_MIN_PIECES + 8)


def _disjointify(raw):
    pieces = []
    cursor = 0.0
    for gap, length, v in raw:
        cursor += gap
        pieces.append((cursor, cursor + length, v))
        cursor += length
    return pieces


@given(piece_lists)
def test_canonical_invariants(raw):
    x = StepFunction.make(_disjointify(raw))
    for (a0, a1, av), (b0, b1, _) in zip(x.pieces, x.pieces[1:]):
        assert a1 <= b0 + 1e-12 * max(1.0, abs(a1))
        assert a0 < a1
        assert av != 0.0


@given(piece_lists, piece_lists)
def test_add_commutes(raw_x, raw_y):
    x = StepFunction.make(_disjointify(raw_x))
    y = StepFunction.make(_disjointify(raw_y))
    assert add(x, y).approx_equal(add(y, x), tol=1e-9)


@given(piece_lists)
def test_abs_idempotent_and_nonnegative(raw):
    x = StepFunction.make(_disjointify(raw))
    ax = absolute(x)
    assert all(v >= 0 for _, _, v in ax.pieces)
    assert absolute(ax) == ax


# ------------------------------------------- binary operations, pointwise

values = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False)
# Offsets that put breakpoints of y within MERGE_TOL of those of x, or just past it.
nudges = st.sampled_from([0.0, 3e-13, 1e-12, 5e-12, 1e-6])


@st.composite
def step_pairs(draw):
    """Two step functions whose breakpoints are independent, or shrunken copies
    of each other's so that they nearly coincide."""
    lists = st.one_of(piece_lists, long_piece_lists)
    x = _disjointify(draw(lists))
    if draw(st.booleans()):
        return x, _disjointify(draw(lists))
    y = []
    for t0, t1, _ in x:
        a, b = t0 + draw(nudges), t1 - draw(nudges)
        if b > a and draw(st.booleans()):
            y.append((a, b, draw(values)))
    return x, y


def _scan(x, t):
    """Value of x at t by a scan over all pieces."""
    for t0, t1, v in x.pieces:
        if t0 <= t < t1:
            return v
    return 0.0


def _scan_reference(op, x, y):
    """The binary operation as built from a per-piece scan at each cell midpoint."""
    bps = sorted(set(x.breakpoints()) | set(y.breakpoints()))
    merged = []
    for t in bps:
        if not merged or abs(t - merged[-1]) > MERGE_TOL * max(1.0, abs(t), abs(merged[-1])):
            merged.append(t)
    return StepFunction.make(
        [(a, b, op(_scan(x, 0.5 * (a + b)), _scan(y, 0.5 * (a + b))))
         for a, b in zip(merged, merged[1:])], x.alpha)


@given(step_pairs())
@example(([(1000.0, 1001.0, 1.0)], [(1001.0000000010003, 1002.000000001, 1.0)]))
def test_binary_ops_match_pointwise_and_scan_reference(pair):
    x, y = (StepFunction.make(p) for p in pair)
    for fn, op in ((add, lambda a, b: a + b), (maximum, max), (minimum, min)):
        out = fn(x, y)
        assert out.pieces == _scan_reference(op, x, y).pieces
        edges = sorted(set(x.breakpoints()) | set(y.breakpoints()))
        # On every cell wider than the snap tolerance the result is the
        # pointwise operation; narrower cells are snapped away.
        for a, b in zip(edges, edges[1:]):
            if b - a > MERGE_TOL * max(1.0, abs(a), abs(b)):
                t = 0.5 * (a + b)
                assert _scan(out, t) == op(_scan(x, t), _scan(y, t))


@given(piece_lists, st.lists(st.floats(min_value=-1.0, max_value=60.0), max_size=20))
def test_value_lookups_match_scan(raw, ts):
    x = StepFunction.make(_disjointify(raw))
    ts = ts + [t0 for t0, _, _ in x.pieces] + [t1 for _, t1, _ in x.pieces]
    want = [_scan(x, t) for t in ts]
    assert [x.value_at(t) for t in ts] == want
    assert x.values(np.array(ts)).tolist() == want


# ------------------------------------------- make on arrays, by list reference

def _close_reference(a, b):
    return abs(a - b) <= MERGE_TOL * max(1.0, abs(a), abs(b))


def _settle_reference(cells, alpha):
    """The list settle loop: each cell against the last piece kept, by
    ``_close_reference``."""
    out = []
    for t0, t1, v in cells:
        if not (math.isfinite(v) and math.isfinite(t1)):
            raise SchemaError("piece endpoints and values must be finite")
        if t1 > alpha:
            if not _close_reference(t1, alpha):
                raise SchemaError(f"piece ends beyond alpha={alpha}: {t1}")
            t1 = alpha
        if v == 0.0 or t1 - t0 <= MERGE_TOL * max(1.0, abs(t1)):
            continue
        if out:
            pt0, pt1, pv = out[-1]
            if t0 == pt1 or _close_reference(t0, pt1):
                t0 = pt1
                if v == pv:
                    out[-1] = (pt0, t1, v)
                    continue
            elif t0 < pt1:
                raise SchemaError(f"pieces overlap near t={t0}")
        out.append((t0, t1, v))
    return tuple(out)


def _canonical_reference(pieces, alpha):
    """The list canonicalization: check each piece in input order, sort by
    start (stably), then settle the cells one by one."""
    cells = []
    for t0, t1, v in pieces:
        t0, t1, v = float(t0), float(t1), float(v)
        if not (math.isfinite(t0) and math.isfinite(t1)):
            raise SchemaError("piece endpoints and values must be finite")
        if t0 < 0 and _close_reference(t0, 0.0):
            t0 = 0.0
        if t0 < 0:
            raise SchemaError(f"piece starts before 0: {t0}")
        cells.append((t0, t1, v))
    cells.sort(key=lambda cell: cell[0])
    return _settle_reference(cells, alpha)


FAULTS = ("non-finite value", "non-finite end", "far negative start", "overlap")


@st.composite
def raw_inputs(draw, max_pieces=100):
    """64 to max_pieces raw pieces and alpha: zeros, ties, narrow cells,
    starts within MERGE_TOL of the previous end or of 0, and, in some inputs,
    one or two faults; on (0, 1) the ends may pass alpha by a little or by
    more than MERGE_TOL; the order may be shuffled."""
    n = draw(st.integers(ARRAY_MIN_PIECES, max_pieces))
    alpha = draw(st.sampled_from([1.0, math.inf]))
    pieces, cursor = [], 0.0
    for _ in range(n):
        kind = draw(st.sampled_from(["plain"] * 5 + ["narrow", "snap", "zero"]))
        start = cursor + draw(st.sampled_from([0.0, 0.0, 0.5]))
        if kind == "snap":
            start = cursor + draw(st.sampled_from([-8e-13, -3e-13, 3e-13, 8e-13])) * max(1.0, cursor)
        length = draw(st.sampled_from([0.25, 1.0, 1.5]))
        if kind == "narrow":
            length = draw(st.sampled_from([5e-13, 1e-12, 1.5e-12, 3e-12])) * max(1.0, start)
        value = 0.0 if kind == "zero" else draw(st.sampled_from([0.25, -0.5, 1.0, 2.0, -3.0]))
        pieces.append([max(start, 0.0), start + length, value])
        cursor = start + length
    pieces[0][0] = draw(st.sampled_from([0.0, -0.0, -3e-13, 2e-13]))
    for i in draw(st.lists(st.integers(0, n - 1), max_size=2)):
        fault = draw(st.sampled_from(FAULTS))
        if fault == "non-finite value":
            pieces[i][2] = draw(st.sampled_from([math.inf, -math.inf, math.nan]))
        elif fault == "non-finite end":
            pieces[i][draw(st.integers(0, 1))] = draw(st.sampled_from([math.inf, math.nan]))
        elif fault == "far negative start":
            pieces[i][0] = -0.5
        else:
            pieces[i][0] -= 0.2
    if alpha == 1.0:
        scale = draw(st.sampled_from([0.99, 1.0, 1.0 + 5e-13, 1.0 + 1e-11])) / cursor
        pieces = [[t * scale if math.isfinite(t) else t for t in piece[:2]] + piece[2:]
                  for piece in pieces]
    if draw(st.booleans()):
        pieces = draw(st.permutations(pieces))
    return [tuple(piece) for piece in pieces], alpha


def _settled_or_error(canonical, pieces, alpha):
    try:
        return repr(canonical(pieces, alpha))
    except SchemaError as exc:
        return f"SchemaError: {exc}"


@settings(deadline=None, max_examples=100)
@given(raw_inputs())
def test_make_on_arrays_matches_list_reference(drawn):
    # make canonicalizes on arrays from ARRAY_MIN_PIECES up: its pieces, bit
    # for bit, or its SchemaError, message included, are the list code's.
    pieces, alpha = drawn
    got = _settled_or_error(lambda p, a: StepFunction.make(p, a).pieces, pieces, alpha)
    assert got == _settled_or_error(_canonical_reference, pieces, alpha)


@settings(deadline=None, max_examples=100)
@given(raw_inputs(max_pieces=200), st.sampled_from([MERGE_TOL, 0.0]))
def test_settle_array_matches_settle(drawn, width_tol):
    # The one array canonicalization, on cells sorted by start that start at
    # or after 0 (a far negative start becomes an overlap at 0): _settle's
    # pieces, bit for bit, or its SchemaError, message included; and the
    # result's _columns are its pieces.
    pieces, alpha = drawn
    cells = sorted(((max(t0, 0.0), t1, v) for t0, t1, v in pieces if not math.isnan(t0)),
                   key=lambda cell: cell[0])
    columns = [np.array(col, dtype=float) for col in zip(*cells)]

    def on_arrays(cells, alpha):
        x = _settle_array(*columns, alpha, width_tol)
        assert repr(tuple(zip(*(col.tolist() for col in x._columns)))) == repr(x.pieces)
        return x.pieces

    got = _settled_or_error(on_arrays, cells, alpha)
    assert got == _settled_or_error(lambda c, a: _settle(c, a, width_tol), cells, alpha)


# ------------------------------------- list kernels at the tolerance edges

def _pointwise_reference(op, x, y):
    """The list sweep: merge both breakpoint lists, drop each one within
    MERGE_TOL of the last kept by ``_close_reference``, read both operands
    at the cell midpoints and settle."""
    cuts = []
    for t in sorted([t for f in (x, y) for p in f.pieces for t in p[:2]]):
        if not cuts or not _close_reference(cuts[-1], t):
            cuts.append(t)
    mids = [0.5 * (a + b) for a, b in zip(cuts, cuts[1:])]
    vals = [op(x.value_at(t), y.value_at(t)) for t in mids]
    return _settle_reference(zip(cuts, cuts[1:], vals), x.alpha)


def _past_tol(t, sign, ulps):
    """``t + sign * MERGE_TOL * max(1, |t|)``, then ``ulps`` ulps further
    right (left for ulps < 0): the two sides of the snap and width tests."""
    u = t + sign * MERGE_TOL * max(1.0, abs(t))
    for _ in range(abs(ulps)):
        u = math.nextafter(u, math.copysign(math.inf, ulps))
    return u


edge_values = st.sampled_from([1.0, -1.0, 2.5, 0.0, 1e308, -1e308])


@st.composite
def edge_pieces(draw, ts):
    """Pieces on consecutive breakpoints of ts, touching or with gaps; in some
    inputs one non-finite value or an overlap."""
    pieces = [[a, b, draw(edge_values)] for a, b in zip(ts, ts[1:]) if draw(st.integers(0, 3))]
    if pieces and draw(st.integers(0, 4)) == 0:
        piece = draw(st.sampled_from(pieces))
        if draw(st.booleans()):
            piece[2] = draw(st.sampled_from([math.inf, -math.inf, math.nan]))
        else:
            piece[0] -= 0.25
    return [tuple(piece) for piece in pieces]


@st.composite
def edge_inputs(draw):
    """Raw pieces of x and y, fewer than ARRAY_MIN_PIECES together, and alpha.
    Each breakpoint of x repeats the last one, lies 0.25 past it, or lies
    MERGE_TOL * max(1, t) from it give or take up to 3 ulps; x starts at or
    just left of 0, near 0.5, or just left of 1, so its ends also fall within
    and beyond MERGE_TOL of alpha = 1.  Each breakpoint of y sits on one of
    x, or at the same tolerance edge from it on either side."""
    alpha = draw(st.sampled_from([1.0, math.inf]))
    ulps = st.integers(-3, 3)
    ts = [draw(st.sampled_from([0.0, -0.0, -1e-12, 0.5, 1.0 - 3e-12, 1.0 - 1e-12]))]
    for _ in range(draw(st.integers(1, 12))):
        kind = draw(st.sampled_from(["edge", "edge", "edge", "duplicate", "wide"]))
        if kind == "duplicate":
            ts.append(ts[-1])
        elif kind == "wide":
            ts.append(ts[-1] + 0.25)
        else:
            ts.append(_past_tol(ts[-1], 1.0, draw(ulps)))
    us = [t if draw(st.booleans()) else _past_tol(t, draw(st.sampled_from([1.0, -1.0])), draw(ulps))
          for t in ts]
    x, y = draw(edge_pieces(ts)), draw(edge_pieces(sorted(us)))
    assume(len(x) + len(y) < ARRAY_MIN_PIECES)
    return x, y, alpha


@settings(deadline=None, max_examples=400)
@given(edge_inputs())
@example(([(0.0, 1e-12, 1.0)], [(1e-12, 1.0, 2.0)], math.inf))
@example(([(0.0, 1.0 + 1e-12, 1.0)], [(0.0, 1.0 + 1.5e-12, 1.0)], 1.0))
def test_list_kernels_match_close_reference(drawn):
    # make, add, maximum and minimum below ARRAY_MIN_PIECES decide their snap,
    # width and cut tests without _close: their pieces, bit for bit, or their
    # SchemaError, message included, are the _close-based reference's.
    x_raw, y_raw, alpha = drawn
    for raw in (x_raw, y_raw):
        got = _settled_or_error(lambda p, a: StepFunction.make(p, a).pieces, raw, alpha)
        assert got == _settled_or_error(_canonical_reference, raw, alpha)
    try:
        x, y = StepFunction.make(x_raw, alpha), StepFunction.make(y_raw, alpha)
    except SchemaError:
        return
    for fn, op in ((add, operator.add), (maximum, max), (minimum, min)):
        for a, b in ((x, y), (y, x)):
            got = _settled_or_error(lambda a, b: fn(a, b).pieces, a, b)
            assert got == _settled_or_error(lambda a, b: _pointwise_reference(op, a, b), a, b)
