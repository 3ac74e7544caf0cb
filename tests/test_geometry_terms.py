"""The RMa kernels compute their geometry terms once per geometry.

``rma_los`` and ``rma_nlos`` read the terms that depend on the geometry alone
from a private, bounded table keyed by the kernel and the four heights. Their
results, warnings and errors, and those of ``los_second_slope`` and
``breakpoint_distance``, which share the breakpoint's height prefix, must be
those of the formulas written out in full, bit for bit: this file keeps that
written-out form as the reference, and no second path of it exists in the
package.
"""

import math
import warnings
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from rmapath import (
    ApplicabilityError,
    RmaParams,
    breakpoint_distance,
    los_second_slope,
    models,
    rma_los,
    rma_nlos,
)
from rmapath.models import SPEED_OF_LIGHT_M_S, finite_positive, finite_result, slant

# The written-out formulas, evaluated in full on every call.
reference_errors = np.errstate(all="ignore")


def ref_bounds(a):
    if not a.ndim:
        a = float(a)
        return a, a
    return (a.min(), a.max()) if a.size else (math.inf, -math.inf)


def ref_breakpoint(h_bs, h_ut, fc):
    return 2.0 * np.pi * h_bs * h_ut * fc * 1e9 / SPEED_OF_LIGHT_M_S


def ref_second_slope(d3d, dbp):
    return (dbp < 10_000.0) & (d3d > dbp)


def ref_los_pl1(params, d3d, fc_ghz):
    h = params.h
    slope_term = min(0.03 * min(h, 100.0)**1.72, 10.0)
    offset_term = min(0.044 * min(h, 100.0)**1.72, 14.77)
    return (20.0 * np.log10(40.0 * np.pi * d3d * fc_ghz / 3.0)
            + slope_term * np.log10(d3d)
            - offset_term
            + 0.002 * np.log10(h) * d3d)


def ref_los_mean(params, d3d, fc):
    dbp = ref_breakpoint(params.h_bs, params.h_ut, fc)
    pl1 = ref_los_pl1(params, d3d, fc)
    second = ref_second_slope(d3d, dbp)
    if not ref_bounds(second)[1] > 0:
        return pl1
    pl2 = ref_los_pl1(params, dbp, fc) + 40.0 * np.log10(d3d / dbp)
    return np.where(second, pl2, pl1)


def ref_nlos_mean(params, d3d, fc):
    h, w, h_bs, h_ut = params.h, params.w, params.h_bs, params.h_ut
    raw = (161.04
           - 7.1 * np.log10(w)
           + 7.5 * np.log10(h)
           - (24.37 - (3.7 * (h / h_bs) ** 2 if h < 1e154 * h_bs
                       else math.inf if h_bs != 1.0 else 0.0)) * np.log10(h_bs)
           + (43.42 - 3.1 * np.log10(h_bs)) * (np.log10(d3d) - 3.0)
           + 20.0 * np.log10(fc)
           - (3.2 * np.log10(11.75 * h_ut) ** 2 - 4.97))
    return np.maximum(ref_los_mean(params, d3d, fc), raw)


def ref_checked(params, d3d_m, fc_ghz, span, label):
    d3d, fc = finite_positive("d3d_m", d3d_m), finite_positive("fc_ghz", fc_ghz)
    lo, hi = span[0], slant(span[1], params.h_bs, params.h_ut)
    d3d_lo, d3d_hi = ref_bounds(d3d)
    if d3d_lo < lo or d3d_hi > hi:
        raise ApplicabilityError(
            f"3D distance outside the [{lo:g} m, {hi:.3f} m] span of the {label} "
            f"model (2D distance up to {span[1]:g} m)"
        )
    return d3d, fc


@reference_errors
def ref_rma_los(params, d3d_m, fc_ghz):
    d3d, fc = ref_checked(params, d3d_m, fc_ghz, (10.0, 10_000.0), "RMa LOS")
    return finite_result(ref_los_mean(params, d3d, fc))


@reference_errors
def ref_rma_nlos(params, d3d_m, fc_ghz):
    d3d, fc = ref_checked(params, d3d_m, fc_ghz, (10.0, 5_000.0), "RMa NLOS")
    return finite_result(ref_nlos_mean(params, d3d, fc))


@reference_errors
def ref_los_second_slope(params, d3d_m, fc_ghz):
    fc, d3d = finite_positive("fc_ghz", fc_ghz), finite_positive("d3d_m", d3d_m)
    return ref_second_slope(d3d, ref_breakpoint(params.h_bs, params.h_ut, fc))


@reference_errors
def ref_breakpoint_distance(h_bs_m, h_ut_m, fc_ghz):
    h_bs, h_ut = finite_positive("h_bs_m", h_bs_m), finite_positive("h_ut_m", h_ut_m)
    return finite_result(ref_breakpoint(h_bs, h_ut, finite_positive("fc_ghz", fc_ghz)))


def breakpoint_at(params, _d3d, fc):
    return breakpoint_distance(params.h_bs, params.h_ut, fc)


def ref_breakpoint_at(params, _d3d, fc):
    return ref_breakpoint_distance(params.h_bs, params.h_ut, fc)


def bits(function, *args):
    """A call's result as (type, dtype, shape, bytes), or its error's type and text,
    with the warnings it gave."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            value = np.asarray(result := function(*args))
            out = (type(result), value.dtype, value.shape, value.tobytes())
        except (ValueError, OverflowError) as exc:
            out = (type(exc), str(exc))
    return out, [(w.category, str(w.message)) for w in caught]


KERNELS = [(rma_los, ref_rma_los), (rma_nlos, ref_rma_nlos),
           (los_second_slope, ref_los_second_slope), (breakpoint_at, ref_breakpoint_at)]
# Heights from the smallest float to the largest, with the ones the formulas
# turn on: h_bs = 1 (log10 h_bs = 0), h past the 100 m cap, and pairs whose
# h / h_bs reaches the 1e154 guard; and geometries whose heights are all of
# the size a link has, where a rounding changed by a regrouped sum shows.
heights = st.one_of(
    st.sampled_from((5e-324, 1e-300, 1e-154, 1.0, 1.5, 35.0, 100.0, 150.0, 1e154, 1e300, 1e308)),
    st.floats(1e-300, 1e-290), st.floats(0.5, 200.0), st.floats(5e-324, 1e308))
link_heights = st.floats(0.5, 200.0)
geometries = st.one_of(
    st.builds(RmaParams, h_bs=heights, h_ut=heights, w=heights, h=heights),
    st.builds(RmaParams, h_bs=link_heights, h_ut=link_heights, w=link_heights, h=link_heights))
distances = st.one_of(st.sampled_from((9.999, 10.0, 34.96, 5_000.0, 5_000.1225, 10_000.0,
                                       10_000.06, math.nan, -1.0)),
                      st.floats(10.0, 20_000.0), st.floats(0.0, 1e308, exclude_min=True))
frequencies = st.one_of(st.sampled_from((0.5, 2.0, 9.1, 28.0, 73.5, 1e306, 0.0)),
                        st.floats(0.1, 200.0), st.floats(0.0, 1e308, exclude_min=True))


def scalar_or_array(values):
    return st.one_of(values, st.lists(values, min_size=1, max_size=3).map(np.array))


@pytest.mark.parametrize("kernel,reference", KERNELS, ids=lambda f: f.__name__)
@settings(derandomize=True, max_examples=400, deadline=None)
@given(params=geometries, d3d=scalar_or_array(distances), fc=scalar_or_array(frequencies))
@example(RmaParams(h_bs=1.0, h=1e200), 1_000.0, 28.0)        # guard, log10 h_bs = 0
@example(RmaParams(h_bs=1e-200, h=1e-40), 1_000.0, 28.0)     # guard, h / h_bs = 1e160
@example(RmaParams(h_bs=1e-300, h_ut=1e-300, w=1e-300, h=1e-300), 1_000.0, 2.0)
@example(RmaParams(h=150.0), np.array([50.0, 3_000.0, 9_000.0]), 2.0)  # both slopes
@example(RmaParams(), np.array([50.0, 3_000.0]), np.array([2.0, 3.0, 4.0]))  # no broadcast
def test_kernels_equal_the_written_out_formulas(kernel, reference, params, d3d, fc):
    assert bits(kernel, params, d3d, fc) == bits(reference, params, d3d, fc)


def test_the_terms_are_computed_once_per_geometry_and_kernel(monkeypatch):
    calls = []
    compute = models._geometry_terms
    monkeypatch.setattr(models, "_geometry_terms", lambda *key: calls.append(key) or compute(*key))
    models._TERMS_TABLE.clear()
    params = RmaParams(h_bs=33.0)
    for d3d, fc in ((100.0, 2.0), (np.array([50.0, 3_000.0]), 2.0), (1_000.0, np.array([28.0]))):
        for kernel, reference in KERNELS:
            assert bits(kernel, params, d3d, fc) == bits(reference, params, d3d, fc)
    # Each kernel computes its own terms alone: the LOS ones hold no NLOS term.
    assert calls == [(False, 33.0, 1.5, 20.0, 5.0), (True, 33.0, 1.5, 20.0, 5.0)]
    assert compute(*calls[0])[5:] == (None, None, None)
    rma_los(RmaParams(h_bs=33.0), 100.0, 2.0)  # another object, equal fields: found
    assert len(calls) == 2
    other = RmaParams(h_bs=33.0, w=21.0)  # another geometry: terms of its own
    assert bits(rma_los, other, 100.0, 2.0) == bits(ref_rma_los, other, 100.0, 2.0)
    assert calls[2:] == [(False, 33.0, 1.5, 21.0, 5.0)]


def test_a_new_object_gets_the_terms_of_its_own_geometry():
    # A freed object's id may go to the next object; the table does not look at ids.
    for i, h in enumerate((7.0, 40.0, 7.0, 12.5)):
        old = RmaParams(h_bs=20.0 + i, h=7.0)
        rma_nlos(old, 1_000.0, 28.0)
        del old
        new = RmaParams(h_bs=20.0 + i, h=h)  # equal fields to the old object, or other ones
        assert bits(rma_nlos, new, 1_000.0, 28.0) == bits(ref_rma_nlos, new, 1_000.0, 28.0)
        assert bits(rma_los, new, 1_000.0, 28.0) == bits(ref_rma_los, new, 1_000.0, 28.0)
        del new


def test_the_table_holds_no_object():
    params = RmaParams(h_bs=41.0)
    for kernel, _ in KERNELS:
        kernel(params, 1_000.0, 28.0)
    gone = weakref.ref(params)
    del params
    assert gone() is None


def test_distinct_geometries_keep_the_table_at_its_bound():
    kept = [RmaParams(h_bs=10.0 + k / 100.0) for k in range(10_000)]
    for k, params in enumerate(kept):
        kernel, reference = KERNELS[k % 2]
        assert kernel(params, 2_000.0, 3.0) == reference(params, 2_000.0, 3.0)
        assert len(models._TERMS_TABLE) <= models._TERMS_TABLE_SIZE
    assert rma_los(kept[0], 2_000.0, 3.0) == ref_rma_los(kept[0], 2_000.0, 3.0)


def test_the_terms_are_not_fields_of_the_object():
    params = RmaParams()
    fields = {"h_bs": 35.0, "h_ut": 1.5, "w": 20.0, "h": 5.0}
    assert vars(params) == fields
    for kernel, _ in KERNELS:
        kernel(params, 1_000.0, 28.0)
    assert vars(params) == fields
    assert (False, *fields.values()) in models._TERMS_TABLE
    assert (True, *fields.values()) in models._TERMS_TABLE
