"""One rule for every array parameter of the public API.

An array argument is what numpy reads as integers or floats, or objects that
are all reals but bools (Fractions, Python ints beyond int64); it is read as
float64.  Text, bool, complex, ragged or non-real input raises
``ArgumentError`` naming the parameter, and so do NaN and inf wherever the
entries must be finite: everywhere but ``kernel_values``, ``Family.cdf`` and
``Family.pdf``.
"""

from fractions import Fraction as F

import numpy as np
import pytest

from hlmoments import (
    ArgumentError,
    LEstimatorSpec,
    TrimSpec,
    apply_lestimator,
    build_pseudosample,
    central_moment_kernel,
    h_statistic,
    hl_central_moment,
    hl_standardized_moment,
    kernel_values,
    median_sorted,
    normal,
    sample_central_moment,
    trimmed_mean,
    trimmed_sd_pairwise,
    trimmed_sd_symmetric,
)

SAMPLE = ([3, -1, 4, 1, 5, 9], [F(3, 4), F(-1, 2), F(5, 8), F(1, 8), F(9, 4), F(7, 2)])
SORTED = tuple(sorted(s) for s in SAMPLE)
ROWS = ([[1, 2, 4], [0, 3, 9]], [[F(1, 2), F(1, 4), F(3)], [F(-5, 4), F(0), F(7, 8)]])
TUPLE = ([1, 2, 4], [F(1, 2), F(-3, 4), F(5, 2)])
PROBS = (None, [F(1, 4), F(1, 2), F(7, 8)])  # no integer lies strictly inside (0, 1)
POINTS = ([-2, 0, 3], [F(-1, 2), F(1, 4), F(3)])

# name -> (the parameter's name in messages, call with the parameter set to v,
#          (a list of ints, a list of Fractions), must the entries be finite)
PARAMETERS = {
    "hl_central_moment.sample": ("sample", lambda v: hl_central_moment(v, 3), SAMPLE, True),
    "hl_standardized_moment.sample": (
        "sample", lambda v: hl_standardized_moment(v, 3), SAMPLE, True),
    "trimmed_sd_pairwise.sample": ("sample", lambda v: trimmed_sd_pairwise(v, 0.1), SAMPLE, True),
    "trimmed_sd_symmetric.sample": ("sample", lambda v: trimmed_sd_symmetric(v), SAMPLE, True),
    "sample_central_moment.sample": (
        "sample", lambda v: sample_central_moment(v, 3), SAMPLE, True),
    "h_statistic.sample": ("sample", lambda v: h_statistic(v, 3), SAMPLE, True),
    "build_pseudosample.sample": ("sample", lambda v: build_pseudosample(v, 3), SAMPLE, True),
    "apply_lestimator.sorted_values": (
        "sorted_values",
        lambda v: apply_lestimator(LEstimatorSpec.trimmed_mean(), v, TrimSpec(0.2)), SORTED, True),
    "trimmed_mean.sorted_values": (
        "sorted_values", lambda v: trimmed_mean(v, TrimSpec(0.2)), SORTED, True),
    "median_sorted.sorted_values": ("sorted_values", median_sorted, SORTED, True),
    "kernel_values.x": ("x", lambda v: kernel_values(v, 3), ROWS, False),
    "central_moment_kernel.values": ("values", central_moment_kernel, TUPLE, True),
    "Family.quantile.p": ("p", normal().quantile, PROBS, True),
    "Family.cdf.x": ("x", normal().cdf, POINTS, False),
    "Family.pdf.x": ("x", normal().pdf, POINTS, False),
}


def _bits(out):
    """What equality of two results means: the same bits."""
    if isinstance(out, np.ndarray):
        return out.dtype.str, out.shape, out.tobytes()
    return repr(out)


def _good(name):
    return np.array(PARAMETERS[name][2][1], dtype=np.float64)


def _bad(case, good):
    """The bad value of ``case`` in the shape of ``good``."""
    if case in ("nan", "inf"):
        bad = good.copy()
        bad.flat[-1] = np.inf if case == "inf" else np.nan  # last: a sorted sequence stays sorted
        return bad
    return {
        "text": good.astype(str).tolist(),
        "bool": np.ones(good.shape, dtype=bool),
        "complex": good + 1j,
        "ragged": [[1.0], [2.0, 3.0]],
        "non-real": [1.0, {}, 2.0],
        "None": None,
    }[case]


@pytest.mark.parametrize("name, form", [
    (name, form) for name, (_, _, forms, _) in PARAMETERS.items()
    for form, values in zip(("ints", "fractions"), forms) if values is not None
])
def test_integers_and_fractions_read_as_their_float64_array(name, form):
    _, call, forms, _ = PARAMETERS[name]
    values = forms[form == "fractions"]
    assert _bits(call(values)) == _bits(call(np.array(values, dtype=np.float64)))


@pytest.mark.parametrize(
    "case", ["text", "bool", "complex", "ragged", "non-real", "None", "nan", "inf"])
@pytest.mark.parametrize("name", PARAMETERS)
def test_non_reals_are_argument_errors_naming_the_parameter(name, case):
    param, call, _, finite = PARAMETERS[name]
    bad = _bad(case, _good(name))
    if case in ("nan", "inf") and not finite:
        with np.errstate(invalid="ignore"):
            call(bad)  # evaluated as given
        return
    with pytest.raises(ArgumentError, match=f"^{param} "):
        call(bad)


def test_non_finite_entries_where_documented():
    row = kernel_values([[1.0, 2.0, np.nan], [1.0, 2.0, 4.0]], 3)
    assert np.isnan(row[0]) and np.isfinite(row[1])
    assert list(normal().cdf([-np.inf, np.inf])) == [0.0, 1.0]
    assert list(normal().pdf([-np.inf, np.inf])) == [0.0, 0.0]


def test_large_integers_and_float64_arrays():
    from hlmoments.errors import _reals

    assert _reals("x", [2**70, -(2**64)]).tolist() == [2.0**70, -(2.0**64)]
    x = np.array([1.0, 2.0])
    assert _reals("x", x) is x  # no copy
    with pytest.raises(ArgumentError, match=r"^x must be an array of reals of rank 1, got "):
        _reals("x", [[1.0]], 1)
    with pytest.raises(ArgumentError, match="^x must be an array of reals"):
        _reals("x", [10**400])
