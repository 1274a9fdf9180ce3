"""The report writer against ``json.dumps(obj, sort_keys=True, indent=1)``:
same bytes on nested plain data, and verdicts written from the kernels'
columns equal to the verdict objects encoded."""

import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from shapespline.criteria import (
    Criterion,
    Rows,
    adjacency_rows,
    collinearity_rows,
    convexity_rows,
    coplanarity_rows,
    inflection_rows,
    torsion_compat_rows,
    torsion_rows,
)
from shapespline.jsonout import SLOT, Raw, dumps, template
from shapespline.segment import curvature_quad_rows, torsion_numerator_rows
from shapespline.spline import _verdict_template, _verdict_texts


def oracle(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=1)


# quotes, backslashes, control characters, non-ASCII and astral code points
TEXT = st.text(
    alphabet=st.one_of(
        st.sampled_from('"\\/\b\f\n\r\t\x00\x1f\x7fé  ퟿\U0001f600'),
        st.characters(blacklist_categories=("Cs",)),
    ),
    max_size=12,
)
EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-310, 1e16, 1e22, 1.7976931348623157e308, 0.1]
SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.sampled_from([0, 1, -1, True, False]),
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from(EDGE_FLOATS),
    TEXT,
)
PLAIN = st.recursive(
    SCALARS,
    lambda inner: st.one_of(
        st.lists(inner, max_size=5),
        st.tuples(inner, inner),
        st.dictionaries(TEXT, inner, max_size=5),
    ),
    max_leaves=30,
)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(PLAIN)
@example({})
@example([])
@example({"a": {}, "b": [], "c": [[]], "d": [{}]})
@example({"t": True, "f": False, "one": 1, "zero": 0, "1.0": 1.0, "0.0": 0.0})
@example([True, 1, 1.0, False, 0, 0.0, -0.0])
@example(EDGE_FLOATS)
@example({"é\"\\\n": "\x00퟿\U0001f600", "%s": "%r %%"})
def test_dumps_matches_json(obj):
    assert dumps(obj) == oracle(obj)


@pytest.mark.parametrize("level", [0, 1, 4])
def test_dumps_at_a_level_is_the_nested_text(level):
    obj = {"k": [1.5, {"x": None}], "e": []}
    wrapped = obj
    for _ in range(level):
        wrapped = [wrapped]
    text = oracle(wrapped)
    assert dumps(obj, level) in text
    # the nested value starts after its indentation and ends its line
    assert text.splitlines()[level] == " " * level + "{"


def test_non_finite_floats_as_json_writes_them():
    obj = [math.inf, -math.inf, math.nan, {"x": math.inf}]
    assert dumps(obj) == oracle(obj)


def test_raw_text_is_spliced_unchanged():
    assert dumps({"b": Raw("[1]"), "a": 2}, 0) == '{\n "a": 2,\n "b": [1]\n}'


def test_unsupported_values_raise_type_error():
    for bad in ({1: 2}, {"a": object()}, [1j]):
        with pytest.raises(TypeError):
            dumps(bad)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(
    st.dictionaries(TEXT, st.floats(allow_nan=False, allow_infinity=False), max_size=6),
    st.sampled_from([(True, True), (True, False), (False, None)]),
    st.integers(0, 6),
)
def test_verdict_template_fills_to_the_verdict_dict(diagnostics, outcome, level):
    applicable, passed = outcome
    keys = tuple(sorted(diagnostics))
    text = _verdict_template(Criterion.CONVEXITY, applicable, passed, keys, level)
    verdict = {"criterion": "convexity", "applicable": applicable, "passed": passed, "diagnostics": diagnostics}
    assert text % tuple(diagnostics[k] for k in keys) == dumps(verdict, level)
    assert dumps(verdict) == oracle(verdict)


def test_template_escapes_literal_percent_signs():
    text = template({"100%": SLOT, "s": "%s"})
    assert text % (2.5,) == oracle({"100%": 2.5, "s": "%s"})


def kernel_batches(rng, n: int = 80) -> list:
    """Every closed-form kernel over ``n`` random rows; zero twists, zero
    binormals, parallel chords and zero middle hodograph points on some rows
    give each kernel non-applicable rows and masked sine columns."""
    m0, m1, chord, n_prev, n_cur = rng.normal(size=(5, n, 3))
    h = rng.uniform(0.5, 2.0, n)
    m1[::5] = (3.0 / h[::5])[:, None] * chord[::5] - m0[::5]
    delta = rng.normal(size=n)
    delta[::4] = 0.0
    n_prev[::7] = 0.0
    l_prev = chord * rng.uniform(0.5, 2.0, (n, 1))
    l_cur = chord * rng.uniform(0.5, 2.0, (n, 1))
    l_cur[1::2] = rng.normal(size=(n // 2, 3))
    floor = np.ones(n)
    eps = 1e-9
    quad = curvature_quad_rows(m0, m1, chord, h)
    tau = torsion_numerator_rows(m0, m1, chord, h)
    collinear = collinearity_rows(m0, m1, chord, h, l_prev, l_cur, eps, 0.05)
    collinear.add_column("vertex", np.arange(n) + 1)
    return [
        convexity_rows(m0, m1, chord, h, n_prev, n_cur, eps),
        inflection_rows(quad, n_prev, n_cur, eps),
        torsion_rows(m0, m1, chord, delta, floor, eps),
        coplanarity_rows(quad, n_prev, n_cur, delta, floor, eps, 0.05),
        collinear,
        adjacency_rows(m1, n_prev, l_prev, l_cur, eps),
        torsion_compat_rows(delta[:-1], delta[1:], tau[:-1], tau[1:], eps, floor[:-1], floor[:-1]),
    ]


@pytest.mark.parametrize("level", [0, 3])
def test_verdict_texts_are_the_verdict_objects_encoded(rng, level):
    patterns, masked = set(), set()
    for rows in kernel_batches(rng):
        texts = _verdict_texts(rows, level)
        verdicts = [rows.verdict(r) for r in range(len(rows.applicable))]
        assert texts == [dumps(v.to_dict(), level) for v in verdicts]
        if level == 0:
            assert texts == [oracle(v.to_dict()) for v in verdicts]
        patterns |= {(v.criterion, v.passed, len(v.diagnostics)) for v in verdicts}
        masked |= {v.criterion for v in verdicts if v.applicable and "sine_p1_prev" in rows.columns
                   and "sine_p1_prev" not in v.diagnostics}
    assert {p[1] for p in patterns} == {True, False, None}
    assert (Criterion.TORSION, None, 1) in patterns  # one field, no tuple
    assert masked == {Criterion.COLLINEARITY}  # a zero middle hodograph point
    none = np.zeros(0, dtype=bool)
    assert _verdict_texts(Rows(Criterion.TORSION, none, none, {"delta": np.zeros(0)}, head=1), level) == []
