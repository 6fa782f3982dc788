"""The CLI's JSON writer against its oracle, json.dumps(indent=2, sort_keys=True).

Every report the CLI prints goes through cli._to_json, which must give the
same bytes as the json module on any payload with str keys, and refuse any
other key. Its block path for a support pattern, a spectral.PatternRows, is
tested on its own below.
"""

import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from flownet.cli import _to_json
from flownet.errors import SpectralError
from flownet.spectral import PatternRows

# quotes, backslashes, control characters and non-ASCII, which json escapes
_TRICKY = '"\\/\x00\x07\x1f\x7f\b\f\n\r\té€ \ud800\U0001f600'
texts = st.text(st.one_of(st.characters(), st.sampled_from(_TRICKY)))

scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(-(2 ** 200), 2 ** 200),
    st.floats(),
    st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 1e16, 1e-05, 5e-324]),
    texts,
)
int_lists = st.lists(st.one_of(st.integers(), st.booleans()))  # bools among ints
patterns = st.lists(st.lists(st.integers(0, 1), min_size=1, max_size=8), max_size=8)
# mostly str keys, so that most payloads reach the comparison
keys = st.one_of(texts, texts, texts, st.integers(), st.floats(), st.booleans(), st.none())

payloads = st.recursive(
    st.one_of(scalars, int_lists, int_lists.map(tuple), patterns),
    lambda children: st.one_of(
        st.lists(children, max_size=5),
        st.lists(children, max_size=5).map(tuple),
        st.dictionaries(keys, children, max_size=5),
    ),
    max_leaves=30,
)


def has_non_str_key(obj) -> bool:
    if isinstance(obj, dict):
        return any(not isinstance(k, str) or has_non_str_key(v) for k, v in obj.items())
    if isinstance(obj, (list, tuple)):
        return any(has_non_str_key(v) for v in obj)
    return False


@settings(max_examples=300, derandomize=True, deadline=None)
@given(payloads)
@example([1, True])
@example({"a": [], "b": {}, "c": (), "d": [[]], "e": [{}]})
@example({"patterns": {"ab": [[0, 1], [1, 0]]}, "tau": 2, "shortcut_tau": None})
@example([math.nan, math.inf, -math.inf, -0.0, 1e16, 1e-05, 5e-324, -(10 ** 40)])
@example({"kéy \"q\" \\ \x01": {"\U0001f600": True}})
@example({1: "x"})
def test_writer_gives_the_json_module_bytes_or_refuses_a_non_str_key(obj):
    if has_non_str_key(obj):
        with pytest.raises(TypeError):
            _to_json(obj)
    else:
        assert _to_json(obj) == json.dumps(obj, indent=2, sort_keys=True)


# A support pattern reaches the writer as a PatternRows, written as one filled
# byte block from its array; a plain list, 0/1 or not, takes the general path.
_PATTERN = np.random.default_rng(150).integers(0, 2, (150, 150))


@pytest.mark.parametrize("obj", [
    {"patterns": PatternRows(_PATTERN)},
    {"a": {"b": {"patterns": PatternRows(_PATTERN)}}},
    [[0, 1], [1]],
    [[0, True]],
    [[0, 2]],
    [[]],
    ([0, 1], [1, 0]),
], ids=["150x150-depth-1", "150x150-depth-3", "ragged", "bool", "two", "empty-row",
        "tuple-of-lists"])
def test_writer_examples_give_the_json_module_bytes(obj):
    assert _to_json(obj) == json.dumps(obj, indent=2, sort_keys=True)


matrices = st.tuples(st.integers(1, 40), st.integers(1, 40), st.integers(0, 2 ** 32 - 1),
                     st.sampled_from([np.int64, np.int8, np.uint8])).map(
    lambda a: np.random.default_rng(a[2]).integers(0, 2, a[:2]).astype(a[3]))


@settings(max_examples=200, derandomize=True, deadline=None)
@given(matrices, st.integers(0, 3))
@example(_PATTERN, 1)
def test_writer_block_gives_the_json_module_bytes(pattern, depth):
    obj = rows = PatternRows(pattern)
    for level in range(depth):
        obj = {f"k{level}": obj, "n": level}
    assert rows == pattern.tolist() and np.array_equal(rows.array, pattern)
    assert _to_json(obj) == json.dumps(obj, indent=2, sort_keys=True)


@pytest.mark.parametrize("pattern", [
    np.array([0, 1]),
    np.zeros((0, 3), np.int64),
    np.array([[0.0, 1.0], [1.0, 0.0]]),
    np.array([[0, 2], [1, 0]]),
    np.array([[0, -1], [1, 0]]),
    np.array([[False, True], [True, False]]),
    [[0, 1], [1, 0]],
], ids=["1-d", "empty", "float", "two", "minus-one", "bool", "list"])
def test_pattern_rows_refuse_anything_but_a_0_1_integer_matrix(pattern):
    with pytest.raises(SpectralError, match="support pattern"):
        PatternRows(pattern)
