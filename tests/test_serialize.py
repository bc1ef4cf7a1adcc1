"""Canonical JSON: dumps_canonical prints what json.dump prints with the
canonical settings, for every document json accepts, and fails where json fails.
Also the float format that text and CSV print."""

import io
import json
import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oddquadric import CheckResult, VerificationReport, serialize


def json_text(obj):
    """The reference: json's canonical text of obj plus the closing newline."""
    return json.dumps(obj, sort_keys=True, indent=2, ensure_ascii=True) + "\n"


def outcome(render, obj):
    """render(obj), or the type and message of the error it raises."""
    try:
        return render(obj)
    except (TypeError, ValueError) as exc:
        return type(exc), str(exc)


# quotes, backslashes, control characters, DEL, Latin-1, a line separator,
# the last BMP code point and one beyond it (a surrogate pair in the output)
SPECIAL_CHARS = '"\\/\x00\x08\t\n\x0c\r\x1f\x7f\x80\xe9\u2028\uffff\U0001f600'
strings = st.text(st.one_of(st.sampled_from(SPECIAL_CHARS), st.characters()), max_size=8)
ints = st.one_of(
    st.integers(),
    st.integers(min_value=2**64 - 2, max_value=2**90),
    st.integers(min_value=-(2**90), max_value=-(2**64) + 2),
)
floats = st.one_of(
    st.floats(),  # NaN, infinities and subnormals included
    st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 2.2250738585072009e-308]),
)
scalars = st.one_of(st.none(), st.booleans(), ints, floats, floats.map(np.float64), strings)


def containers(children):
    """Lists, tuples and dicts of children; each dict's keys share one type, so they sort."""
    return st.one_of(
        st.lists(children, max_size=5),
        st.lists(children, max_size=5).map(tuple),
        st.dictionaries(strings, children, max_size=5),
        st.dictionaries(st.one_of(ints, st.booleans()), children, max_size=4),
        st.dictionaries(floats, children, max_size=3),
        st.dictionaries(st.none(), children, max_size=1),
    )


documents = st.recursive(scalars, containers, max_leaves=40)
# objects json rejects, as values and as keys
unencodable = st.sampled_from([set(), frozenset({1}), np.bool_(True), np.int64(3), b"x", 1j, object])
bad_documents = st.recursive(
    st.one_of(scalars, unencodable),
    lambda children: st.one_of(
        containers(children),
        st.dictionaries(st.one_of(strings, st.sampled_from([(1, 2), 1j, b"k"])), children, max_size=4),
    ),
    max_leaves=30,
)


@settings(max_examples=300, deadline=None)
@given(doc=documents)
def test_matches_json_on_every_document_json_accepts(doc):
    assert serialize.dumps_canonical(doc) == json_text(doc)


@settings(max_examples=300, deadline=None)
@given(doc=bad_documents)
def test_fails_where_json_fails_and_with_its_message(doc):
    assert outcome(serialize.dumps_canonical, doc) == outcome(json_text, doc)


@pytest.mark.parametrize(
    "obj",
    [set(), np.bool_(False), {"a": {"b": [1, set()]}}, {"a": 1, 2: "b"}, {(1,): 0}, {(1,): set()}, [np.int64(1)]],
    ids=["set", "numpy.bool_", "nested set", "str and int keys", "tuple key", "tuple key to a set", "numpy.int64"],
)
def test_rejects_with_json_type_error(obj):
    with pytest.raises(TypeError) as ours:
        serialize.dumps_canonical(obj)
    with pytest.raises(TypeError) as theirs:
        json_text(obj)
    assert str(ours.value) == str(theirs.value)


@settings(max_examples=50, deadline=None)
@given(extra=st.dictionaries(strings, documents, max_size=3))
def test_a_failing_verify_result_with_a_nan_residual(extra):
    """A failing check's witness, capped as run_check_cell caps it and rendered as
    verify renders it: the path no GOLDEN row reaches."""
    witness = {**extra, "residual": math.nan, "worst": {"residual": math.nan, "bound": math.inf}}
    result = CheckResult("diagonalization", 5, 3, "fail", "residual nan", serialize.cap_witness(witness))
    report = VerificationReport("0.1.0", (5, 5), [result], {"diagonalization": {"pass": 0, "fail": 1}})
    doc = serialize.envelope("verify", {"n_min": 5, "n_max": 5}, serialize.report_json(report))
    assert serialize.dumps_canonical(doc) == json_text(doc)


def test_writes_in_bounded_pieces(monkeypatch):
    """A document of many rows reaches the StringIO in several writes, each a small
    part of it, and its text is still json's."""
    writes = []

    class Recording(io.StringIO):
        def write(self, s):
            writes.append(len(s))
            return super().write(s)

    monkeypatch.setattr(serialize, "io", SimpleNamespace(StringIO=Recording))
    doc = {"rows": [[i, [i / 3, "x"], {"k": [i]}] for i in range(3 * serialize.FLUSH_PIECES)]}
    text = serialize.dumps_canonical(doc)
    assert text == json_text(doc)
    assert len(writes) > 2
    assert max(writes) < len(text) / 2


@settings(max_examples=500, deadline=None)
@given(x=floats)
def test_round9_changes_nothing_fmt_float_prints(x):
    """Text and CSV print fmt_float(x), not fmt_float(round9(x)): the same
    characters, and round9 keeps zero and sign, the two tests fmt_complex makes."""
    r = serialize.round9(x)
    assert serialize.fmt_float(r) == serialize.fmt_float(x)
    assert (r == 0) == (x == 0)
    assert (r >= 0) == (x >= 0)
