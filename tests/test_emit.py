"""The JSON emitter against json's own encoder.

`cli._dumps` writes every `classify --json` and `suite --json` document;
its bytes must equal `oracles.json_doc_oracle` on the same objects
(tuples, bools in int lists and odd strings included, and one object
written at several places), not merely parse back to the same values.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from monact import cli
from monact.harness import CorpusSpec, build_corpus, run_suite

from oracles import json_doc_oracle


@pytest.fixture
def emitted(monkeypatch):
    """(document, text) for each top-level document the CLI emits."""
    docs = []
    dumps = cli._dumps

    def spy(x):
        docs.append((x, dumps(x)))
        return docs[-1][1]

    monkeypatch.setattr(cli, "_dumps", spy)
    return docs


def mismatches(docs):
    return [doc for doc, text in docs if text != json_doc_oracle(doc)]


@pytest.mark.parametrize("spec", [
    CorpusSpec(),
    CorpusSpec(max_monoid_size=2, max_act_size=3, seed=7, samples=3),
], ids=["default", "sampled"])
def test_suite_documents_match_json(emitted, spec):
    text = cli.suite_json(run_suite(spec))
    assert [t + "\n" for _, t in emitted] == [text]
    assert mismatches(emitted) == []


@pytest.mark.parametrize("decider", [
    "is_hopfian", "is_co_hopfian", "is_strongly_hopfian", "is_strongly_co_hopfian",
])
def test_forced_false_suite_documents_match_json(forced_flags, emitted, decider):
    # failing verdicts carry witness payloads: nested tables, flags, maps
    forced_flags({decider: lambda A: False})
    result = run_suite(CorpusSpec(max_monoid_size=2, max_act_size=3))
    assert any(not v.passed for v in result.verdicts)
    cli.suite_json(result)
    assert mismatches(emitted) == []


def corpus_file(tmp_path):
    """The default corpus as one input file, and its act names."""
    corpus = build_corpus(CorpusSpec())
    blocks, names = [], []
    for i, (M, acts) in enumerate(zip(corpus.monoids, corpus.acts)):
        blocks.append(f"monoid M{i} {M.size}\n" + "".join(" ".join(map(str, r)) + "\n" for r in M.table))
        for j, A in enumerate(acts):
            names.append(f"A{i}.{j}")
            rows = "".join(" ".join(map(str, r)) + "\n" for r in A.action)
            blocks.append(f"act {names[-1]} over M{i} {A.size}\n{rows}")
    path = tmp_path / "corpus.act"
    path.write_text("\n".join(blocks))
    return str(path), names


def test_classify_documents_of_default_corpus_match_json(tmp_path, emitted, capsys):
    path, names = corpus_file(tmp_path)
    assert len(names) == 142
    for name in names:
        assert cli.main(["classify", path, "--act", name, "--json"]) == 0
    out = capsys.readouterr().out
    assert len(emitted) == 142
    assert out == "".join(text + "\n" for _, text in emitted)
    assert mismatches(emitted) == []


# quote, backslash, controls, non-ASCII, astral and lone surrogates
ODD_CHARS = '"\\/\x00\x08\x1f\x7f\xe9\u2028\U0001f600\ud800\udbff\udc00\udfff'
strings = st.text(st.one_of(st.characters(), st.sampled_from(ODD_CHARS)), max_size=8)
scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(min_value=-(2**200), max_value=2**200),
    st.floats(),
    strings,
)
int_lists = st.lists(st.one_of(st.integers(), st.booleans()), max_size=6)
json_values = st.recursive(
    st.one_of(scalars, int_lists, int_lists.map(tuple)),
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(strings, inner, max_size=4),
    ),
    max_leaves=30,
)


@settings(max_examples=400, deadline=None)
@given(json_values)
def test_emitter_matches_json_on_generated_values(value):
    assert cli._dumps(value) == json_doc_oracle(value)


@st.composite
def shared_values(draw):
    """A document that holds each of a few drawn values, tuples among
    them, at several places and nestings: the same objects, not copies."""
    parts = draw(st.lists(st.one_of(json_values, st.lists(json_values, max_size=3).map(tuple)),
                          min_size=1, max_size=4))
    return draw(st.recursive(
        st.sampled_from(parts),
        lambda inner: st.one_of(
            st.lists(inner, max_size=4),
            st.lists(inner, max_size=4).map(tuple),
            st.dictionaries(strings, inner, max_size=4),
        ),
        max_leaves=12,
    ))


@settings(max_examples=300, deadline=None)
@given(shared_values())
def test_emitter_matches_json_on_shared_values(value):
    assert cli._dumps(value) == json_doc_oracle(value)


PAIR = (1, (2, 3))
HOLDS_A_LIST = ([1, {"k": None}], "s")


@pytest.mark.parametrize("value", [
    {"a": PAIR, "b": [PAIR, {"c": PAIR}]},  # one tuple at three nestings
    [PAIR, PAIR, PAIR],  # one tuple three times at one nesting
    ((PAIR[1], PAIR), PAIR[1]),  # a shared tuple inside another
    [tuple([1]), tuple([True]), tuple([1]), tuple([True])],  # equal, not alike
    {"x": HOLDS_A_LIST, "y": [HOLDS_A_LIST, (HOLDS_A_LIST,)]},
], ids=["depths", "repeats", "nested", "one-and-true", "holds-a-list"])
def test_emitter_writes_shared_objects_as_json_does(value):
    assert cli._dumps(value) == json_doc_oracle(value)


@pytest.mark.parametrize("value, text", [
    ([1, True, False], "[\n  1,\n  true,\n  false\n]"),
    ([None, 0], "[\n  null,\n  0\n]"),
    ((), "[]"),
    ({}, "{}"),
    ({"b": [], "a": {"c": (-1,)}}, '{\n  "a": {\n    "c": [\n      -1\n    ]\n  },\n  "b": []\n}'),
    ('q"\\é\ud800', '"q\\"\\\\\\u00e9\\ud800"'),
])
def test_emitter_pinned_examples(value, text):
    assert cli._dumps(value) == text == json_doc_oracle(value)


@pytest.mark.parametrize("doc", [{1: 2}, {None: 1}, {"a": {True: 0}}, {"a": 1, 2: "b"}])
def test_non_str_keys_are_refused(doc):
    with pytest.raises(TypeError):
        cli._dumps(doc)

