"""The kept rule texts encode answers byte for byte as a fresh encode does.

``DiscoveryResult.json_bytes()`` and ``iter_jsonl()`` join each rule's
``rule_json_text``, rendered once and kept on the CFD.  The body must equal
``json.dumps(to_json_dict(), allow_nan=False)``, and each rule line the
rule's dict tagged ``"kind": "rule"`` and encoded on its own — on the first
encode, on a cached one, and for a filtered answer served from the same
memoised cover.
"""

import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.api import REGISTRY, DiscoveryRequest, Profiler
from repro.api.result import DiscoveryResult, json_native, rule_json_dict
from repro.core.cfd import CFD
from repro.core.pattern import WILDCARD, is_wildcard
from repro.datagen import generate_tax
from repro.relational.relation import Relation

#: Constants a JSON encoder must take care with: null, a bool, zero, a
#: float, the empty string, non-ASCII text, quotes and a backslash.
AWKWARD = [None, True, 0, 1.5, "", "naïve", '"quoted"', "back\\slash", "日本"]

#: Two row shapes, each twice, so every value is 2-frequent.
AWKWARD_ROWS = [
    (None, True, 0, 1.5, "", 'naïve "quoted" back\\slash'),
    (None, True, 0, 1.5, "", 'naïve "quoted" back\\slash'),
    ("日本", False, 3, 2.5, "x", "y"),
    ("日本", False, 3, 2.5, "x", "y"),
]


@pytest.fixture(scope="module")
def awkward_relation():
    return Relation.from_rows(["A", "B", "C", "D", "E", "F"], AWKWARD_ROWS)


def fresh_body(result):
    return json.dumps(result.to_json_dict(), allow_nan=False).encode()


def fresh_rule_lines(result):
    """Each rule encoded on its own, as the stream wrote it before caching."""
    lines = []
    for cfd in result.cfds:
        rule = rule_json_dict(cfd)
        rule["kind"] = "rule"
        lines.append(json.dumps(json_native(rule), allow_nan=False))
    return lines


def assert_encodes_freshly(result):
    body = result.json_bytes()
    assert body == fresh_body(result)
    assert body.endswith(b"]}")  # "rules" stays the last key
    lines = list(result.iter_jsonl())
    assert json.loads(lines[0])["kind"] == "result"
    assert lines[1:] == fresh_rule_lines(result)
    return body, lines


@pytest.mark.parametrize("algorithm", REGISTRY.names())
def test_every_engine_encodes_byte_for_byte(awkward_relation, algorithm):
    profiler = Profiler(awkward_relation)
    result = profiler.run(DiscoveryRequest(min_support=2, algorithm=algorithm))
    constants = {
        repr(value)
        for cfd in result.cfds
        for value in (*cfd.lhs_pattern, cfd.rhs_pattern)
        if not is_wildcard(value)
    }
    assert {repr(v) for v in (None, True, 0, 1.5, "")} <= constants
    assert repr('naïve "quoted" back\\slash') in constants

    first_body, first_lines = assert_encodes_freshly(result)
    # The second encode joins the kept texts.
    second_body, second_lines = assert_encodes_freshly(result)
    assert second_body == first_body and second_lines == first_lines
    # So does the next answer from the memoised cover.
    again = profiler.run(DiscoveryRequest(min_support=2, algorithm=algorithm))
    assert again.cfds == result.cfds
    assert_encodes_freshly(again)


@pytest.mark.parametrize(
    "post",
    [{"constant_only": True}, {"variable_only": True}, {"rank_by": "support"}],
    ids=["constant_only", "variable_only", "rank_by"],
)
def test_filtered_answers_reuse_the_memoised_cover(awkward_relation, post):
    profiler = Profiler(awkward_relation)
    full = profiler.run(DiscoveryRequest(min_support=2, algorithm="fastcfd"))
    assert_encodes_freshly(full)
    filtered = profiler.run(
        DiscoveryRequest(min_support=2, algorithm="fastcfd", **post)
    )
    assert filtered.cfds
    shared = {id(cfd) for cfd in full.cfds}
    assert all(id(cfd) in shared for cfd in filtered.cfds)
    assert_encodes_freshly(filtered)


def test_empty_cover():
    result = DiscoveryResult(
        algorithm="fastcfd",
        cfds=[],
        min_support=3,
        elapsed_seconds=0.25,
        relation_size=4,
        relation_arity=2,
    )
    body, lines = assert_encodes_freshly(result)
    assert body.endswith(b'"rules": []}')
    assert len(lines) == 1


@settings(max_examples=25, deadline=None)
@given(
    rows=st.lists(
        st.tuples(*[st.sampled_from(AWKWARD) for _ in range(3)]),
        min_size=1,
        max_size=6,
    ),
    k=st.integers(min_value=1, max_value=2),
)
def test_generated_relations_encode_byte_for_byte(rows, k):
    profiler = Profiler(Relation.from_rows(["A", "B", "C"], rows))
    result = profiler.run(DiscoveryRequest(min_support=k, algorithm="fastcfd"))
    assert_encodes_freshly(result)
    assert_encodes_freshly(result)


def two_list_counts(cfds):
    """The counts as two filtered lists define them."""
    return {
        "constant": len([cfd for cfd in cfds if cfd.is_constant]),
        "variable": len([cfd for cfd in cfds if cfd.is_variable]),
        "total": len(cfds),
    }


@pytest.mark.parametrize("algorithm", REGISTRY.names())
def test_counts_match_the_two_list_definition(algorithm):
    relation = generate_tax(120, arity=7, seed=4)
    result = Profiler(relation).run(
        DiscoveryRequest(min_support=5, algorithm=algorithm)
    )
    assert result.cfds
    assert result.counts() == two_list_counts(result.cfds)


def test_counts_of_hand_built_rules():
    constant = CFD(("A",), ("a",), "B", "b")
    variable = CFD(("A",), ("a",), "B", WILDCARD)
    # A constant RHS under a wildcard LHS is neither kind.
    neither = CFD(("A",), (WILDCARD,), "B", "b")
    result = DiscoveryResult(
        algorithm="fastcfd",
        cfds=[constant, variable, neither, variable],
        min_support=1,
        elapsed_seconds=0.0,
        relation_size=2,
        relation_arity=2,
    )
    assert result.counts() == {"constant": 1, "variable": 2, "total": 4}
    assert result.counts() == two_list_counts(result.cfds)
