"""Ring-spec validation and the bundled corpus."""

import json
import pickle
from importlib import resources

import pytest

from frobex.corpus import (
    RingSpecError,
    corpus_labels,
    corpus_spec,
    load_corpus_ring,
    load_ring_spec,
    ring_from_spec,
)
from frobex.groebner import ring_fingerprint


def assert_pickles(R):
    back = pickle.loads(pickle.dumps(R))
    assert back == R
    assert (back.label, back.grading, back.dim) == (R.label, R.grading, R.dim)
    assert ring_fingerprint(back) == ring_fingerprint(R)


def spec(relations, grading=None, variables=("x", "y", "z"), **fields):
    """A spec over F_3; a field given as ... is left out."""
    data = {"label": "t", "characteristic": 3, "variables": list(variables),
            "relations": relations, **fields}
    if grading is not None:
        data["grading"] = grading
    return {key: value for key, value in data.items() if value is not ...}


@pytest.mark.parametrize("data,message", [
    ([spec([])], "must be a JSON object"),
    (spec([], colour="red"), r"unknown ring spec fields: \['colour'\]"),
    (spec([], label=...), "missing field 'label'"),
    (spec([], label=""), "label must be a nonempty string"),
    (spec([], characteristic=4), "characteristic not prime: 4"),
    (spec([], variables=("x", "2y")), "variables must be a nonempty list"),
    (spec([], variables=("x", "x")), "must be distinct"),
    (spec([2]), "relations must be a list of polynomial strings"),
    (spec(["x^"]), "bad relation polynomial"),
    (spec(["1"]), "relations generate the unit ideal"),
    (spec([], variables=("_x", "y")), "bad variable name: '_x'"),
], ids=["not-an-object", "unknown-field", "missing-field", "empty-label",
        "characteristic-not-prime", "bad-variables", "duplicate-variables",
        "relation-not-a-string", "relation-does-not-parse", "unit-ideal",
        "variable-not-in-the-ring"])
def test_invalid_spec_is_rejected(data, message):
    with pytest.raises(RingSpecError, match=message):
        ring_from_spec(data)


def test_unreadable_spec_path_is_rejected(tmp_path):
    with pytest.raises(RingSpecError, match="cannot read ring spec"):
        load_ring_spec(str(tmp_path))


def test_inhomogeneous_relation_is_rejected():
    with pytest.raises(RingSpecError, match="not homogeneous"):
        ring_from_spec(spec(["x^2 + y"]))


def test_weighted_homogeneous_relation_is_accepted():
    # x^3 + y^2 has degree 6 under weights (2, 3, 1) but is not standard-graded
    R = ring_from_spec(spec(["x^3 + y^2"], grading=[2, 3, 1]))
    assert R.grading == (2, 3, 1)
    assert_pickles(R)
    with pytest.raises(RingSpecError, match="not homogeneous"):
        ring_from_spec(spec(["x^3 + y^2"]))


@pytest.mark.parametrize("label", corpus_labels())
def test_corpus_rings_load(label):
    R = load_corpus_ring(label)
    assert R.label == label
    assert_pickles(R)


def test_bundled_file_stems_are_their_labels():
    # corpus_spec reads corpus/<label>.json alone, so each file is named so
    files = [entry for entry in resources.files("frobex").joinpath("corpus").iterdir()
             if entry.name.endswith(".json")]
    assert sorted(entry.name[:-len(".json")] for entry in files) == corpus_labels()
    for entry in files:
        assert json.loads(entry.read_text("utf-8"))["label"] == entry.name[:-len(".json")]


@pytest.mark.parametrize("label", ["no-such-ring", "../corpus/two-planes-f2", ""])
def test_unknown_corpus_label_is_rejected(label):
    with pytest.raises(RingSpecError, match="no bundled ring"):
        corpus_spec(label)


def test_boolean_grading_weight_is_rejected():
    # JSON true loads as a Python bool, which is an int equal to 1
    with pytest.raises(RingSpecError, match="grading"):
        ring_from_spec(spec(["x*y - z^2"], grading=[True, 1, 1]))
