"""Ring-spec validation and the bundled corpus."""

import pickle

import pytest

from frobex.corpus import RingSpecError, corpus_labels, load_corpus_ring, ring_from_spec
from frobex.groebner import ring_fingerprint


def assert_pickles(R):
    back = pickle.loads(pickle.dumps(R))
    assert back == R
    assert (back.label, back.grading, back.dim) == (R.label, R.grading, R.dim)
    assert ring_fingerprint(back) == ring_fingerprint(R)


def spec(relations, grading=None, variables=("x", "y", "z")):
    data = {"label": "t", "characteristic": 3, "variables": list(variables),
            "relations": relations}
    if grading is not None:
        data["grading"] = grading
    return data


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


def test_boolean_grading_weight_is_rejected():
    # JSON true loads as a Python bool, which is an int equal to 1
    with pytest.raises(RingSpecError, match="grading"):
        ring_from_spec(spec(["x*y - z^2"], grading=[True, 1, 1]))
