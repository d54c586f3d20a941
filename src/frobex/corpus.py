"""Ring-spec files and the bundled example corpus.

A ring spec is a UTF-8 JSON object with fields

    label            short unique name
    characteristic   prime integer
    variables        list of variable names
    relations        list of polynomial strings (may be empty)
    grading          optional list of positive weights, one per variable
    notes            optional free text

Specs parse into QuotientRing instances; the bundled corpus ships as
package data and covers regular rings, both Fermat cubic cones, the Fermat
quintic cone over F_2 (HSL 2), a non-Cohen-Macaulay gluing of two planes,
and a depth-zero ring.
"""

from __future__ import annotations

import json
from importlib import resources

from .algebra import AlgebraError, ParseError, PolyRing, is_prime, parse_poly
from .groebner import QuotientRing, ResourceCapExceeded


class RingSpecError(Exception):
    """Malformed or invalid ring spec file."""


_REQUIRED = ("label", "characteristic", "variables", "relations")
_ALLOWED = set(_REQUIRED) | {"grading", "notes"}


def validate_ring_spec(data) -> dict:
    """Structural validation; returns the cleaned spec dict."""
    if not isinstance(data, dict):
        raise RingSpecError("ring spec must be a JSON object")
    unknown = set(data) - _ALLOWED
    if unknown:
        raise RingSpecError(f"unknown ring spec fields: {sorted(unknown)}")
    for key in _REQUIRED:
        if key not in data:
            raise RingSpecError(f"ring spec is missing field '{key}'")
    label = data["label"]
    if not isinstance(label, str) or not label:
        raise RingSpecError("label must be a nonempty string")
    p = data["characteristic"]
    if not isinstance(p, int) or not is_prime(p):
        raise RingSpecError(f"characteristic not prime: {p!r}")
    variables = data["variables"]
    if (not isinstance(variables, list) or not variables
            or not all(isinstance(v, str) and v.isidentifier() for v in variables)):
        raise RingSpecError("variables must be a nonempty list of identifiers")
    if len(set(variables)) != len(variables):
        raise RingSpecError("variable names must be distinct")
    relations = data["relations"]
    if not isinstance(relations, list) or not all(isinstance(r, str) for r in relations):
        raise RingSpecError("relations must be a list of polynomial strings")
    grading = data.get("grading")
    if grading is not None:
        if (not isinstance(grading, list) or len(grading) != len(variables)
                or not all(isinstance(w, int) and not isinstance(w, bool)
                           and w > 0 for w in grading)):
            raise RingSpecError("grading must list one positive weight per variable")
    return data


def ring_from_spec(data) -> QuotientRing:
    """Build the quotient ring described by a validated spec dict.

    Every relation must be homogeneous for the spec's grading (all ones when
    absent); that is checked before any Groebner work on the relations."""
    spec = validate_ring_spec(data)
    try:
        ambient = PolyRing(spec["characteristic"], spec["variables"],
                           grading=spec.get("grading"))
        relations = []
        for text in spec["relations"]:
            g = parse_poly(ambient, text)
            if not g.is_homogeneous():
                raise RingSpecError(
                    f"relation {text!r} is not homogeneous for the grading "
                    f"{list(ambient.weights)}")
            relations.append(g)
        return QuotientRing(ambient, relations, label=spec["label"])
    except ParseError as exc:
        raise RingSpecError(f"bad relation polynomial: {exc}") from exc
    except ResourceCapExceeded:
        raise  # a resource cap is not a spec problem; let the caller classify
    except AlgebraError as exc:
        raise RingSpecError(str(exc)) from exc


def load_ring_spec(path: str) -> QuotientRing:
    """Read and validate a ring spec file."""
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise RingSpecError(f"cannot read ring spec {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise RingSpecError(f"ring spec {path} is not valid JSON: {exc}") from exc
    return ring_from_spec(data)


def corpus_specs() -> list[dict]:
    """All bundled ring specs, sorted by label."""
    root = resources.files("frobex").joinpath("corpus")
    specs = []
    for entry in root.iterdir():
        if entry.name.endswith(".json"):
            specs.append(validate_ring_spec(json.loads(entry.read_text("utf-8"))))
    specs.sort(key=lambda s: s["label"])
    labels = [s["label"] for s in specs]
    if len(set(labels)) != len(labels):
        raise RingSpecError("duplicate labels in bundled corpus")
    return specs


def corpus_labels() -> list[str]:
    return [s["label"] for s in corpus_specs()]


def corpus_spec(label: str) -> dict:
    """The bundled spec of that label, read from corpus/<label>.json alone."""
    entry = resources.files("frobex").joinpath("corpus").joinpath(f"{label}.json")
    if entry.is_file():
        spec = validate_ring_spec(json.loads(entry.read_text("utf-8")))
        if spec["label"] == label:
            return spec
    raise RingSpecError(f"no bundled ring named {label!r}; "
                        f"known: {', '.join(corpus_labels())}")


def load_corpus_ring(label: str) -> QuotientRing:
    return ring_from_spec(corpus_spec(label))
