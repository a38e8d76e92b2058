"""The value types: immutable, equal field by field within one class, hashed by field.

Each type is built from its fields, positionally, in the order listed here.
"""

import copy
import pickle

import pytest

from gcnlab import (
    GeneratorSpec,
    Line,
    Point,
    TrialFailure,
    fundamental,
    greedy_mdseq,
    incidence_profile,
    search_counterexample,
    verify_gm,
)

FIELDS = {
    "Point": ("x", "y"),
    "Line": ("a", "b", "c"),
    "NodeSet": ("degree", "nodes", "labels"),
    "Incidence": ("degree", "scale", "coords"),
    "NodeCertificate": ("node_index", "constant", "lines", "witnesses"),
    "GCCertificate": ("nodeset", "entries"),
    "GMReport": ("degree", "satisfied", "maximal_lines", "counterexample"),
    "IncidenceProfile": ("center", "target", "counts"),
    "TrialFailure": ("trial", "kind", "seed", "reason", "certificate"),
    "SearchSummary": (
        "degree", "trials", "seed", "kinds", "coordinate_bound", "certified", "gm_satisfied",
        "failures", "use_count_max",
    ),
    "GeneratorSpec": ("kind", "degree", "seed", "coordinate_bound"),
    "FundamentalSolution": ("node_index", "poly"),
    "Poly": ("degree_bound", "coeffs"),
    "MDSequence": ("counts",),
    "MLineSequence": (
        "node_index", "nodeset", "used", "lines", "counts", "primary", "fixed_first",
    ),
}

#: Types with a repr of their own; every other type prints ``Name(field=value, ...)``.
OWN_REPR = {"Point": "Point(1/2, -3)", "Line": "Line(1, -2, 3)"}


@pytest.fixture(scope="module")
def values(cy2, cy2_cert):
    seq = greedy_mdseq(cy2_cert, 0)
    sol = fundamental(cy2, 0)
    found = [
        Point("1/2", -3),
        Line(2, -4, 6),
        cy2,
        cy2.incidence,
        cy2_cert.entries[0],
        cy2_cert,
        verify_gm(cy2),
        incidence_profile(cy2, 0),
        TrialFailure(3, "principal", 7, "not GC", None),
        search_counterexample(2, 2, seed=1),
        GeneratorSpec("principal", 2),
        sol,
        sol.poly,
        seq.distribution(),
        seq,
    ]
    by_name = {type(v).__name__: v for v in found}
    assert sorted(by_name) == sorted(FIELDS)
    return by_name


@pytest.mark.parametrize("name", sorted(FIELDS))
class TestValueType:
    def test_fields_cannot_be_set_or_deleted(self, values, name):
        value = values[name]
        for field in FIELDS[name] + ("extra",):
            with pytest.raises(AttributeError):
                setattr(value, field, None)
        for field in FIELDS[name]:
            with pytest.raises(AttributeError):
                delattr(value, field)

    def test_equal_to_a_rebuilt_value_only(self, values, name):
        value = values[name]
        fields = tuple(getattr(value, f) for f in FIELDS[name])
        rebuilt = type(value)(*fields)
        assert rebuilt == value and not rebuilt != value
        assert value != fields
        for other in values.values():
            if other is not value:
                assert value != other

    def test_hash_of_the_fields(self, values, name):
        value = values[name]
        if name == "Poly":  # equality is mathematical, across degree bounds
            assert type(value).__hash__ is None
            return
        fields = tuple(getattr(value, f) for f in FIELDS[name])
        try:
            expected = hash(fields)
        except TypeError:  # a dict or Poly field
            with pytest.raises(TypeError):
                hash(value)
        else:
            assert hash(value) == expected

    def test_repr(self, values, name):
        value = values[name]
        if name == "Poly":
            assert repr(value).startswith("Poly(degree_bound=2, ")
        elif name in OWN_REPR:
            assert repr(value) == OWN_REPR[name]
        else:
            fields = ", ".join(f"{f}={getattr(value, f)!r}" for f in FIELDS[name])
            assert repr(value) == f"{name}({fields})"

    def test_copy_and_pickle(self, values, name):
        value = values[name]
        for twin in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
            assert type(twin) is type(value) and twin == value
