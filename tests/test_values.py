"""The value types: immutable, equal field by field within one class, hashed by field.

Each type is built from its fields, positionally, in the order listed here.
``Value`` writes the constructor of every type in ``GENERATED``, which also
takes its fields by name; so does the one ``GCCertificate`` writes to
verify its table.
"""

import copy
import inspect
import operator
import pickle
import re

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
    "NodeCertificate": ("node_index", "constant", "lines", "witnesses"),
    "GCCertificate": ("nodeset", "lines", "covers"),
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

#: The types whose constructor ``Value`` generates; the others validate their fields.
GENERATED = (
    "NodeCertificate", "GMReport", "IncidenceProfile",
    "TrialFailure", "SearchSummary", "FundamentalSolution", "MDSequence", "MLineSequence",
)

#: The types whose constructor takes exactly their fields, by name or in order.
FIELD_SIGNATURE = GENERATED + ("GCCertificate",)

#: The only fields with a default, None.
DEFAULTS = {"GMReport": "counterexample", "MLineSequence": "fixed_first"}

#: The only types that sort.
ORDERED = ("Point", "Line")

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

    def test_only_points_and_lines_order(self, values, name):
        value = values[name]
        other = values["Line" if name == "Point" else "Point"]
        for op in (operator.lt, operator.le, operator.gt, operator.ge):
            with pytest.raises(TypeError):
                op(value, other)
            if name in ORDERED:
                assert op(value, value) is (op in (operator.le, operator.ge))
            else:
                with pytest.raises(TypeError):
                    op(value, value)


def test_value_writes_the_plain_constructors(values):
    for name, value in values.items():
        generated = type(value).__init__.__code__.co_filename == "<string>"
        assert generated is (name in GENERATED), name


@pytest.mark.parametrize("name", FIELD_SIGNATURE)
class TestGeneratedConstructor:
    def test_keyword_equals_positional(self, values, name):
        value = values[name]
        fields = {f: getattr(value, f) for f in FIELDS[name]}
        assert type(value)(**fields) == type(value)(*fields.values()) == value

    def test_missing_unknown_and_repeated_fields(self, values, name):
        value = values[name]
        cls, (first, *rest) = type(value), FIELDS[name]
        fields = [getattr(value, f) for f in FIELDS[name]]
        missing = f"{name}.__init__() missing 1 required positional argument: '{first}'"
        with pytest.raises(TypeError, match=re.escape(missing)):
            cls(**{f: getattr(value, f) for f in rest})
        with pytest.raises(TypeError, match="unexpected keyword argument 'extra'"):
            cls(*fields, extra=None)
        with pytest.raises(TypeError, match=f"multiple values for argument '{first}'"):
            cls(*fields, **{first: fields[0]})

    def test_only_the_declared_default(self, values, name):
        value = values[name]
        *head, last = FIELDS[name]
        fields = [getattr(value, f) for f in head]
        if name in DEFAULTS:
            assert DEFAULTS[name] == last
            assert getattr(type(value)(*fields), last) is None
        else:
            with pytest.raises(TypeError, match=f"missing 1 .*'{last}'"):
                type(value)(*fields)

    def test_signature_lists_the_fields(self, values, name):
        params = inspect.signature(type(values[name])).parameters.values()
        assert tuple(p.name for p in params) == FIELDS[name]
        assert all(p.kind is p.POSITIONAL_OR_KEYWORD for p in params)
        defaults = {p.name: p.default for p in params if p.default is not p.empty}
        assert defaults == ({DEFAULTS[name]: None} if name in DEFAULTS else {})
