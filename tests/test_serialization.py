"""Interchange schemas: exact round trips, canonical dumps, diagnostics."""

import json
import pickle
from fractions import Fraction

import pytest
from conftest import index_of
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import nodeset_from_dict_fraction, plot_svg_fraction

from gcnlab import (
    BadRational,
    DuplicateNode,
    GMReport,
    InvalidCertificate,
    Line,
    NodeSet,
    ParseError,
    Point,
    certify_gc,
    gm_report_from_certificate,
    plot_svg,
    search_counterexample,
)
from gcnlab.serialization import (
    format_rational,
    load_certificate,
    load_nodeset,
    load_report,
    load_summary,
    nodeset_from_dict,
    nodeset_to_dict,
    parse_rational,
    poly_from_dict,
    poly_to_dict,
    save_certificate,
    save_nodeset,
    save_report,
    save_summary,
)


class TestRationals:
    def test_parse_exact_forms(self):
        assert parse_rational("1/3") == Fraction(1, 3)
        assert parse_rational("-7") == -7
        assert parse_rational("0") == 0

    @pytest.mark.parametrize(
        "bad", ["0.5", "1e3", "", "a", "1/0", "--2", "1/ 2", None, 3, "1/2\n", "\u0663"]
    )
    def test_rejects_inexact_forms(self, bad):
        with pytest.raises(BadRational):
            parse_rational(bad)

    @given(st.fractions(max_denominator=10**6))
    def test_round_trip(self, q):
        assert parse_rational(format_rational(q)) == q


class TestOversizedIntegers:
    """Integers past the interpreter's string conversion limit are schema errors, not bare ValueErrors."""

    @pytest.mark.parametrize("form", ["{}", "-{}", "1/{}", "{}/3"])
    def test_parse_rational(self, too_many_digits, form):
        digits = len(too_many_digits)
        message = f"^rational with a {digits}-digit integer exceeds the {digits - 1}-digit limit$"
        with pytest.raises(BadRational, match=message):
            parse_rational(form.format(too_many_digits))

    def test_node_coordinate(self, too_many_digits):
        doc = json.dumps({"degree": 0, "nodes": [[too_many_digits, "0"]]})
        with pytest.raises(BadRational):
            load_nodeset(doc)

    def test_degree_literal(self, too_many_digits):
        doc = '{"degree": %s, "nodes": []}' % too_many_digits
        limit = len(too_many_digits) - 1
        message = f"^malformed node set document: an integer exceeds the {limit}-digit limit$"
        with pytest.raises(ParseError, match=message):
            load_nodeset(doc)

    def test_use_count_max_key(self, too_many_digits):
        doc = json.loads(save_summary(search_counterexample(degree=2, trials=2, seed=1)))
        doc["use_count_max"][too_many_digits] = 3
        digits = len(too_many_digits)
        message = f"^use_count_max key with a {digits}-digit integer exceeds the {digits - 1}-digit limit$"
        with pytest.raises(ParseError, match=message):
            load_summary(json.dumps(doc))

    @pytest.mark.parametrize("position", range(3))
    def test_witness_key(self, cy2_cert, too_many_digits, position):
        doc = json.loads(save_certificate(cy2_cert))
        witnesses = doc["entries"][0]["witnesses"]
        key = next(iter(witnesses))
        parts = key.split(",")
        parts[position] = ("-" if position else "") + too_many_digits
        witnesses[",".join(parts)] = witnesses.pop(key)
        digits = len(too_many_digits)
        message = f"^witness key with a {digits}-digit integer exceeds the {digits - 1}-digit limit$"
        with pytest.raises(ParseError, match=message) as excinfo:
            load_certificate(json.dumps(doc))
        assert "set_int_max_str_digits" not in str(excinfo.value)


class TestNodeSetDocuments:
    def test_minimal_document(self):
        xs = load_nodeset('{"degree":1,"nodes":[["0","0"],["1","0"],["0","1"]]}')
        assert xs.degree == 1 and len(xs) == 3
        assert xs.nodes[1] == Point(1, 0)

    def test_rational_coordinates_exact(self):
        xs = load_nodeset('{"degree":0,"nodes":[["1/3","-2/7"]]}')
        assert xs.nodes[0] == Point(Fraction(1, 3), Fraction(-2, 7))

    def test_duplicate_rows_rejected(self):
        with pytest.raises(DuplicateNode):
            load_nodeset('{"degree":1,"nodes":[["0","0"],["0","0"],["1","1"]]}')

    def test_round_trip_with_labels(self):
        xs = NodeSet(2, (Point(0, 0), Point(Fraction(1, 3), 2)), labels=("a", "b"))
        assert load_nodeset(save_nodeset(xs)) == xs

    def test_round_trip_generated(self, cy5_pair):
        xs, _ = cy5_pair
        assert load_nodeset(save_nodeset(xs)) == xs

    def test_malformed_json_diagnostics(self):
        with pytest.raises(ParseError, match="line 1"):
            load_nodeset("{nodes: oops}")

    def test_field_diagnostics(self):
        with pytest.raises(ParseError, match="degree"):
            load_nodeset('{"degree":"three","nodes":[]}')
        with pytest.raises(ParseError, match="nodes"):
            load_nodeset('{"degree":3}')
        with pytest.raises(ParseError, match="row 0"):
            load_nodeset('{"degree":1,"nodes":[["1"]]}')

    def test_float_coordinates_rejected(self):
        with pytest.raises(BadRational):
            load_nodeset('{"degree":0,"nodes":[["0.5","1"]]}')


class TestCertificateDocuments:
    def test_round_trip(self, cy2_cert):
        again = load_certificate(save_certificate(cy2_cert))
        assert again == cy2_cert

    def test_schema_fields(self, cy2_cert):
        import json

        doc = json.loads(save_certificate(cy2_cert))
        entry = doc["entries"][0]
        assert set(entry) == {"node", "constant", "lines", "witnesses"}
        assert all(len(t) == 3 for t in entry["lines"])
        for key, ids in entry["witnesses"].items():
            assert len(key.split(",")) == 3
            assert all(isinstance(j, int) for j in ids)

    def test_degree5_round_trip(self, cy5_pair):
        _, cert = cy5_pair
        assert load_certificate(save_certificate(cert)) == cert

    def test_hand_written_document_loads(self, triangle):
        # pins the documented shape independently of save_certificate
        text = """
        {"degree": 1,
         "nodes": [["0", "0"], ["1", "0"], ["0", "1"]],
         "entries": [
           {"node": 0, "constant": "-1", "lines": [[1, 1, -1]],
            "witnesses": {"1,1,-1": [1, 2]}},
           {"node": 1, "constant": "1", "lines": [[1, 0, 0]],
            "witnesses": {"1,0,0": [0, 2]}},
           {"node": 2, "constant": "1", "lines": [[0, 1, 0]],
            "witnesses": {"0,1,0": [0, 1]}}]}
        """
        cert = load_certificate(text)
        assert cert.nodeset == triangle
        assert certify_gc(triangle) == cert


class TestReportDocuments:
    def test_round_trip(self, cy5_pair):
        _, cert = cy5_pair
        report = gm_report_from_certificate(cert)
        again = load_report(save_report(report))
        assert again == report

    def test_satisfied_flag_serialized(self, cy2_cert):
        report = gm_report_from_certificate(cy2_cert)
        assert '"satisfied": true' in save_report(report)

    def test_unsatisfied_round_trip(self, cy2_cert):
        report = GMReport(degree=2, satisfied=False, maximal_lines=(), counterexample=cy2_cert)
        again = load_report(save_report(report))
        assert again == report


class TestSummaryDocuments:
    def test_round_trip(self):
        summary = search_counterexample(degree=2, trials=4, seed=5)
        assert load_summary(save_summary(summary)) == summary

    def test_canonical_bytes(self):
        a = save_summary(search_counterexample(degree=3, trials=3, seed=8))
        b = save_summary(search_counterexample(degree=3, trials=3, seed=8))
        assert a == b
        assert a.endswith("\n")


def _set(field, value, entry=None):
    """A corruption: set ``field`` of the document, or of its entry ``entry``."""

    def corrupt(doc):
        (doc if entry is None else doc["entries"][entry])[field] = value

    return corrupt


def _delete(field, entry=None):
    """A corruption: delete ``field`` of the document, or of its entry ``entry``."""

    def corrupt(doc):
        del (doc if entry is None else doc["entries"][entry])[field]

    return corrupt


def _witness_key(spell):
    """A corruption: write the witness key of entry 0's first line as ``spell(a, b, c)``."""

    def corrupt(doc):
        entry = doc["entries"][0]
        a, b, c = entry["lines"][0]
        entry["witnesses"][spell(a, b, c)] = entry["witnesses"].pop(f"{a},{b},{c}")

    return corrupt


def _first_line_doubled(doc):
    lines = doc["entries"][0]["lines"]
    lines[0] = [2 * v for v in lines[0]]


def _count(key, value):
    def corrupt(doc):
        doc["use_count_max"][key] = value

    return corrupt


class TestMalformedDocuments:
    """A document that breaks its schema raises ParseError, whatever is wrong with it."""

    @pytest.mark.parametrize(
        "load, corrupt",
        [
            pytest.param(load_summary, _set("failures", [1]), id="failure-not-an-object"),
            pytest.param(load_summary, _set("failures", [{}]), id="failure-without-fields"),
            pytest.param(load_summary, _set("failures", 5), id="failures-not-a-list"),
            pytest.param(load_summary, _delete("failures"), id="summary-without-failures"),
            pytest.param(load_summary, _delete("use_count_max"), id="summary-without-use-count-max"),
            pytest.param(load_summary, _count("three", 3), id="use-count-key-not-an-integer"),
            pytest.param(load_summary, _count("3", "3"), id="use-count-value-not-an-integer"),
            # the valid document has key "3", which a padded "03" would overwrite
            pytest.param(load_summary, _count("03", 999), id="use-count-key-padded"),
            pytest.param(load_summary, _count("-0", 3), id="use-count-key-negative-zero"),
            pytest.param(load_certificate, _set("lines", 5, entry=0), id="entry-lines-not-a-list"),
            pytest.param(load_certificate, _delete("lines", entry=0), id="entry-without-lines"),
            pytest.param(load_certificate, _delete("witnesses", entry=0), id="entry-without-witnesses"),
            pytest.param(load_certificate, _set("node", True, entry=0), id="entry-node-boolean"),
            pytest.param(load_certificate, _set("lines", [[0, 0, 1]], entry=0), id="entry-no-line"),
            pytest.param(load_certificate, _first_line_doubled, id="entry-line-not-canonical"),
            pytest.param(
                load_certificate,
                _witness_key(lambda a, b, c: f"{2 * a},{2 * b},{2 * c}"),
                id="witness-key-not-primitive",
            ),
            pytest.param(
                load_certificate,
                _witness_key(lambda a, b, c: f" +{a},{b},{c}"),
                id="witness-key-padded",
            ),
            # three integers, but a = b = 0: "is not a line"
            pytest.param(load_certificate, _witness_key(lambda a, b, c: "0,0,1"), id="witness-key-no-line"),
            pytest.param(load_nodeset, _set("degree", -1), id="nodeset-negative-degree"),
            pytest.param(load_certificate, _set("degree", -1), id="certificate-negative-degree"),
        ],
    )
    def test_parse_error(self, cy2_cert, load, corrupt):
        if load is load_summary:
            doc = json.loads(save_summary(search_counterexample(degree=2, trials=2, seed=1)))
        else:
            doc = json.loads(save_certificate(cy2_cert))
        load(json.dumps(doc))  # the document is valid before it is corrupted
        corrupt(doc)
        with pytest.raises(ParseError):
            load(json.dumps(doc))


    @pytest.mark.parametrize(
        "changes, message",
        [
            pytest.param({"degree": -1}, "nonnegative integer", id="report-negative-degree"),
            pytest.param({"maximal_lines": []}, "maximal line", id="satisfied-without-maximal-line"),
            pytest.param({"satisfied": False}, "maximal line", id="unsatisfied-with-maximal-line"),
            pytest.param(
                {"satisfied": False, "maximal_lines": []}, "present exactly",
                id="unsatisfied-without-counterexample",
            ),
            pytest.param({"counterexample": 2}, "present exactly", id="satisfied-with-counterexample"),
            pytest.param(
                {"maximal_lines": [{"line": [2, 0, -2], "nodes": [0, 1, 2]}]}, "not canonical",
                id="maximal-line-not-canonical",
            ),
            pytest.param(
                {"satisfied": False, "maximal_lines": [], "counterexample": 1}, "counterexample's degree",
                id="counterexample-of-another-degree",
            ),
        ],
    )
    def test_report_parse_error(self, cy2_cert, triangle, changes, message):
        # a "counterexample" change names the degree of the certificate put there
        certificates = {1: certify_gc(triangle), 2: cy2_cert}
        doc = json.loads(save_report(gm_report_from_certificate(cy2_cert)))
        load_report(json.dumps(doc))  # the document is valid before it is corrupted
        for field, value in changes.items():
            if field == "counterexample":
                value = json.loads(save_certificate(certificates[value]))
            doc[field] = value
        with pytest.raises(ParseError, match=message):
            load_report(json.dumps(doc))

    @pytest.mark.parametrize(
        "changes, message",
        [
            pytest.param({"certified": 99}, "0 <= gm_satisfied", id="more-certified-than-trials"),
            pytest.param({"gm_satisfied": -5}, "0 <= gm_satisfied", id="negative-gm-satisfied"),
            pytest.param(
                {"gm_satisfied": 2, "certified": 1}, "0 <= gm_satisfied",
                id="more-satisfied-than-certified",
            ),
            pytest.param({"trials": 3}, "one failure per trial", id="trial-without-failure"),
            pytest.param(
                {"failures": [False]}, "one failure per trial", id="failure-of-a-satisfied-set"
            ),
            pytest.param(
                {"trials": 3, "certified": 3, "failures": [False]}, "carry a certificate",
                id="certified-failure-without-certificate",
            ),
            pytest.param(
                {"trials": 3, "failures": [True]}, "carry a certificate",
                id="uncertified-failure-with-certificate",
            ),
            pytest.param({"degree": -4}, "nonnegative integer", id="summary-negative-degree"),
            pytest.param(
                {"trials": 0, "certified": 0, "gm_satisfied": 0}, "'trials' must be at least 1",
                id="summary-without-trials",
            ),
            pytest.param({"kinds": []}, "nonempty list of strings", id="summary-without-kinds"),
            pytest.param({"kinds": ["nope"]}, "generator kinds from", id="summary-unknown-kind"),
            pytest.param(
                {"kinds": ["principal", "chung_yao", "Principal"]}, "generator kinds from",
                id="summary-one-unknown-kind",
            ),
            pytest.param(
                {"coordinate_bound": 0}, "'coordinate_bound' must be at least 1",
                id="summary-coordinate-bound-zero",
            ),
            pytest.param(
                {"degree": 3, "trials": 3, "certified": 3, "failures": [True]}, "summary's degree",
                id="failure-certificate-of-another-degree",
            ),
        ],
    )
    def test_summary_parse_error(self, cy2_cert, changes, message):
        doc = summary_doc(cy2_cert, {})
        assert [doc[f] for f in ("trials", "certified", "gm_satisfied", "failures")] == [2, 2, 2, []]
        load_summary(json.dumps(doc))  # the document is valid before it is corrupted
        with pytest.raises(ParseError, match=message):
            load_summary(json.dumps(summary_doc(cy2_cert, changes)))

    @pytest.mark.parametrize(
        "changes",
        [
            pytest.param({"trials": 3, "failures": [False]}, id="uncertified-trial"),
            pytest.param({"trials": 3, "certified": 3, "failures": [True]}, id="gm-violated-trial"),
        ],
    )
    def test_summary_with_failures_loads(self, cy2_cert, changes):
        summary = load_summary(json.dumps(summary_doc(cy2_cert, changes)))
        assert [f.certificate for f in summary.failures] == [
            cy2_cert if certified else None for certified in changes["failures"]
        ]


    @pytest.mark.parametrize(
        "changes, trial_ids",
        [
            pytest.param({"trials": 3, "failures": [False]}, [3], id="failure-trial-past-the-end"),
            pytest.param({"trials": 3, "failures": [False]}, [-1], id="negative-failure-trial"),
            pytest.param(
                {"trials": 3, "certified": 1, "gm_satisfied": 1, "failures": [False, False]},
                [0, 0], id="repeated-failure-trial",
            ),
        ],
    )
    def test_summary_failure_trial_parse_error(self, cy2_cert, changes, trial_ids):
        doc = summary_doc(cy2_cert, changes)
        load_summary(json.dumps(doc))  # valid with failure trials 0, 1, ...
        for failure, trial in zip(doc["failures"], trial_ids):
            failure["trial"] = trial
        with pytest.raises(ParseError, match="distinct indices in range"):
            load_summary(json.dumps(doc))


    @pytest.mark.parametrize("kind", ["chung_yao", "principal", "projective_image", "nope"])
    def test_failure_of_another_kind(self, cy2_cert, kind):
        changes = {"trials": 3, "certified": 1, "gm_satisfied": 1, "failures": [False, False]}
        doc = summary_doc(cy2_cert, changes)
        load_summary(json.dumps(doc))  # trials 0 and 1 ran "chung_yao" and "principal"
        doc["failures"][1 if kind == "chung_yao" else 0]["kind"] = kind
        with pytest.raises(ParseError, match=r"kind must be kinds\[trial % len\(kinds\)\]"):
            load_summary(json.dumps(doc))


def summary_doc(cert, changes):
    """A valid 2-trial summary document with ``changes``; a ``failures``
    change lists, per failure, whether it carries ``cert``."""
    doc = json.loads(save_summary(search_counterexample(degree=2, trials=2, seed=1)))
    doc.update(changes)
    doc["failures"] = [
        {"trial": i, "kind": doc["kinds"][i % len(doc["kinds"])], "seed": i,
         "reason": "no maximal line",
         "certificate": json.loads(save_certificate(cert)) if certified else None}
        for i, certified in enumerate(doc["failures"])
    ]
    return doc


class TestLoadersVerifyCertificates:
    """Every certificate a loader returns has passed verify_certificate."""

    @staticmethod
    def wrong_constant(cert):
        doc = json.loads(save_certificate(cert))
        doc["entries"][1]["constant"] = "7/3"
        return doc

    def test_certificate(self, cy2_cert):
        with pytest.raises(InvalidCertificate, match="^node 1: constant: 7/3, not "):
            load_certificate(json.dumps(self.wrong_constant(cy2_cert)))

    def test_report_counterexample(self, cy2_cert):
        doc = {"degree": 2, "satisfied": False, "maximal_lines": [],
               "counterexample": self.wrong_constant(cy2_cert)}
        with pytest.raises(InvalidCertificate, match="^node 1: constant: "):
            load_report(json.dumps(doc))

    def test_summary_failure_certificate(self, cy2_cert):
        doc = summary_doc(cy2_cert, {"trials": 3, "certified": 3, "failures": [True]})
        doc["failures"][0]["certificate"] = self.wrong_constant(cy2_cert)
        with pytest.raises(InvalidCertificate, match="^node 1: constant: "):
            load_summary(json.dumps(doc))

    def test_schema_faults_come_first(self, cy2_cert):
        doc = self.wrong_constant(cy2_cert)
        doc["entries"][0]["lines"] = 5
        with pytest.raises(ParseError):
            load_certificate(json.dumps(doc))


class TestPolyDocuments:
    def test_round_trip(self, triangle):
        from gcnlab import fundamental

        p = fundamental(triangle, 0).poly
        assert poly_from_dict(poly_to_dict(p)) == p

    def test_coefficient_count_checked(self):
        with pytest.raises(ParseError):
            poly_from_dict({"degree": 2, "coefficients": ["1", "2"]})


def _outcome(load, doc):
    """What ``load(doc)`` gives: ``("ok", set)`` or ``("raises", type, message)``."""
    try:
        return ("ok", load(doc))
    except Exception as exc:  # noqa: BLE001 - the type and message are compared
        return ("raises", type(exc), str(exc))


# Exact rationals with small parts, so equal values in different spellings
# ("1/2", "2/4", "-0", "003") and repeated nodes are common
_spellings = st.builds(
    lambda p, q, zeros, form: (
        f"{'-' if p < 0 else ''}{'0' * zeros}{abs(p)}" + ("" if form and q == 1 else f"/{q}")
    ),
    st.integers(-6, 6), st.integers(1, 6), st.integers(0, 2), st.booleans(),
)
_pairs = st.lists(_spellings, min_size=2, max_size=2)
# Well-formed documents, with a label per node or none
_documents = st.lists(_pairs, max_size=7).flatmap(
    lambda rows: st.fixed_dictionaries(
        {"degree": st.integers(0, 3), "nodes": st.just(rows)},
        optional={"labels": st.lists(st.text("ab<&>", max_size=3),
                                     min_size=len(rows), max_size=len(rows))},
    )
)
# Documents with any field wrong, or several
_coordinates = st.one_of(
    _spellings,
    st.sampled_from(["+1", " 1", "1 ", "1.5", "1/-2", "1_0", "", "/2", "1/", "\u0661", "0/0", "-3/00"]),
    st.integers(-2, 2),
    st.none(),
)
_rows = st.one_of(_pairs, st.lists(_coordinates, min_size=2, max_size=2),
                  st.lists(_coordinates, max_size=3), st.just("0"))
_faulty_documents = st.fixed_dictionaries(
    {"degree": st.one_of(st.integers(0, 3), st.sampled_from([-1, True, "2"])),
     "nodes": st.one_of(st.lists(_rows, max_size=7), st.lists(_rows, max_size=7), st.just({}))},
    optional={"labels": st.one_of(st.lists(st.text("ab", max_size=2), max_size=7),
                                  st.lists(st.integers(), max_size=2), st.just("ab"))},
)
_lines = st.lists(
    st.tuples(st.integers(-4, 4), st.integers(-4, 4), st.integers(-8, 8))
    .filter(lambda t: t[:2] != (0, 0)).map(lambda t: Line(*t)),
    max_size=4,
)


class TestIntegerLoader:
    """The integer loader and writer against the Fraction loader and plot of tests/oracles.py."""

    @settings(max_examples=400, deadline=None)
    @given(doc=st.one_of(_documents, _documents, _faulty_documents), maximal=_lines, used=_lines)
    def test_same_set_errors_and_svg(self, doc, maximal, used):
        got = _outcome(nodeset_from_dict, doc)
        want = _outcome(nodeset_from_dict_fraction, doc)
        if want[0] == "raises":
            assert got == want
            return
        xs, points_set = got[1], want[1]
        assert index_of(xs) == index_of(points_set)
        assert xs.labels == points_set.labels
        assert xs == points_set and hash(xs) == hash(points_set)
        assert repr(xs) == repr(points_set)
        assert pickle.dumps(xs) == pickle.dumps(points_set)
        assert nodeset_to_dict(xs) == nodeset_to_dict(points_set)
        assert load_nodeset(save_nodeset(xs)) == xs
        svg = plot_svg(xs, maximal=maximal, used=used)
        assert svg == plot_svg_fraction(points_set, maximal=maximal, used=used)

    @pytest.mark.parametrize(
        "nodes, message",
        [
            ([["1/2", "0"], ["2/4", "0"]], "node Point(1/2, 0) appears twice"),
            ([["-3/6", "-0"], ["1", "1"], ["-1/2", "0/7"]], "node Point(-1/2, 0) appears twice"),
        ],
    )
    def test_duplicate_spellings(self, nodes, message):
        with pytest.raises(DuplicateNode) as info:
            nodeset_from_dict({"degree": 1, "nodes": nodes, "labels": ["a"]})
        assert str(info.value) == message

    def test_loading_and_writing_build_no_fraction(self, monkeypatch):
        import fractions

        def refuse(*args, **kwargs):
            raise AssertionError("a Fraction was built")

        monkeypatch.setattr(fractions.Fraction, "__new__", refuse)
        xs = load_nodeset('{"degree": 1, "nodes": [["2/4", "-1/3"], ["1", "0"], ["0", "007"]]}')
        assert (xs.scale, xs.coords) == (6, ((3, -2), (6, 0), (0, 42)))
        assert nodeset_to_dict(xs)["nodes"] == [["1/2", "-1/3"], ["1", "0"], ["0", "7"]]
        plot_svg(xs, maximal=[Line(1, 1, -1)])
