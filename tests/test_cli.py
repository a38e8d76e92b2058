"""End-to-end CLI behavior: output documents and exit codes."""

import argparse
import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from gcnlab import (
    DEFAULT_KINDS,
    GeneratorSpec,
    certify_gc,
    generate,
    greedy_mdseq,
    maximal_lines,
    plot_svg,
    used_lines_of,
)
from gcnlab import certification
from gcnlab import cli
from gcnlab.cli import build_parser, main
from gcnlab.serialization import load_nodeset, save_nodeset

from conftest import index_of


@pytest.fixture()
def cy3_file(tmp_path):
    path = tmp_path / "cy3.json"
    path.write_text(save_nodeset(generate(GeneratorSpec("chung_yao", 3, seed=11))))
    return str(path)


@pytest.fixture()
def collinear_file(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"degree": 1, "nodes": [["0","0"], ["1","1"], ["2","2"]]}\n')
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


class TestCheckPoised:
    def test_poised_exits_zero(self, capsys, cy3_file):
        code, out = run(capsys, "check-poised", cy3_file)
        assert code == 0
        assert json.loads(out)["poised"] is True

    def test_not_poised_exits_one(self, capsys, collinear_file):
        code, out = run(capsys, "check-poised", collinear_file)
        assert code == 1
        assert json.loads(out)["poised"] is False


class TestFundamental:
    def test_outputs_polynomial(self, capsys, cy3_file):
        code, out = run(capsys, "fundamental", cy3_file, "--node", "0")
        assert code == 0
        doc = json.loads(out)
        assert doc["degree"] == 3 and len(doc["coefficients"]) == 10
        assert isinstance(doc["text"], str)

    def test_bad_index_is_usage_error(self, capsys, cy3_file):
        code, _ = run(capsys, "fundamental", cy3_file, "--node", "99")
        assert code == 2


class TestCertifyAndLines:
    def test_certificate_document(self, capsys, cy3_file):
        code, out = run(capsys, "certify-gc", cy3_file)
        assert code == 0
        doc = json.loads(out)
        assert len(doc["entries"]) == 10
        assert all(len(e["lines"]) == 3 for e in doc["entries"])

    def test_certify_and_save_runs_the_rule_once(self, capsys, cy3_file, tmp_path, monkeypatch):
        calls = []
        rule = certification.verify_certificate

        def spy(table):
            calls.append(table)
            rule(table)

        monkeypatch.setattr(certification, "verify_certificate", spy)
        out = tmp_path / "cert.json"
        assert run(capsys, "certify-gc", cy3_file, "--out", str(out)) == (0, "")
        assert len(calls) == 1 and len(json.loads(out.read_text())["entries"]) == 10

    def test_non_gc_exits_one(self, capsys, tmp_path):
        path = tmp_path / "perturbed.json"
        path.write_text(
            '{"degree": 2, "nodes": [["0","0"],["0","1"],["0","4"],["1","0"],'
            '["2","0"],["22/7","-21/11"]]}\n'
        )
        code, _ = run(capsys, "certify-gc", str(path))
        assert code == 1

    def test_used_lines(self, capsys, cy3_file):
        code, out = run(capsys, "used-lines", cy3_file, "--node", "2")
        assert code == 0
        assert len(json.loads(out)["lines"]) == 3


class TestCheckCert:
    @pytest.fixture()
    def cert_doc(self, capsys, cy3_file):
        code, out = run(capsys, "certify-gc", cy3_file)
        assert code == 0
        return json.loads(out)

    def check(self, capsys, tmp_path, text):
        path = tmp_path / "c.json"
        path.write_text(text)
        code = main(["check-cert", str(path)])
        out, err = capsys.readouterr()
        return code, out, err

    def test_valid_certificate_exits_zero(self, capsys, tmp_path, cert_doc):
        code, out, err = self.check(capsys, tmp_path, json.dumps(cert_doc))
        assert (code, err) == (0, "")
        assert json.loads(out) == {"degree": 3, "node_count": 10, "valid": True}

    def test_invalid_certificate_exits_one_with_the_reason(self, capsys, tmp_path, cert_doc):
        cert_doc["entries"][4]["constant"] = "7/3"
        code, out, err = self.check(capsys, tmp_path, json.dumps(cert_doc))
        assert (code, out) == (1, "")
        assert err.startswith("gcnlab: invalid certificate: node 4: constant: 7/3, not ")

    @pytest.mark.parametrize(
        "text",
        [
            pytest.param('{"degree": 3', id="malformed-json"),
            pytest.param('{"degree": 3, "nodes": [], "entries": 5}', id="schema"),
        ],
    )
    def test_parse_error_exits_two(self, capsys, tmp_path, text):
        code, out, err = self.check(capsys, tmp_path, text)
        assert (code, out) == (2, "")
        assert err.startswith("gcnlab: ") and "invalid certificate" not in err

    def test_missing_file_exits_two(self, capsys, tmp_path):
        assert main(["check-cert", str(tmp_path / "absent.json")]) == 2

    @pytest.mark.parametrize("field, kind", [("lines", "a list"), ("witnesses", "an object")])
    def test_missing_entry_field_exits_two(self, capsys, tmp_path, cert_doc, field, kind):
        del cert_doc["entries"][0][field]
        code, out, err = self.check(capsys, tmp_path, json.dumps(cert_doc))
        assert (code, out, err) == (2, "", f"gcnlab: entry field {field!r} must be {kind}\n")

    def test_non_canonical_witness_key_exits_two(self, capsys, tmp_path, cert_doc):
        # the key names the right line, but saving it would write other bytes
        witnesses = cert_doc["entries"][0]["witnesses"]
        key = next(iter(witnesses))
        witnesses[" +" + key] = witnesses.pop(key)
        code, out, err = self.check(capsys, tmp_path, json.dumps(cert_doc))
        assert (code, out) == (2, "")
        assert err.startswith("gcnlab: witness key ") and "is not canonical" in err


class TestMdseq:
    def test_greedy_counts(self, capsys, cy3_file):
        code, out = run(capsys, "mdseq", cy3_file, "--node", "0")
        assert code == 0
        doc = json.loads(out)
        assert doc["counts"] == [4, 3, 2]
        assert len(doc["primary"]) == 9

    def test_enumerate_all(self, capsys, cy3_file):
        code, out = run(capsys, "mdseq", cy3_file, "--node", "0", "--all")
        assert code == 0
        assert json.loads(out)["distributions"] == [[4, 3, 2]]

    def test_enumerate_all_degree_ten(self, capsys, tmp_path):
        # every one of the 10! orderings of a natural lattice is greedy
        path = tmp_path / "cy10.json"
        path.write_text(save_nodeset(generate(GeneratorSpec("chung_yao", 10, seed=1))))
        code, out = run(capsys, "mdseq", str(path), "--node", "0", "--all")
        assert code == 0
        assert json.loads(out)["distributions"] == [list(range(11, 1, -1))]

    def test_fix_line(self, capsys, cy3_file):
        greedy = json.loads(run(capsys, "mdseq", cy3_file, "--node", "0")[1])
        first = ",".join(str(v) for v in greedy["lines"][1])
        code, out = run(capsys, "mdseq", cy3_file, "--node", "0", "--fix-line", first)
        assert code == 0
        doc = json.loads(out)
        assert doc["lines"][0] == greedy["lines"][1]

    def test_fix_line_not_used(self, capsys, cy3_file):
        code, _ = run(capsys, "mdseq", cy3_file, "--node", "0", "--fix-line", "97,89,1")
        assert code == 1


class TestAnalysisCommands:
    def test_maximal_lines(self, capsys, cy3_file):
        code, out = run(capsys, "maximal-lines", cy3_file)
        assert code == 0
        doc = json.loads(out)
        assert len(doc["maximal_lines"]) == 5
        assert all(len(e["nodes"]) == 4 for e in doc["maximal_lines"])

    @pytest.mark.parametrize("nodes", ['[["1/2","3"]]', "[]"])
    def test_maximal_lines_fewer_than_two_nodes(self, capsys, tmp_path, nodes):
        path = tmp_path / "small.json"
        path.write_text('{"degree": 0, "nodes": %s}\n' % nodes)
        code, out = run(capsys, "maximal-lines", str(path))
        assert code == 0
        assert out == '{\n  "degree": 0,\n  "maximal_lines": []\n}\n'

    def test_maximal_lines_too_many_collinear(self, capsys, tmp_path):
        # four nodes on y = 0 in a degree-2 set: at most three may be collinear
        path = tmp_path / "overloaded.json"
        path.write_text(
            '{"degree": 2, "nodes": [["0","0"],["1","0"],["2","0"],["3","0"],'
            '["0","1"],["1","2"]]}\n'
        )
        code = main(["maximal-lines", str(path)])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err == (
            "gcnlab: Line(0, 1, 0) passes through 4 nodes; at most 3 of a poised "
            "degree-2 set can be collinear\n"
        )

    def test_verify_gm(self, capsys, cy3_file):
        code, out = run(capsys, "verify-gm", cy3_file)
        assert code == 0
        assert json.loads(out)["satisfied"] is True

    def test_incidence_profile(self, capsys, cy3_file):
        code, out = run(capsys, "incidence-profile", cy3_file, "--node", "0")
        assert code == 0
        doc = json.loads(out)
        assert sum(int(k) * v for k, v in doc["counts"].items()) == 9

    def test_incidence_profile_with_target(self, capsys, cy3_file):
        code, out = run(capsys, "incidence-profile", cy3_file, "--node", "0", "--target", "1,2,3")
        assert code == 0
        assert json.loads(out)["target_size"] == 3

    def test_incidence_profile_repeated_target(self, capsys, cy3_file):
        code = main(["incidence-profile", cy3_file, "--node", "0", "--target", "1,1,2"])
        assert code == 2
        assert capsys.readouterr().err == "gcnlab: target (1, 1, 2) repeats a node index\n"

    def test_cayley_bacharach(self, capsys):
        code, out = run(capsys, "cayley-bacharach", "--m", "3", "--n", "3", "--seed", "4")
        assert code == 0
        doc = json.loads(out)
        assert doc["dependent"] is True and doc["dependence_degree"] == 3

    def test_cayley_bacharach_rejects_bound_below_one(self, capsys):
        # every draw at bound 0 is (0, 0, 0), which is no line
        code = main(["cayley-bacharach", "--m", "2", "--n", "2", "--bound", "0"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == "gcnlab: need --bound >= 1\n"

    def test_cayley_bacharach_too_few_distinct_lines(self, capsys):
        # only 12 distinct lines have coefficients in {-1, 0, 1}
        code = main(["cayley-bacharach", "--m", "7", "--n", "7", "--bound", "1"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err == (
            "gcnlab: no 14 distinct lines within 512 rejected draws at coordinate bound 1\n"
        )


class TestGenerateAndSearch:
    def test_generate_writes_nodeset(self, capsys, tmp_path):
        out_path = tmp_path / "set.json"
        code, _ = run(
            capsys, "generate", "--kind", "principal", "--degree", "4",
            "--seed", "0", "--out", str(out_path),
        )
        assert code == 0
        doc = json.loads(out_path.read_text())
        assert doc["degree"] == 4 and len(doc["nodes"]) == 15

    def test_generate_deterministic_bytes(self, capsys):
        _, first = run(capsys, "generate", "--kind", "chung_yao", "--degree", "2", "--seed", "9")
        _, second = run(capsys, "generate", "--kind", "chung_yao", "--degree", "2", "--seed", "9")
        assert first == second

    def test_search_summary(self, capsys):
        code, out = run(capsys, "search", "--degree", "2", "--trials", "6", "--seed", "3")
        assert code == 0
        doc = json.loads(out)
        assert doc["certified"] == 6 and doc["gm_satisfied"] == 6

    @pytest.mark.parametrize("trials", ["0", "-3"])
    def test_search_nonpositive_trials_is_usage_error(self, capsys, trials):
        code, out = run(capsys, "search", "--degree", "2", "--trials", trials)
        assert code == 2
        assert out == ""

    def test_search_records_retry_exhaustion_and_goes_on(self, capsys):
        # at bound 1 there are only four line directions, so no 7 lines are
        # in general position: the chung_yao draws exhaust their retries
        code, out = run(capsys, "search", "--degree", "5", "--trials", "3", "--bound", "1")
        assert code == 1
        doc = json.loads(out)
        assert doc["trials"] == 3
        assert doc["certified"] == doc["gm_satisfied"] == 3 - len(doc["failures"])
        first = doc["failures"][0]
        assert first["trial"] == 0 and first["kind"] == "chung_yao"
        assert first["certificate"] is None
        assert first["reason"].startswith("no general-position configuration of 7 lines")


class TestPlot:
    def test_plot_with_overlays(self, capsys, cy3_file, tmp_path):
        out_path = tmp_path / "fig.svg"
        code, _ = run(
            capsys, "plot", cy3_file, "--overlay", "maximal", "--overlay", "primary:0",
            "--out", str(out_path),
        )
        assert code == 0
        assert out_path.read_text().startswith("<svg")

    def test_used_and_primary_overlays_certify_once(self, capsys, cy3_file, monkeypatch):
        calls = []

        def counting_certify(xs):
            calls.append(xs)
            return certify_gc(xs)

        monkeypatch.setattr(certification, "certify_gc", counting_certify)
        code, out = run(
            capsys, "plot", cy3_file, "--overlay", "used:1", "--overlay", "primary:2",
        )
        assert code == 0
        assert len(calls) == 1
        cert = certify_gc(calls[0])
        assert out == plot_svg(
            calls[0], used=used_lines_of(cert, 1), sequence=greedy_mdseq(cert, 2)
        )

    def test_maximal_and_primary_overlays_index_once(self, capsys, cy3_file, built_indexes):
        # the loaded set's index, built with it, serves every overlay
        code, out = run(capsys, "plot", cy3_file, "--overlay", "maximal", "--overlay", "primary:0")
        assert code == 0
        assert len(built_indexes) == 1
        xs = load_nodeset(Path(cy3_file).read_text())
        assert index_of(xs) == index_of(built_indexes[0])
        cert = certify_gc(xs)
        assert out == plot_svg(xs, maximal=maximal_lines(xs), sequence=greedy_mdseq(cert, 0))

    def test_repeated_maximal_overlay_draws_it_once(self, capsys, cy3_file):
        code, twice = run(capsys, "plot", cy3_file, "--overlay", "maximal", "--overlay", "maximal")
        assert code == 0
        assert twice == run(capsys, "plot", cy3_file, "--overlay", "maximal")[1]

    def test_labels_with_markup_give_well_formed_svg(self, capsys, tmp_path):
        from xml.dom import minidom

        labels = ["a<b", "R&D", "</svg><script>x</script>"]
        path = tmp_path / "labelled.json"
        path.write_text(json.dumps(
            {"degree": 1, "nodes": [["0", "0"], ["1", "0"], ["0", "1"]], "labels": labels}
        ))
        code, out = run(capsys, "plot", str(path))
        assert code == 0
        doc = minidom.parseString(out)
        assert [t.firstChild.data for t in doc.getElementsByTagName("text")] == labels
        assert doc.getElementsByTagName("script") == []

    @pytest.mark.parametrize("label, out", [("a\u0007", None), ("\ud800", None), ("a\u0007", "p.svg")])
    def test_label_xml_forbids_exits_two(self, capsys, tmp_path, label, out):
        path = tmp_path / "labelled.json"
        path.write_text(json.dumps(
            {"degree": 1, "nodes": [["0", "0"], ["1", "0"], ["0", "1"]], "labels": ["A", label, "C"]}
        ))
        argv = ["plot", str(path)] + (["--out", str(tmp_path / out)] if out else [])
        code = main(argv)
        stdout, err = capsys.readouterr()
        assert (code, stdout) == (2, "")
        assert err == f"gcnlab: label of node 1 holds U+{ord(label[-1]):04X}, which XML 1.0 does not allow\n"
        assert not (tmp_path / "p.svg").exists()

    def test_unknown_overlay(self, capsys, cy3_file, tmp_path):
        code, _ = run(capsys, "plot", cy3_file, "--overlay", "sparkles",
                      "--out", str(tmp_path / "x.svg"))
        assert code == 2


class TestUsageBeforeCertification:
    """A bad node index or --fix-line is a usage error even on a set that is not GC."""

    @pytest.mark.parametrize(
        "argv, message",
        [
            pytest.param(["mdseq", "--node", "99"], "node index 99 out of range", id="mdseq"),
            pytest.param(
                ["used-lines", "--node", "99"], "node index 99 out of range", id="used-lines"
            ),
            pytest.param(["plot", "--overlay", "used:99"], "node index 99 out of range", id="plot"),
            pytest.param(
                ["plot", "--overlay", "used:0", "--overlay", "primary:99"],
                "node index 99 out of range",
                id="plot-later-overlay",
            ),
            pytest.param(
                ["mdseq", "--node", "0", "--fix-line", "1,2"],
                "--fix-line expects 'a,b,c'",
                id="mdseq-fix-line",
            ),
            pytest.param(
                ["mdseq", "--node", "0", "--all", "--fix-line", "1,2"],
                "--fix-line cannot be combined with --all",
                id="mdseq-all-fix-line",
            ),
            pytest.param(
                ["plot", "--overlay", "used:x"],
                "overlay 'used:x': used:K needs a node index K",
                id="plot-used-not-an-index",
            ),
            pytest.param(
                ["plot", "--overlay", "maximal", "--overlay", "primary:"],
                "overlay 'primary:': primary:K needs a node index K",
                id="plot-primary-not-an-index",
            ),
            pytest.param(
                ["plot", "--overlay", "used:0", "--overlay", "used:1"],
                "plot draws at most one used:K overlay",
                id="plot-repeated-used",
            ),
            pytest.param(
                ["plot", "--overlay", "primary:0", "--overlay", "maximal",
                 "--overlay", "primary:2"],
                "plot draws at most one primary:K overlay",
                id="plot-repeated-primary",
            ),
        ],
    )
    def test_exits_two_without_certifying(self, capsys, tmp_path, monkeypatch, argv, message):
        path = tmp_path / "moved.json"
        path.write_text(
            '{"degree": 2, "nodes": [["0","0"],["0","1"],["0","4"],["1","0"],'
            '["2","0"],["22/7","-21/11"]]}\n'
        )

        def no_certify(xs):
            raise AssertionError("certified before checking the arguments")

        monkeypatch.setattr(certification, "certify_gc", no_certify)
        code = main([argv[0], str(path), *argv[1:]])
        assert code == 2
        assert message in capsys.readouterr().err


class TestErrorPaths:
    def test_missing_file(self, capsys):
        code, _ = run(capsys, "check-poised", "/nonexistent/file.json")
        assert code == 2

    def test_malformed_document(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        code, _ = run(capsys, "check-poised", str(path))
        assert code == 2

    def test_negative_degree(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"degree": -1, "nodes": []}')
        code = main(["check-poised", str(path)])
        assert code == 2
        assert "field 'degree' must be a nonnegative integer" in capsys.readouterr().err

    def test_bad_rational(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"degree": 1, "nodes": [["0.5", "1"], ["0", "0"], ["1", "1"]]}')
        code, _ = run(capsys, "check-poised", str(path))
        assert code == 2

    def test_oversized_coordinate(self, capsys, tmp_path, too_many_digits):
        path = tmp_path / "big.json"
        path.write_text(json.dumps({"degree": 0, "nodes": [[too_many_digits, "0"]]}))
        code = main(["check-poised", str(path)])
        out, err = capsys.readouterr()
        assert (code, out) == (2, "")
        assert err.startswith("gcnlab: ") and err.count("\n") == 1
        assert "set_int_max_str_digits" not in err

    def test_oversized_fix_line_coefficient(self, capsys, cy3_file, too_many_digits):
        code = main(["mdseq", cy3_file, "--node", "0", "--fix-line", f"1,{too_many_digits},2"])
        out, err = capsys.readouterr()
        digits = len(too_many_digits)
        assert (code, out) == (2, "")
        assert err == (
            f"gcnlab: --fix-line coefficient with a {digits}-digit integer exceeds the "
            f"{digits - 1}-digit limit\n"
        )

    @pytest.mark.parametrize(
        "argv",
        [
            pytest.param(["fundamental", "--node", "0"], id="fundamental"),
            pytest.param(["used-lines", "--node", "0"], id="used-lines"),
            pytest.param(["mdseq", "--node", "0"], id="mdseq"),
            pytest.param(["incidence-profile", "--node", "0"], id="incidence-profile"),
            pytest.param(["plot", "--overlay", "used:0"], id="plot"),
        ],
    )
    def test_node_of_an_empty_set(self, capsys, tmp_path, argv):
        path = tmp_path / "empty.json"
        path.write_text('{"degree": 0, "nodes": []}')
        code = main([argv[0], str(path), *argv[1:]])
        out, err = capsys.readouterr()
        assert (code, out) == (2, "")
        assert err == "gcnlab: node index 0: the set has no nodes\n"

    @pytest.mark.parametrize("command", ["check-poised", "plot", "maximal-lines"])
    def test_non_utf8_file_names_the_file(self, capsys, tmp_path, command):
        path = tmp_path / "latin1.json"
        path.write_bytes(b"\xff{}")
        code = main([command, str(path)])
        out, err = capsys.readouterr()
        assert (code, out) == (2, "")
        assert err == (
            f"gcnlab: cannot read {path}: 'utf-8' codec can't decode byte 0xff in position 0: "
            "invalid start byte\n"
        )

    def test_unwritable_out_through_emit_doc(self, capsys, cy3_file):
        code = main(["maximal-lines", cy3_file, "--out", "/nonexistent/x.json"])
        out, err = capsys.readouterr()
        assert (code, out) == (2, "")
        assert err.startswith("gcnlab: cannot write /nonexistent/x.json: ")

    def test_out_to_a_directory_through_emit(self, capsys, cy3_file, tmp_path):
        code = main(["certify-gc", cy3_file, "--out", str(tmp_path)])
        out, err = capsys.readouterr()
        assert (code, out) == (2, "")
        assert err.startswith(f"gcnlab: cannot write {tmp_path}: ")

    def test_usage_error_exit_code(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["mdseq"])  # missing required file and --node
        assert excinfo.value.code == 2


def _subparsers(parser):
    return next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))


# Help texts and usage errors (argparse wraps them to COLUMNS).  The help
# texts and the bad --kind were pinned from the CLI as it was before its
# imports moved into the handlers, the top-level help and check-cert's when
# check-cert was added, and the other usage errors (no command, an unknown
# command, an unrecognized argument, a missing or bad --node, an option
# before the command) while the CLI still built the whole parser tree for
# every command.
PINNED = json.loads((Path(__file__).parent / "cli_help.json").read_text(encoding="utf-8"))


class TestPinnedOutput:
    @pytest.mark.skipif(
        "%d.%d" % sys.version_info[:2] != PINNED["python"],
        reason=f"argparse layout pinned on Python {PINNED['python']}",
    )
    @pytest.mark.parametrize("pinned", PINNED["runs"], ids=lambda r: " ".join(r["argv"]))
    def test_same_bytes(self, capsys, monkeypatch, pinned):
        monkeypatch.setenv("COLUMNS", str(PINNED["columns"]))
        with pytest.raises(SystemExit) as excinfo:
            main(pinned["argv"])
        captured = capsys.readouterr()
        assert excinfo.value.code == pinned["code"]
        assert captured.out == pinned["stdout"]
        assert captured.err == pinned["stderr"]

    def test_kind_choices_are_the_generator_kinds(self):
        generate = _subparsers(build_parser()).choices["generate"]
        (kind,) = (a for a in generate._actions if a.dest == "kind")
        assert tuple(kind.choices) == DEFAULT_KINDS
        assert all(k in kind.choices for k in DEFAULT_KINDS)
        assert "berzolari" not in kind.choices


class TestDegreeCap:
    """Only ``Poly`` is capped at MAX_DEGREE (12); the combinatorial paths are not."""

    @pytest.fixture(scope="class")
    def cy14_file(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("cap") / "cy14.json"
        path.write_text(save_nodeset(generate(GeneratorSpec("chung_yao", 14, seed=1))))
        return str(path)

    def test_generate_accepts_degree_14(self, capsys):
        code, out = run(capsys, "generate", "--kind", "chung_yao", "--degree", "14", "--seed", "1")
        assert code == 0
        doc = json.loads(out)
        assert doc["degree"] == 14 and len(doc["nodes"]) == 120

    @pytest.mark.parametrize(
        "argv",
        [("check-poised",), ("certify-gc",), ("verify-gm",), ("mdseq", "--node", "0")],
        ids=lambda argv: argv[0],
    )
    def test_command_accepts_degree_14(self, capsys, cy14_file, argv):
        code, out = run(capsys, argv[0], cy14_file, *argv[1:])
        assert code == 0
        doc = json.loads(out)
        if argv[0] == "mdseq":
            assert doc["counts"] == list(range(15, 1, -1))
        else:
            assert doc.get("degree", 14) == 14

    def test_search_accepts_degree_14(self, capsys):
        code, out = run(capsys, "search", "--degree", "14", "--trials", "1", "--seed", "5")
        assert code == 0
        doc = json.loads(out)
        assert doc["certified"] == doc["gm_satisfied"] == 1

    def test_fundamental_rejects_degree_14(self, capsys, cy14_file):
        code = main(["fundamental", cy14_file, "--node", "0"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == "gcnlab: degree bound 14 outside [0, 12]\n"


class TestOneParserPerCommand:
    """``main`` builds no parser for a plain command line, and argparse's whole tree for the rest.

    The tree, ``gcnlab`` and one subparser per command, is the only
    argparse route: it writes all help and every usage error.
    """

    @pytest.fixture()
    def built(self, monkeypatch):
        progs = []
        init = argparse.ArgumentParser.__init__

        def counting(parser, *args, **kwargs):
            init(parser, *args, **kwargs)
            progs.append(parser.prog)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
        return progs

    def test_a_well_formed_command_builds_no_parser(self, capsys, cy3_file, built):
        code, out = run(capsys, "plot", cy3_file, "--overlay", "maximal")
        assert code == 0 and out.startswith("<svg")
        assert built == []

    def test_help_builds_the_whole_tree(self, capsys, built):
        with pytest.raises(SystemExit) as excinfo:
            main(["--help"])
        assert excinfo.value.code == 0
        assert len(built) == 14 == 1 + len(_subparsers(build_parser()).choices)

    def test_left_over_arguments_build_only_the_tree(self, capsys, cy3_file, built):
        with pytest.raises(SystemExit) as excinfo:
            main(["plot", cy3_file, "--bogus"])
        assert excinfo.value.code == 2
        assert built[0] == "gcnlab" and len(built) == 14
        assert capsys.readouterr().err.endswith("\ngcnlab: error: unrecognized arguments: --bogus\n")

    @pytest.mark.parametrize("name", list(cli._COMMANDS))
    def test_command_help_is_the_tree_help(self, capsys, name):
        # on the running Python; the pinned bytes above hold on 3.11 only
        with pytest.raises(SystemExit):
            main([name, "--help"])
        alone = capsys.readouterr()
        assert alone.out == _subparsers(build_parser()).choices[name].format_help()
        with pytest.raises(SystemExit):
            build_parser().parse_args([name, "--help"])
        assert capsys.readouterr() == alone

    @pytest.mark.parametrize(
        "argv",
        [
            ["plot", "f.json", "--overlay", "maximal", "--overlay", "used:3", "--out=x.svg"],
            ["plot", "--ov", "maximal", "--", "f.json"],
            ["mdseq", "--all", "f.json", "--node=4", "--fix-line", "1,0,0"],
            ["mdseq", "f.json", "--node", "-2"],
            ["incidence-profile", "f.json", "--node", "0", "--target", "1,2"],
            ["cayley-bacharach", "--m", "2", "--n", "3", "--seed", "9"],
            ["generate", "--kind", "principal", "--degree", "3", "--bo", "5"],
            ["search", "--degree", "2", "--trials", "4"],
            ["certify-gc", "f.json", "g.json"],
            ["certify-gc", "f.json", "-x"],
            ["mdseq", "f.json", "--node", "1", "--fix-line"],
            ["fundamental", "--node", "1"],
            ["used-lines", "f.json", "--no", "1"],
            ["check-cert", "-h", "f.json"],
            ["generate", "--kind", "nope", "--degree", "3"],
            ["plot", "--help", "--bogus"],
            ["mdseq", "f.json", "--all"],
            ["-h", "plot"],
            ["plot"],
            ["certify-gc", "f.json", "--out", "certificate.json"],
            ["verify-gm", "f.json"],
            ["mdseq", "f.json", "--node", "0", "--all"],
            ["plot", "f.json", "--overlay", "maximal"],
        ],
        ids=lambda argv: " ".join(argv),
    )
    def test_same_namespace_and_errors_as_the_tree(self, capsys, argv):
        def parse(how):
            try:
                result = vars(how(argv))
            except SystemExit as exc:
                result = exc.code
            return result, capsys.readouterr()

        assert parse(cli._parse) == parse(build_parser().parse_args)


def _option_names(parser):
    """A parser's option names, help left out."""
    return sorted(set(parser._option_string_actions) - {"-h", "--help"})


_TREE = _subparsers(build_parser()).choices
_OPTIONS = sorted({name for parser in _TREE.values() for name in _option_names(parser)})
_VALUES = ["f.json", "g.json", "", "0", "+4", " 5", "1.5", "x", "-2", "-1", "-", "--",
           "maximal", "used:1", "principal", "nope", "1,0,0"]
_MALFORMED = ["--ov", "--o", "--no", "--al", "--out=x.svg", "--node=-2", "--node=1",
              "--all=x", "--kind=principal", "--bogus", "-x", "-h", "--help"]
_TOKENS = sorted(_TREE) + _OPTIONS + _VALUES + _MALFORMED


def _plain_chunks(parser):
    """A command's arguments in plain form, read off argparse: the required ones and the others."""
    required, optional = [], []
    for action in parser._actions:
        if not action.option_strings:
            required.append(["f.json"])
        elif action.dest != "help":
            chunk = action.option_strings[:1]
            if action.nargs != 0:
                chunk.append("3" if action.type is int else "principal" if action.choices else "v")
            (required if action.required else optional).append(chunk)
    return required, optional


@st.composite
def _argv(draw):
    """A command's plain argv, respelled in part, then a few tokens inserted or dropped.

    The plain argv holds each required argument (but one in ten) and up to
    three optional ones, repeats included, in any order.
    """
    name = draw(st.sampled_from(sorted(_TREE) + ["nope", "-h", ""]))
    required, optional = _plain_chunks(_TREE[name]) if name in _TREE else ([], [])
    chunks = [chunk for chunk in required if draw(st.integers(0, 9))]  # one in ten left out
    if optional:
        chunks += draw(st.lists(st.sampled_from(optional), max_size=3))
    argv = [name]
    for flag, *value in draw(st.permutations(chunks)):
        if value:
            value = [draw(st.sampled_from(value * len(_VALUES) + _VALUES))]
        spelling = draw(st.sampled_from(["plain"] * 8 + ["abbreviated", "joined"]))
        if spelling == "abbreviated" and flag.startswith("--"):
            flag = flag[:4]
        if spelling == "joined" and value:
            argv.append(f"{flag}={value[0]}")
        else:
            argv += [flag, *value]
    inserts = st.tuples(st.integers(0, 20), st.sampled_from(_TOKENS))
    for at, token in draw(st.lists(inserts, max_size=2)):
        argv.insert(1 + at % len(argv), token)
    if draw(st.booleans()) and len(argv) > 1:
        del argv[draw(st.integers(1, len(argv) - 1))]
    return argv


class TestPlainParse:
    """The plain parse of ``main`` against argparse's tree, on argv drawn from a token alphabet."""

    @settings(max_examples=500, deadline=None)
    @given(_argv())
    def test_declines_or_agrees_with_the_tree(self, argv):
        plain = cli._plain_parse(argv)
        try:
            with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
                expected = vars(build_parser().parse_args(argv))
        except SystemExit:
            assert plain is None  # help and every usage error come from argparse
            return
        event("declined" if plain is None else "accepted")
        if plain is not None:
            assert vars(plain) == expected
        # argparse alone reads abbreviations, --opt=value, --, - and negative numbers
        command = _TREE.get(argv[0])
        names = [] if command is None else _option_names(command)
        if any(token.startswith("-") and token not in names for token in argv[1:]):
            assert plain is None

    def test_accepts_every_command_in_plain_form(self):
        argv = {
            "check-poised": ["f.json"],
            "fundamental": ["f.json", "--node", "3"],
            "certify-gc": ["f.json", "--out", "c.json"],
            "check-cert": ["c.json"],
            "used-lines": ["--node", "0", "f.json"],
            "mdseq": ["f.json", "--all", "--node", "0", "--fix-line", "1,0,0"],
            "maximal-lines": ["f.json"],
            "verify-gm": ["f.json"],
            "incidence-profile": ["f.json", "--node", "0", "--target", "1,2"],
            "cayley-bacharach": ["--m", "2", "--n", "3"],
            "generate": ["--kind", "principal", "--degree", "3", "--seed", "+4"],
            "search": ["--degree", "2", "--trials", "4", "--bound", "5"],
            "plot": ["f.json", "--overlay", "maximal", "--overlay", "used:1"],
        }
        assert sorted(argv) == sorted(_TREE)
        for name, rest in argv.items():
            plain = cli._plain_parse([name, *rest])
            assert plain is not None, name
            assert vars(plain) == vars(build_parser().parse_args([name, *rest]))


class TestClosedStdout:
    @pytest.mark.parametrize(
        "argv",
        [
            pytest.param(["check-poised", "FILE"], id="check-poised"),
            pytest.param(["certify-gc", "FILE"], id="certify-gc"),
            pytest.param(["--help"], id="--help"),
            pytest.param(["mdseq", "--help"], id="mdseq --help"),
        ],
    )
    def test_exits_two_with_one_line(self, cy3_file, argv):
        # stdout to a pipe is block-buffered unless PYTHONUNBUFFERED is set,
        # so the failure comes from a flush, and the exit flush must not fail again;
        # argparse itself would drop the failure of a help message
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        env["PYTHONPATH"] = str(Path(cli.__file__).resolve().parents[1])
        argv = [cy3_file if arg == "FILE" else arg for arg in argv]
        proc = subprocess.Popen(
            [sys.executable, "-m", "gcnlab.cli", *argv],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=env,
        )
        proc.stdout.close()  # long before the command writes
        err = proc.stderr.read().decode()
        proc.stderr.close()
        assert (proc.wait(), err) == (2, "gcnlab: cannot write stdout: [Errno 32] Broken pipe\n")
