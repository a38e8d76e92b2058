"""End-to-end CLI behavior: output documents and exit codes."""

import json

import pytest

from gcnlab import (
    GeneratorSpec,
    certify_gc,
    generate,
    greedy_mdseq,
    maximal_lines,
    plot_svg,
    used_lines_of,
)
from gcnlab import cli
from gcnlab.cli import main
from gcnlab.serialization import save_nodeset


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

    def test_cayley_bacharach(self, capsys):
        code, out = run(capsys, "cayley-bacharach", "--m", "3", "--n", "3", "--seed", "4")
        assert code == 0
        doc = json.loads(out)
        assert doc["dependent"] is True and doc["dependence_degree"] == 3


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

        monkeypatch.setattr(cli, "certify_gc", counting_certify)
        code, out = run(
            capsys, "plot", cy3_file, "--overlay", "used:1", "--overlay", "primary:2",
        )
        assert code == 0
        assert len(calls) == 1
        cert = certify_gc(calls[0])
        assert out == plot_svg(
            calls[0], used=used_lines_of(cert, 1), sequence=greedy_mdseq(cert, 2)
        )

    def test_maximal_and_primary_overlays_index_once(self, capsys, cy3_file, monkeypatch):
        from gcnlab.certification import Incidence

        calls = []
        build = Incidence.of.__func__

        def counting_of(klass, xs):
            calls.append(xs)
            return build(klass, xs)

        monkeypatch.setattr(Incidence, "of", classmethod(counting_of))
        code, out = run(capsys, "plot", cy3_file, "--overlay", "maximal", "--overlay", "primary:0")
        assert code == 0
        assert len(calls) == 1
        monkeypatch.undo()
        cert = certify_gc(calls[0])
        assert out == plot_svg(
            calls[0], maximal=maximal_lines(calls[0]), sequence=greedy_mdseq(cert, 0)
        )

    def test_unknown_overlay(self, capsys, cy3_file, tmp_path):
        code, _ = run(capsys, "plot", cy3_file, "--overlay", "sparkles",
                      "--out", str(tmp_path / "x.svg"))
        assert code == 2


class TestErrorPaths:
    def test_missing_file(self, capsys):
        code, _ = run(capsys, "check-poised", "/nonexistent/file.json")
        assert code == 2

    def test_malformed_document(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        code, _ = run(capsys, "check-poised", str(path))
        assert code == 2

    def test_bad_rational(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"degree": 1, "nodes": [["0.5", "1"], ["0", "0"], ["1", "1"]]}')
        code, _ = run(capsys, "check-poised", str(path))
        assert code == 2

    def test_usage_error_exit_code(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["mdseq"])  # missing required file and --node
        assert excinfo.value.code == 2
