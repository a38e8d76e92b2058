"""The lazy package namespace, and which modules each entry point loads.

Each CLI command is a fresh process, so every module it imports is start-up
time it pays.  These tests pin the gcnlab modules a command loads; a new
top-level import then fails here instead of quietly slowing the CLI.
"""

import importlib
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import gcnlab
from gcnlab import GeneratorSpec, certify_gc, generate
from gcnlab.cli import _COMMANDS
from gcnlab.serialization import save_certificate, save_nodeset

SRC = Path(__file__).resolve().parents[1] / "src"

#: The public names and their home modules.
PUBLIC = {
    "analysis": (
        "GMReport", "IncidenceProfile", "SearchSummary", "TrialFailure",
        "cayley_bacharach_check", "classify_2m_nodes", "gm_report_from_certificate",
        "incidence_profile", "maximal_lines", "search_counterexample", "verify_gm",
    ),
    "certification": (
        "GCCertificate", "NodeCertificate", "certify_gc", "line_incidence", "used_lines_of",
        "verify_certificate",
    ),
    "errors": (
        "BadRational", "CenterInTarget", "CountsUnequal", "DegenerateIntersection",
        "DuplicateLine", "DuplicateNode", "GCNLabError", "IdenticalLines", "IdenticalPoints",
        "InvalidCertificate", "LengthMismatch", "LineNotUsed", "NotDivisible",
        "NotGC", "NotPoised", "ParallelLines", "ParseError", "RetryLimitExceeded",
        "TooManyCollinear", "ZeroPolynomial",
    ),
    "generators": (
        "DEFAULT_KINDS", "GeneratorSpec", "gen_principal", "generate", "generate_with_certificate",
    ),
    "geometry": (
        "Line", "NodeSet", "Point", "Scalar", "intersect", "is_incident", "to_scalar",
    ),
    "interpolation": (
        "FundamentalSolution", "all_fundamentals", "annihilator", "fundamental", "interpolate",
        "is_essentially_dependent", "is_independent", "is_poised", "vandermonde",
    ),
    "plotting": ("plot_svg",),
    "polynomials": (
        "MAX_DEGREE", "Poly", "dim_pi", "divide_by_line", "evaluate", "format_poly",
        "monomials", "multiply_line",
    ),
    "sequences": (
        "MDSequence", "MLineSequence", "enumerate_mdseqs", "fixed_first_mdseq", "greedy_mdseq",
        "greedy_sequence_for_lines", "primary_zero_divisibility", "verify_swap_property",
    ),
}

#: Former public names; the first seven now live in tests/oracles.py.
REMOVED = (
    "NotProductOfCandidateLines",
    "UsedLineIndex",
    "candidate_lines",
    "factor_into_lines",
    "general_position",
    "line_through",
    "used_line_index",
    "gen_chung_yao",
    "gen_projective_image",
    "MultiplicityPresent",
)


class TestNamespace:
    def test_all_is_the_public_list(self):
        names = [name for names in PUBLIC.values() for name in names]
        assert sorted(gcnlab.__all__) == sorted(names)
        assert len(set(gcnlab.__all__)) == len(gcnlab.__all__)

    @pytest.mark.parametrize("module", sorted(PUBLIC))
    def test_names_are_their_home_objects(self, module):
        home = importlib.import_module(f"gcnlab.{module}")
        for name in PUBLIC[module]:
            assert getattr(gcnlab, name) is getattr(home, name), name

    def test_removed_names_are_gone(self):
        for name in REMOVED:
            assert name not in gcnlab.__all__
            with pytest.raises(AttributeError):
                getattr(gcnlab, name)

    def test_unknown_name(self):
        with pytest.raises(AttributeError, match="module 'gcnlab' has no attribute 'nope'"):
            gcnlab.nope  # noqa: B018
        assert not hasattr(gcnlab, "nope")

    def test_star_import(self):
        namespace = {}
        exec("from gcnlab import *", namespace)
        assert set(namespace) - {"__builtins__"} == set(gcnlab.__all__)

    def test_dir(self):
        listed = dir(gcnlab)
        assert listed == sorted(listed)
        assert set(gcnlab.__all__) <= set(listed)
        assert "__version__" in listed

    def test_submodules_still_import_by_name(self):
        from gcnlab import certification, serialization

        assert certification.certify_gc is gcnlab.certify_gc
        assert serialization.__name__ == "gcnlab.serialization"


# Runs one CLI command as ``python -m gcnlab.cli`` does and reports, as the
# last stderr line, its exit code, the gcnlab submodules it loaded and which
# of ``dataclasses``, ``inspect``, ``fractions``, ``decimal``, ``argparse``,
# ``gettext`` and ``locale`` it loaded.  No part of a CLI process but gcnlab
# would import those (``dataclasses`` and ``inspect`` bring ``ast``, ``dis``
# and ``tokenize``, ``fractions`` brings ``decimal`` and ``numbers``,
# ``argparse`` brings ``gettext``, which loads ``locale`` when a parser is
# built), so each one gcnlab pulled in would be start-up time paid by every
# command.  Only a command that computes a rational (a solution) loads
# ``fractions``, and only help and usage errors load ``argparse``.  A
# command also loads the handler package ``_commands`` and its own module
# there, and no other handler.
STDLIB = ("dataclasses", "inspect", "fractions", "decimal", "argparse", "gettext", "locale")
PROBE = f"""
import json, runpy, sys
sys.argv = ["gcnlab", *sys.argv[1:]]
code = 0
try:
    runpy.run_module("gcnlab.cli", run_name="__main__")
except SystemExit as exc:
    code = exc.code
loaded = sorted(m.split(".", 1)[1] for m in sys.modules if m.startswith("gcnlab."))
stdlib = [m for m in {STDLIB!r} if m in sys.modules]
print(json.dumps([code, loaded, stdlib]), file=sys.stderr)
"""

# Imports the module named by its argument and reports as PROBE does.
BARE = f"""
import json, sys
__import__(sys.argv[1])
loaded = sorted(m.split(".", 1)[1] for m in sys.modules if m.startswith("gcnlab."))
stdlib = [m for m in {STDLIB!r} if m in sys.modules]
print(json.dumps([0, loaded, stdlib]), file=sys.stderr)
"""


def probe(cwd, code, *argv):
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run(
        [sys.executable, "-c", code, *argv], capture_output=True, text=True, env=env, cwd=cwd
    )
    return json.loads(proc.stderr.splitlines()[-1])


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    path = tmp_path_factory.mktemp("imports")
    xs = generate(GeneratorSpec("chung_yao", 4, seed=3))
    (path / "cy.json").write_text(save_nodeset(xs))
    (path / "cy-cert.json").write_text(save_certificate(certify_gc(xs)))
    (path / "moved.json").write_text(
        '{"degree": 2, "nodes": [["0","0"],["0","1"],["0","4"],["1","0"],'
        '["2","0"],["22/7","-21/11"]]}\n'
    )
    return path


READ = ["errors", "geometry", "nodefile"]
BASE = READ + ["certification"]
ALGEBRA = ["interpolation", "linalg", "polynomials"]


def running(command, *modules):
    """What running ``command`` loads: ``modules``, the handler package and the command's own module."""
    return sorted([*modules, "_commands", f"_commands.{command.replace('-', '_')}"])


#: The smallest valid argv of every command; each exits 0.
SMALLEST = {
    "check-poised": ["cy.json"],
    "fundamental": ["cy.json", "--node", "0"],
    "certify-gc": ["cy.json"],
    "check-cert": ["cy-cert.json"],
    "used-lines": ["cy.json", "--node", "0"],
    "mdseq": ["cy.json", "--node", "0"],
    "maximal-lines": ["cy.json"],
    "verify-gm": ["cy.json"],
    "incidence-profile": ["cy.json", "--node", "0"],
    "cayley-bacharach": ["--m", "1", "--n", "2"],
    "generate": ["--kind", "principal", "--degree", "1"],
    "search": ["--degree", "1", "--trials", "1"],
    "plot": ["cy.json"],
}

#: What ``gcnlab.serialization`` exposes: the document codecs and, re-exported
#: from ``gcnlab.nodefile``, the node-file codec.
CODECS = (
    "certificate_from_dict", "certificate_to_dict", "load_certificate", "load_report",
    "load_summary", "poly_from_dict", "poly_to_dict", "report_from_dict", "report_to_dict",
    "save_certificate", "save_report", "save_summary", "summary_from_dict", "summary_to_dict",
)
NODE_FILE = (
    "format_rational", "load_nodeset", "maximal_lines_to_list", "nodeset_from_dict",
    "nodeset_to_dict", "parse_rational", "save_nodeset",
)

#: The commands that read or write a certificate, report, summary or polynomial.
DOCUMENT_COMMANDS = ("fundamental", "certify-gc", "check-cert", "verify-gm", "search")


def test_serialization_keeps_every_codec_name():
    from gcnlab import nodefile, serialization

    for name in CODECS:
        assert callable(getattr(serialization, name)), name
    for name in NODE_FILE:
        assert getattr(serialization, name) is getattr(nodefile, name), name
    for name in CODECS:
        assert getattr(serialization, name).__module__ == "gcnlab.serialization", name
    namespace = {}
    exec("from gcnlab.serialization import *", namespace)
    assert sorted(serialization.__all__) == sorted(CODECS + NODE_FILE)
    assert set(CODECS + NODE_FILE) <= set(namespace) & set(dir(serialization))


def test_each_command_has_its_own_handler_module():
    # main runs command c from the module named c with - as _, so an orphaned
    # handler or a renamed command fails here
    from gcnlab import _commands

    modules = {module.name for module in pkgutil.iter_modules(_commands.__path__)}
    assert modules == {name.replace("-", "_") for name in _COMMANDS}
    for name in modules:
        assert callable(importlib.import_module(f"gcnlab._commands.{name}").run), name


class TestImportBoundary:
    def test_bare_import_loads_no_module(self, workdir):
        assert probe(workdir, BARE, "gcnlab") == [0, [], []]

    def test_serialization_loads_no_dataclasses(self, workdir):
        assert probe(workdir, BARE, "gcnlab.serialization") == [0, sorted(READ + ["serialization"]), []]

    def test_nodefile_loads_only_geometry(self, workdir):
        assert probe(workdir, BARE, "gcnlab.nodefile") == [0, sorted(READ), []]

    def test_geometry_loads_no_fractions(self, workdir):
        assert probe(workdir, BARE, "gcnlab.geometry") == [0, ["errors", "geometry"], []]

    def test_linalg_loads_only_geometry(self, workdir):
        # linalg clears denominators with geometry._clear, and every command
        # loads geometry already, so the algebra adds no other module; it
        # imports fractions only to return a solution or a kernel vector
        assert probe(workdir, BARE, "gcnlab.linalg") == [0, ["errors", "geometry", "linalg"], []]

    @pytest.mark.parametrize("module", ["interpolation", "polynomials"])
    def test_the_algebra_imports_no_fractions(self, workdir, module):
        assert probe(workdir, BARE, f"gcnlab.{module}")[2] == []

    @pytest.mark.parametrize(
        "argv, expected, stdlib",
        [
            pytest.param(["certify-gc", "cy.json", "--out", "cert.json"], BASE + ["serialization"],
                         [], id="certify-gc"),
            pytest.param(["verify-gm", "cy.json"], BASE + ["analysis", "serialization"], [],
                         id="verify-gm"),
            pytest.param(["mdseq", "cy.json", "--node", "0", "--all"], BASE + ["sequences"], [],
                         id="mdseq"),
            pytest.param(["plot", "cy.json", "--overlay", "maximal"], READ + ["plotting"], [],
                         id="plot"),
        ],
    )
    def test_benchmark_commands(self, workdir, argv, expected, stdlib):
        # only the commands that write a certificate or a report load the writers, and
        # neither loads the readers; a certificate's constants are written from integer
        # pairs; no command line is parsed by argparse (the fallback parser module stays
        # unloaded too), and each command compiles its own handler only
        assert probe(workdir, PROBE, *argv) == [0, running(argv[0], *expected), stdlib]

    @pytest.mark.parametrize(
        "argv",
        [
            ["plot", "cy.json", "--overlay", "used:0", "--overlay", "primary:1"],
            ["mdseq", "cy.json", "--node", "0"],
            ["verify-gm", "cy.json", "--out", "report.json"],
            ["maximal-lines", "cy.json"],
            ["used-lines", "cy.json", "--node", "0"],
            ["incidence-profile", "cy.json", "--node", "0"],
            *(["generate", "--kind", kind, "--degree", "3"]
              for kind in ("chung_yao", "principal", "projective_image")),
        ],
        ids=lambda argv: " ".join(argv[:3] if argv[0] == "generate" else argv[:1]),
    )
    def test_integer_commands_load_no_fractions(self, workdir, argv):
        # from the node file to the output, these stay on the set's integer index
        code, _, stdlib = probe(workdir, PROBE, *argv)
        assert (code, stdlib) == (0, [])

    def test_maximal_lines_reads_the_index_without_the_certifier(self, workdir):
        # maximal lines come from the node set's own index
        expected = [0, running("maximal-lines", *READ), []]
        assert probe(workdir, PROBE, "maximal-lines", "cy.json") == expected

    def test_plot_certifies_only_for_a_certificate_overlay(self, workdir):
        argv = ["plot", "cy.json", "--overlay", "maximal", "--overlay", "used:0"]
        assert probe(workdir, PROBE, *argv) == [0, running("plot", *BASE, "plotting"), []]

    def test_only_a_failed_cover_loads_the_algebra(self, workdir):
        # telling a non-poised set from a poised non-GC one needs a rank; a
        # set that fails writes no document, so the codecs stay unloaded,
        # and full rank modulo a prime builds no rational
        got = probe(workdir, PROBE, "certify-gc", "moved.json")
        assert got == [1, running("certify-gc", *BASE, *ALGEBRA), []]

    @pytest.mark.parametrize("argv", [["verify-gm"], ["mdseq", "--node", "0", "--all"]],
                             ids=lambda argv: argv[0])
    def test_failing_commands_load_no_document_codec(self, workdir, argv):
        code, loaded, stdlib = probe(workdir, PROBE, argv[0], "moved.json", *argv[1:])
        assert (code, stdlib) == (1, [])  # the rank that tells poised from GC is modular
        assert "nodefile" in loaded and "serialization" not in loaded
        assert "_cliparser" not in loaded

    @pytest.mark.parametrize(
        "argv, code",
        [(["--help"], 0), (["plot", "--help"], 0), (["mdseq", "cy.json"], 2)],
        ids=["--help", "plot --help", "mdseq without --node"],
    )
    def test_only_help_and_usage_errors_load_argparse(self, workdir, argv, code):
        got, loaded, stdlib = probe(workdir, PROBE, *argv)
        assert got == code
        assert "_cliparser" in loaded and "argparse" in stdlib
        assert "certification" not in loaded  # the usage error comes first
        # the tree reads the table from _commands, so no second gcnlab.cli is compiled
        assert "cli" not in loaded

    @pytest.mark.parametrize("name", ["cy.json", "moved.json"])
    def test_check_poised_builds_no_rational(self, workdir, name):
        # the modular rank proves a poised set poised
        expected = running("check-poised", *READ, *ALGEBRA)
        assert probe(workdir, PROBE, "check-poised", name) == [0, expected, []]

    def test_generate_loads_the_generators(self, workdir):
        argv = ["generate", "--kind", "principal", "--degree", "2"]
        expected = running("generate", *BASE, "generators", "rng")
        assert probe(workdir, PROBE, *argv) == [0, expected, []]

    def test_check_cert_loads_only_the_reader_and_the_rule(self, workdir):
        assert probe(workdir, PROBE, "certify-gc", "cy.json", "--out", "c.json")[0] == 0
        # the reader compares constants as integer pairs
        expected = [0, running("check-cert", *BASE, "serialization"), []]
        assert probe(workdir, PROBE, "check-cert", "c.json") == expected

    @pytest.mark.parametrize("command", list(_COMMANDS))
    def test_each_command_compiles_its_own_handler_only(self, workdir, command):
        # a command module that imported gcnlab.cli would compile it a second time
        # under python -m gcnlab.cli, where the running copy is __main__
        got, loaded, _ = probe(workdir, PROBE, command, *SMALLEST[command])
        assert got == 0
        handlers = [m for m in loaded if m.startswith("_commands.")]
        assert handlers == [f"_commands.{command.replace('-', '_')}"]
        assert "cli" not in loaded
        # only a command that reads or writes a certificate, report, summary or
        # polynomial loads the document codecs
        assert ("serialization" in loaded) is (command in DOCUMENT_COMMANDS)
