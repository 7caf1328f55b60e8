import json
import time
from importlib import resources

import pytest

jsonschema = pytest.importorskip("jsonschema")

from jetdiff.cli import load_surface_file, main
from jetdiff.counting import dof
from jetdiff.divisibility import assemble_divisibility_system
from jetdiff.jetbuilder import JetSpec

GENERIC_SURFACE = """\
# a generic-looking cubic pair
R = 2*x^3 - x^2*y + 3*x*y^2 + y^3 + x^2 - 2*x*y + y^2 + 5*x - y + 3
S = x^3 + 2*x^2*y - x*y^2 + 2*y^3 - x^2 + x*y + 3*y^2 + x + 4*y - 2
"""

DEGENERATE_SURFACE = """\
R = x^3 + y^3 + x - 1
S = x^3 + y^3 + x - 1
"""


def run_cli(capsys, argv):
    code = main(argv)
    output = capsys.readouterr().out
    return code, json.loads(output)


def load_schema(name):
    with resources.files("jetdiff.schemas").joinpath(name).open() as handle:
        return json.load(handle)


@pytest.fixture
def generic_surface_file(tmp_path):
    path = tmp_path / "surface.txt"
    path.write_text(GENERIC_SURFACE)
    return str(path)


@pytest.fixture
def degenerate_surface_file(tmp_path):
    path = tmp_path / "degenerate.txt"
    path.write_text(DEGENERATE_SURFACE)
    return str(path)


class TestAudit:
    def test_generic_pair_passes(self, capsys, generic_surface_file):
        code, body = run_cli(capsys, ["audit", "--surface", generic_surface_file])
        assert code == 0
        assert body["passed"] is True
        jsonschema.validate(body, load_schema("audit.schema.json"))

    def test_equal_pair_fails_with_witness(self, capsys, degenerate_surface_file):
        code, body = run_cli(capsys, ["audit", "--surface", degenerate_surface_file])
        assert code == 1
        failing = [c for c in body["checks"] if c["verdict"] != "pass"]
        assert failing and any(c["witness"] for c in failing)
        jsonschema.validate(body, load_schema("audit.schema.json"))

    def test_missing_file(self, capsys, tmp_path):
        code, body = run_cli(capsys, ["audit", "--surface", str(tmp_path / "nope.txt")])
        assert code == 3 and "error" in body

    def test_malformed_polynomial(self, capsys, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("R = x^2 + w\nS = x^2 + y^2 - 1\n")
        code, body = run_cli(capsys, ["audit", "--surface", str(path)])
        assert code == 3 and "error" in body

    def test_deep_nesting_is_an_input_error(self, capsys, tmp_path):
        path = tmp_path / "deep.txt"
        path.write_text("R = " + "(" * 3000 + "x" + ")" * 3000 + " + y\n"
                        "S = x^2 + y^2 - 1\n")
        code, body = run_cli(capsys, ["audit", "--surface", str(path)])
        assert code == 3 and "nested" in body["error"]

    def test_high_degree_power_is_an_input_error(self, capsys, tmp_path):
        # expanding this power would take minutes; the cap refuses it first
        path = tmp_path / "power.txt"
        path.write_text("R = (x+y+1)^400 + x\nS = x^2 + y^2 - 1\n")
        start = time.monotonic()
        code, body = run_cli(capsys, ["audit", "--surface", str(path)])
        assert code == 3 and "degree 400" in body["error"]
        assert time.monotonic() - start < 10

    @pytest.mark.parametrize("expression,message", [
        # int() refuses a string of more than 4300 digits with a ValueError
        ("7" * 5000 + "*x^2", "number literal exceeds"),
        # computing this constant takes no expansion but 10 million bits
        ("2^10000000*x", "bits exceed"),
    ])
    def test_huge_number_is_an_input_error(self, capsys, tmp_path, expression, message):
        path = tmp_path / "huge.txt"
        path.write_text(f"R = {expression} + y^2 + 1\nS = x^2 + y^2 - 1\n")
        start = time.monotonic()
        code, body = run_cli(capsys, ["audit", "--surface", str(path)])
        assert code == 3 and message in body["error"]
        assert time.monotonic() - start < 5

    def test_determinism(self, capsys, generic_surface_file):
        main(["audit", "--surface", generic_surface_file])
        first = capsys.readouterr().out
        main(["audit", "--surface", generic_surface_file])
        second = capsys.readouterr().out
        assert first == second


class TestSolve:
    def test_c_zero_dimension_is_dof(self, capsys, generic_surface_file):
        code, body = run_cli(capsys, ["solve", "--surface", generic_surface_file,
                                      "--m", "1", "--c", "0", "--a", "1"])
        assert code == 0
        assert body["dimension"] == dof(1, 1) == 12
        jsonschema.validate(body, load_schema("solve.schema.json"))

    def test_certificates_on_nontrivial_kernel(self, capsys, generic_surface_file):
        code, body = run_cli(capsys, ["solve", "--surface", generic_surface_file,
                                      "--m", "1", "--c", "1", "--a", "2"])
        assert code == 0
        assert body["dimension"] == len(body["kernel"]) == len(body["certificates"])
        assert body["dimension"] > 0
        for cert in body["certificates"]:
            assert cert["checks"]["y_divisible"]
            assert cert["checks"]["surface_restriction_exact"]
        jsonschema.validate(body, load_schema("solve.schema.json"))

    def test_require_infinity_violation(self, capsys, generic_surface_file):
        code, body = run_cli(capsys, ["solve", "--surface", generic_surface_file,
                                      "--m", "1", "--c", "4", "--a", "1",
                                      "--require-infinity"])
        assert code == 4 and "error" in body

    def test_gate_blocks_degenerate_surface(self, capsys, degenerate_surface_file):
        code, body = run_cli(capsys, ["solve", "--surface", degenerate_surface_file,
                                      "--m", "1", "--c", "1", "--a", "1"])
        assert code == 1 and "error" in body

    def test_force_skips_gate(self, capsys, degenerate_surface_file):
        code, body = run_cli(capsys, ["solve", "--surface", degenerate_surface_file,
                                      "--m", "1", "--c", "1", "--a", "1", "--force"])
        assert code == 0 and "dimension" in body

    def test_matrix_export(self, capsys, tmp_path, generic_surface_file):
        matrix_path = tmp_path / "matrix.txt"
        code, body = run_cli(capsys, ["solve", "--surface", generic_surface_file,
                                      "--m", "1", "--c", "1", "--a", "0",
                                      "--matrix-out", str(matrix_path)])
        assert code == 0
        header = matrix_path.read_text().splitlines()[0].split()
        assert [int(header[0]), int(header[1])] == [body["rows"], body["columns"]]
        system = assemble_divisibility_system(load_surface_file(generic_surface_file),
                                              JetSpec(m=1, c=1, a=0))
        assert matrix_path.read_text() == system.to_triplet_text()
        assert not list(tmp_path.glob(".jetdiff-*"))


class TestVerify:
    def test_transfer_suite(self, capsys):
        code, body = run_cli(capsys, ["--seed", "7", "verify", "--transfer",
                                      "--deg", "4", "--trials", "3"])
        assert code == 0 and body["passed"]
        jsonschema.validate(body, load_schema("verify.schema.json"))

    def test_injectivity_suite(self, capsys):
        code, body = run_cli(capsys, ["--seed", "7", "verify", "--injectivity",
                                      "--d", "3", "--m", "1", "--surfaces", "2"])
        assert code == 0 and body["passed"]
        jsonschema.validate(body, load_schema("verify.schema.json"))

    def test_injectivity_seed_after_subcommand(self, capsys):
        code, body = run_cli(capsys, ["verify", "--injectivity", "--d", "3",
                                      "--e", "3", "--m", "1", "--surfaces", "2",
                                      "--seed", "7"])
        assert code == 0 and body["passed"] and body["seed"] == 7

    def test_restriction_suite(self, capsys):
        code, body = run_cli(capsys, ["--seed", "7", "verify", "--restriction",
                                      "--d", "2", "--m", "1", "--trials", "3"])
        assert code == 0 and body["passed"]

    def test_requires_a_suite(self, capsys):
        code, body = run_cli(capsys, ["verify"])
        assert code == 3 and "error" in body


class TestCountAndChi:
    def test_count_at_threshold(self, capsys):
        code, body = run_cli(capsys, ["count", "--d", "752", "--e", "752"])
        assert code == 0
        assert body["cubic_nonnegative"] is True
        assert body["m"] == 62 and body["a"] == 504
        assert body["combinatorial_dimension_bound"] > 0
        assert body["chi_cross_check_2_3_0"]["agrees"] is False
        jsonschema.validate(body, load_schema("count.schema.json"))

    def test_count_below_threshold(self, capsys):
        code, body = run_cli(capsys, ["count", "--d", "100", "--e", "100"])
        assert code == 0 and body["cubic_nonnegative"] is False

    def test_chi_report(self, capsys):
        code, body = run_cli(capsys, ["chi", "--d", "4", "--e", "5", "--m", "2"])
        assert code == 0 and body["symmetric_ok"] is True
        jsonschema.validate(body, load_schema("chi.schema.json"))

    def test_bad_parameters(self, capsys):
        code, body = run_cli(capsys, ["count", "--d", "0", "--e", "5"])
        assert code == 3


class TestOutputFile:
    def test_out_written_atomically(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = main(["--out", str(out), "count", "--d", "24", "--e", "24"])
        capsys.readouterr()
        assert code == 0
        body = json.loads(out.read_text())
        assert body["command"] == "count"
        assert not list(tmp_path.glob(".jetdiff-*"))

    def test_out_in_missing_directory(self, capsys, tmp_path):
        out = tmp_path / "missing" / "report.json"
        code, body = run_cli(capsys, ["--out", str(out), "count", "--d", "5", "--e", "5"])
        assert code == 3 and "does not exist" in body["error"]
        assert not (tmp_path / "missing").exists()

    def test_out_is_a_directory(self, capsys, tmp_path):
        code, body = run_cli(capsys, ["--out", str(tmp_path), "count", "--d", "5", "--e", "5"])
        assert code == 3 and "is a directory" in body["error"]

    def test_matrix_out_in_missing_directory(self, capsys, monkeypatch, tmp_path,
                                             generic_surface_file):
        def no_solve(*args, **kwargs):
            raise AssertionError("the system was assembled before the output check")

        monkeypatch.setattr("jetdiff.cli.assemble_divisibility_system", no_solve)
        matrix_path = tmp_path / "missing" / "matrix.txt"
        code, body = run_cli(capsys, ["solve", "--surface", generic_surface_file,
                                      "--m", "1", "--c", "1", "--a", "0", "--force",
                                      "--matrix-out", str(matrix_path)])
        assert code == 3 and "does not exist" in body["error"]
        assert not (tmp_path / "missing").exists()

    def test_env_seed_override(self, capsys, monkeypatch):
        monkeypatch.setenv("JETDIFF_SEED", "31")
        code, body = run_cli(capsys, ["verify", "--transfer", "--deg", "1",
                                      "--trials", "1"])
        assert code == 0 and body["seed"] == 31
