import hashlib
import json
import time
from importlib import resources

import pytest

jsonschema = pytest.importorskip("jsonschema")

from jetdiff import divisibility
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

# R is linear, so R_x and R_y are constant curves: every check on them is
# inconclusive, and no check fails
LINEAR_R_SURFACE = """\
R = x + 2*y + 3
S = x^2 + 3*x*y - y^2 + x - 5*y + 7
"""

# the dense d = e = 3 pair drawn from random.Random(7), R first, by the
# benchmark's generator
DENSE_CUBIC_SURFACE = """\
R = 6 + 7*y + 2*y^2 + 6*y^3 + 9*x + x*y - 7*x*y^2 + 2*x^2 - 2*x^2*y + x^3
S = 4 + 7*y + 4*y^2 + 9*y^3 - 5*x + 3*x*y + 5*x*y^2 + 2*x^2 + 6*x^2*y + 9*x^3
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


@pytest.fixture
def linear_r_surface_file(tmp_path):
    path = tmp_path / "linear.txt"
    path.write_text(LINEAR_R_SURFACE)
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

    def test_constant_curves_are_inconclusive(self, capsys, linear_r_surface_file):
        code, body = run_cli(capsys, ["audit", "--surface", linear_r_surface_file])
        assert code == 2 and body["verdict"] == "inconclusive"
        open_checks = [c for c in body["checks"] if c["verdict"] != "pass"]
        assert open_checks
        for check in open_checks:
            assert check["verdict"] == "inconclusive"
            assert check["witness"] == "constant curve"
            assert {"Rx", "Ry"} & set(check["name"].split("_")[1:])
        jsonschema.validate(body, load_schema("audit.schema.json"))

    def test_missing_file(self, capsys, tmp_path):
        code, body = run_cli(capsys, ["audit", "--surface", str(tmp_path / "nope.txt")])
        assert code == 3 and "error" in body

    def test_file_not_utf8(self, capsys, tmp_path):
        path = tmp_path / "latin1.txt"
        path.write_bytes(b"R = x^2 + y^2 + 1\xff\nS = x^2 + y^2 - 1\n")
        code, body = run_cli(capsys, ["audit", "--surface", str(path)])
        assert code == 3 and "utf-8" in body["error"]

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

    def test_unbounded_degree_is_an_input_error(self, capsys, tmp_path):
        # parses in milliseconds (single terms), but shearing x^N would build
        # N powers; the surface degree cap refuses it first
        n = 10 ** 30
        path = tmp_path / "unbounded.txt"
        path.write_text(f"R = x^{n} + y^{n} + 1\nS = x^{n} + y^{n} + x + 2\n")
        start = time.monotonic()
        code, body = run_cli(capsys, ["audit", "--surface", str(path)])
        assert code == 3 and "must not exceed 100" in body["error"]
        assert time.monotonic() - start < 5

    def test_determinism(self, capsys, generic_surface_file):
        main(["audit", "--surface", generic_surface_file])
        first = capsys.readouterr().out
        main(["audit", "--surface", generic_surface_file])
        second = capsys.readouterr().out
        assert first == second

    @pytest.mark.parametrize("text,message", [
        ("R x^2 + y^2 + 1\nS = x^2 + y^2 - 1\n", "expected `R = ...`"),
        ("T = x^2 + y^2 + 1\nS = x^2 + y^2 - 1\n", "unknown lhs 'T'"),
        ("R = x^2 + y^2 + 1\nR = x^2 + y^2\nS = x^2 + y^2 - 1\n", "duplicate definition of R"),
        ("R = x^2 + y^2 + 1\n", "missing definition of S"),
        # "²" is a digit to str.isdigit() but not to int()
        ("R = x^\u00b2 + y^2 + 1\nS = x^2 + y^2 - 1\n", "unexpected character"),
        ("R = x^2 + y^2 + 1\nS = 1\n", "S must be non-constant"),
    ])
    def test_malformed_surface_file(self, capsys, tmp_path, text, message):
        path = tmp_path / "bad.txt"
        path.write_text(text, encoding="utf-8")
        code, body = run_cli(capsys, ["audit", "--surface", str(path)])
        assert code == 3 and list(body) == ["error"] and message in body["error"]

    def test_verbose_logs_only_to_stderr(self, capsys, generic_surface_file):
        main(["audit", "--surface", generic_surface_file])
        quiet = capsys.readouterr()
        main(["-v", "audit", "--surface", generic_surface_file])
        verbose = capsys.readouterr()
        assert quiet.err == "" and "auditing surface" in verbose.err
        assert verbose.out == quiet.out


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

    @pytest.mark.xfail(strict=True, raises=AssertionError,
                       reason="ROADMAP item 1: solve certifies the kernel of A -> J, "
                              "whose vectors have J = 0")
    def test_no_certificate_has_a_zero_jet(self, capsys, tmp_path):
        # a = 5 > d - 2, so A -> J has a kernel, and each of its vectors is
        # trivially divisible by y^c; none of them is a section
        path = tmp_path / "dense_cubic.txt"
        path.write_text(DENSE_CUBIC_SURFACE)
        code, body = run_cli(capsys, ["solve", "--surface", str(path), "--m", "1",
                                      "--c", "5", "--a", "5", "--force"])
        assert code == 0 and body["certificates"]
        assert [cert for cert in body["certificates"] if cert["J"] == "0"] == []

    @pytest.mark.parametrize("c,a,dimension", [(1, 0, 0), (2, 2, 4), (0, 1, 12)])
    def test_labels_are_formed_once_per_solve(self, capsys, monkeypatch, generic_surface_file,
                                              c, a, dimension):
        calls = []
        unknown_labels = divisibility.unknown_labels
        monkeypatch.setattr(divisibility, "unknown_labels",
                            lambda spec: calls.append(spec) or unknown_labels(spec))
        code, body = run_cli(capsys, ["solve", "--surface", generic_surface_file, "--m", "1",
                                      "--c", str(c), "--a", str(a), "--force"])
        assert code == 0 and len(body["certificates"]) == dimension
        assert calls == [JetSpec(m=1, c=c, a=a)]

    def test_require_infinity_violation(self, capsys, generic_surface_file):
        code, body = run_cli(capsys, ["solve", "--surface", generic_surface_file,
                                      "--m", "1", "--c", "4", "--a", "1",
                                      "--require-infinity"])
        assert code == 4 and "error" in body

    def test_gate_blocks_degenerate_surface(self, capsys, degenerate_surface_file):
        code, body = run_cli(capsys, ["solve", "--surface", degenerate_surface_file,
                                      "--m", "1", "--c", "1", "--a", "1"])
        assert code == 1 and "error" in body

    def test_gate_inconclusive_on_constant_curves(self, capsys, linear_r_surface_file):
        code, body = run_cli(capsys, ["solve", "--surface", linear_r_surface_file,
                                      "--m", "1", "--c", "1", "--a", "0"])
        assert code == 2 and "rerun with --force" in body["error"]
        assert body["audit"]["verdict"] == "inconclusive"
        assert "dimension" not in body

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

    def test_suites_record_the_resolved_defaults(self, capsys):
        # --e defaults to --d; --a to d - 2 for injectivity and to 1 for restriction
        code, body = run_cli(capsys, ["--seed", "7", "verify", "--injectivity",
                                      "--restriction", "--d", "2", "--surfaces", "1",
                                      "--trials", "1"])
        assert code == 0 and body["passed"]
        configs = {suite["name"]: suite["config"] for suite in body["suites"]}
        assert (configs["injectivity"]["e"], configs["injectivity"]["a"]) == (2, 0)
        assert (configs["restriction"]["e"], configs["restriction"]["a"]) == (2, 1)

    def test_requires_a_suite(self, capsys):
        code, body = run_cli(capsys, ["verify"])
        assert code == 3 and "error" in body

    @pytest.mark.parametrize("flags,named", [
        (["--restriction", "--m", "0"], "--m"),
        (["--injectivity", "--m", "-1"], "--m"),
        (["--restriction", "--d", "0"], "--d"),
        (["--restriction", "--d", "3", "--e", "2"], "--e"),
        (["--restriction", "--d", "101"], "--e <= 100"),
        (["--transfer", "--e", "101"], "--e <= 100"),
        (["--transfer", "--deg", "0"], "--deg"),
        (["--transfer", "--deg", "101"], "--deg"),
        (["--transfer", "--trials", "0"], "--trials"),
        (["--injectivity", "--surfaces", "0"], "--surfaces"),
        (["--restriction", "--a", "-1"], "--a"),
        (["--injectivity", "--d", "3", "--a", "5"], "--a <= --d - 2"),
        # the default a = 0 exceeds d - 2 = -1
        (["--injectivity", "--d", "1"], "--a <= --d - 2"),
    ])
    def test_out_of_range_flags(self, capsys, flags, named):
        start = time.monotonic()
        code, body = run_cli(capsys, ["verify", *flags])
        assert code == 3 and named in body["error"]
        assert time.monotonic() - start < 5

    @pytest.mark.parametrize("flags", [
        ["--transfer", "--deg", "1", "--trials", "1"],
        ["--restriction", "--d", "1", "--m", "1", "--a", "0", "--trials", "1"],
    ])
    def test_smallest_flags_accepted(self, capsys, flags):
        code, body = run_cli(capsys, ["verify", *flags])
        assert code == 0 and body["passed"]


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

    def test_count_refuses_m_zero(self, capsys):
        code, body = run_cli(capsys, ["count", "--d", "5", "--e", "5", "--m", "0"])
        assert code == 3 and list(body) == ["error"] and "m >= 1" in body["error"]

    def test_count_refuses_negative_c(self, capsys):
        # solve refuses c < 0 through JetSpec; count must agree
        code, body = run_cli(capsys, ["count", "--d", "5", "--e", "5", "--c", "-3"])
        assert code == 3 and list(body) == ["error"] and "c >= 0" in body["error"]


class TestInputErrors:
    @pytest.mark.parametrize("argv,message", [
        (["solve", "--m", "x", "--c", "1", "--a", "0"], "invalid int value: 'x'"),
        (["solve", "--m", "0", "--c", "1", "--a", "0", "--force"], "jet order m must be >= 1"),
        (["chi", "--d", "4", "--e", "5", "--m", "-1"], "requires d, e >= 1 and m >= 0"),
    ])
    def test_bad_flag_values(self, capsys, generic_surface_file, argv, message):
        if argv[0] == "solve":
            argv = [*argv, "--surface", generic_surface_file]
        code, body = run_cli(capsys, argv)
        assert code == 3 and list(body) == ["error"] and message in body["error"]

    def test_env_seed_not_an_integer(self, capsys, monkeypatch):
        monkeypatch.setenv("JETDIFF_SEED", "abc")
        code, body = run_cli(capsys, ["verify", "--transfer", "--deg", "1",
                                      "--trials", "1"])
        assert code == 3 and list(body) == ["error"]
        assert "JETDIFF_SEED must be an integer" in body["error"]


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

    def test_empty_out_is_refused(self, capsys, monkeypatch, tmp_path):
        # the temporary file of an empty path would go to the parent of the
        # working directory
        work = tmp_path / "work"
        work.mkdir()
        monkeypatch.chdir(work)
        code, body = run_cli(capsys, ["chi", "--d", "3", "--e", "3", "--m", "1", "--out", ""])
        assert code == 3 and list(body) == ["error"] and "empty" in body["error"]
        assert list(tmp_path.iterdir()) == [work] and not list(work.iterdir())

    def test_empty_matrix_out_is_refused_before_work(self, capsys, monkeypatch,
                                                    generic_surface_file):
        def no_solve(*args, **kwargs):
            raise AssertionError("the system was assembled before the output check")

        monkeypatch.setattr("jetdiff.cli.assemble_divisibility_system", no_solve)
        code, body = run_cli(capsys, ["solve", "--surface", generic_surface_file,
                                      "--m", "1", "--c", "1", "--a", "0", "--force",
                                      "--matrix-out", ""])
        assert code == 3 and list(body) == ["error"] and "empty" in body["error"]

    def test_out_and_matrix_out_on_one_file_are_refused(self, capsys, monkeypatch, tmp_path,
                                                        generic_surface_file):
        def no_solve(*args, **kwargs):
            raise AssertionError("the system was assembled before the output check")

        monkeypatch.setattr("jetdiff.cli.assemble_divisibility_system", no_solve)
        monkeypatch.chdir(tmp_path)
        (tmp_path / "link.txt").symlink_to(tmp_path / "same.txt")
        for matrix_out in ("same.txt", str(tmp_path / "same.txt"), "./link.txt"):
            code, body = run_cli(capsys, ["--out", "same.txt", "solve", "--surface",
                                          generic_surface_file, "--m", "1", "--c", "1",
                                          "--a", "0", "--force", "--matrix-out", matrix_out])
            assert code == 3 and list(body) == ["error"] and "same file" in body["error"]
        assert sorted(path.name for path in tmp_path.iterdir()) == ["link.txt", "surface.txt"]

    def test_unwritable_name_is_an_input_error(self, capsys, tmp_path):
        # passes the pre-flight check; os.replace refuses the 300-byte name
        out = tmp_path / ("a" * 300)
        code, body = run_cli(capsys, ["--out", str(out), "chi", "--d", "3", "--e", "3",
                                      "--m", "1"])
        assert code == 3 and list(body) == ["error"] and "cannot write" in body["error"]
        assert not list(tmp_path.iterdir())

    def test_temporary_file_failure_is_an_input_error(self, capsys, monkeypatch, tmp_path):
        def no_space(*args, **kwargs):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr("tempfile.mkstemp", no_space)
        code, body = run_cli(capsys, ["--out", str(tmp_path / "report.json"),
                                      "count", "--d", "5", "--e", "5"])
        assert code == 3 and list(body) == ["error"] and "No space left" in body["error"]
        assert not list(tmp_path.iterdir())

    def test_env_seed_override(self, capsys, monkeypatch):
        monkeypatch.setenv("JETDIFF_SEED", "31")
        code, body = run_cli(capsys, ["verify", "--transfer", "--deg", "1",
                                      "--trials", "1"])
        assert code == 0 and body["seed"] == 31


# SHA-256 of stdout and the exit code of reports the benchmark digests do not
# cover, run with JETDIFF_SEED unset; "{surface}" names a file holding
# GOLDEN_SURFACE, whose gated solve fails the audit
GOLDEN_SURFACE = "R = x^2 + y^2 + 1\nS = x^3 + y^3 + x + 2\n"
GOLDEN = [
    (["verify", "--restriction"], 0,
     "43c37fc7f9959b670bc78ee9fb935bae2771d35cbb3d21ccd5b134d22bf08d41"),
    (["verify", "--restriction", "--d", "4", "--m", "2", "--trials", "3"], 0,
     "de15ef7d1ba292ac694d1af71423e9c22162fb92a314395aa0c4ac1c94965632"),
    (["count", "--d", "13", "--e", "13"], 0,
     "cd85177d04bbfeb7045969fec4ccfc04ee52cddd3dde5e4d4e79b17b75ebff33"),
    (["chi", "--d", "3", "--e", "4", "--m", "2"], 0,
     "1bb508e26885e7b8beada0cf4724a863704b8b48ad0d366acef4429a5f26810d"),
    (["solve", "--surface", "{surface}", "--m", "1", "--c", "4", "--a", "1",
      "--require-infinity"], 4,
     "94d07dac6b569fdc8a390831b3486cb6a5c2a91c26666874838fa7c17e7f9c51"),
    (["solve", "--surface", "{surface}", "--m", "1", "--c", "5", "--a", "1"], 1,
     "288c7efaeced9cb341cd6b379be24a2f50e77081c8575094d5746bae141b28b3"),
    (["verify", "--injectivity", "--d", "3", "--m", "1", "--surfaces", "2",
      "--seed", "7"], 0,
     "05b16c4f7cf0b128ff062fe7d1d404d06bf5818b6d1cdd886118e609ef96e4d9"),
    (["-v", "--seed", "3", "verify", "--transfer", "--trials", "2"], 0,
     "29c2906f709745d446baf20d6bb9719b383eed9f717b974811abe3b9f2908291"),
]


@pytest.mark.parametrize("argv,code,digest", GOLDEN,
                         ids=[" ".join(argv) for argv, _, _ in GOLDEN])
def test_golden_report(capsys, monkeypatch, tmp_path, argv, code, digest):
    monkeypatch.delenv("JETDIFF_SEED", raising=False)
    surface = tmp_path / "surface.txt"
    surface.write_text(GOLDEN_SURFACE)
    assert main([arg.format(surface=surface) for arg in argv]) == code
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest
