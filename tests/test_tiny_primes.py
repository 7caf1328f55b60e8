"""The golden reports, rerun with tiny primes in every modular fast path.

Each fast path is one-sided: an unlucky prime may only send a computation
to its exact route, never change a result.  With `modular.PRIMES` patched
to 7, 11 and 13 (the gcd runs modulo 7, the kernels modulo all three, joined
by CRT), many modular proofs fail, so the golden CLI reports and the
failing-audit reports must keep their digests through the exact routes.
Call counters show that those routes are reached.

Tests that assert which route runs, not what it returns, stay outside this
harness: `TestModularGcd` and its `UNLUCKY_PRIME` table in test_polyring.py,
the `UNLUCKY_PRIME` table and the kernel-entry and planted-kernel tests in
test_linalg.py, and the d = 8 audit spy
`TestModularGcdRoute::test_passing_dense_audit_never_runs_the_prs`.
"""

import hashlib
import json
from collections import Counter

import pytest

import test_cli
import test_genericity
from test_injectivity import spy_routes
from jetdiff import linalg, modular, polyring
from jetdiff.cli import main
from jetdiff.genericity import FAIL, full_genericity_audit
from jetdiff.jetbuilder import SurfacePair

GOLDEN = test_cli.GOLDEN
INJECTIVITY_GOLDEN = next(entry for entry in GOLDEN if "--injectivity" in entry[0])
FAILING_AUDITS = test_genericity.TestFailingAuditReports.CASES

# the primes of every tiny-prime run: the gcd runs modulo 7, and a kernel
# entry beyond isqrt(1001 // 2) = 22 sends its kernel to Bareiss elimination
TINY_PRIMES = (7, 11, 13)

# integer coefficients near 100 give kernel entries up to 194, so this
# solve's kernel reaches Bareiss elimination
KERNEL_SURFACE = "R = 97*x^2 + 89*y^2 + 83*x + 1\nS = 91*x^3 + 87*y^3 + 7*x*y + 2\n"
KERNEL_SOLVE = ["solve", "--surface", "{surface}", "--m", "1", "--c", "4", "--a", "2",
                "--force"]


def _patch_primes(monkeypatch):
    monkeypatch.setattr(modular, "PRIMES", TINY_PRIMES)


def _count_exact_routes(monkeypatch) -> Counter:
    """Count the calls of the exact PRS step and of Bareiss elimination."""
    calls = Counter()
    for module, name in ((polyring, "_primitive_prem"), (linalg, "row_echelon")):
        def spy(*args, _original=getattr(module, name), _name=name):
            calls[_name] += 1
            return _original(*args)
        monkeypatch.setattr(module, name, spy)
    return calls


def _run_cli(capsys, argv, surface) -> tuple[int, str]:
    code = main([arg.format(surface=surface) for arg in argv])
    return code, capsys.readouterr().out


@pytest.mark.parametrize("argv,code,digest", GOLDEN,
                         ids=[" ".join(argv) for argv, _, _ in GOLDEN])
def test_golden_report(capsys, monkeypatch, tmp_path, argv, code, digest):
    monkeypatch.delenv("JETDIFF_SEED", raising=False)
    _patch_primes(monkeypatch)
    surface = tmp_path / "surface.txt"
    surface.write_text(test_cli.GOLDEN_SURFACE)
    out_code, out = _run_cli(capsys, argv, surface)
    assert out_code == code
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("route", ["cut", "full"])
def test_injectivity_report_on_each_route(capsys, monkeypatch, tmp_path, route):
    # the golden verify --injectivity report, once proved on the cut rows and
    # once with that proof refused, so that the full matrix's kernel decides
    argv, code, digest = INJECTIVITY_GOLDEN
    monkeypatch.delenv("JETDIFF_SEED", raising=False)
    _patch_primes(monkeypatch)
    if route == "full":
        monkeypatch.setattr(linalg, "full_column_rank", lambda rows, ncols: False)
    routes = spy_routes(monkeypatch)
    out_code, out = _run_cli(capsys, argv, tmp_path / "unused.txt")
    assert out_code == code
    assert hashlib.sha256(out.encode()).hexdigest() == digest
    assert routes == Counter({route: 2})


@pytest.mark.parametrize("case", sorted(FAILING_AUDITS))
def test_failing_audit_report(monkeypatch, case):
    r_text, s_text, digest = FAILING_AUDITS[case]
    _patch_primes(monkeypatch)
    calls = _count_exact_routes(monkeypatch)
    report = full_genericity_audit(SurfacePair.parse(r_text, s_text))
    assert report.verdict == FAIL
    body = json.dumps(report.to_json_dict(), sort_keys=True)
    assert hashlib.sha256(body.encode()).hexdigest() == digest
    assert calls["_primitive_prem"] > 0


def test_kernel_report_falls_back_to_bareiss(capsys, monkeypatch, tmp_path):
    monkeypatch.delenv("JETDIFF_SEED", raising=False)
    surface = tmp_path / "surface.txt"
    surface.write_text(KERNEL_SURFACE)
    expected = _run_cli(capsys, KERNEL_SOLVE, surface)
    _patch_primes(monkeypatch)
    calls = _count_exact_routes(monkeypatch)
    assert _run_cli(capsys, KERNEL_SOLVE, surface) == expected
    assert expected[0] == 0 and json.loads(expected[1])["dimension"] > 0
    assert calls["row_echelon"] > 0
