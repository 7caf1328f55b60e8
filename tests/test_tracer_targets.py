"""The benchmark tracer wraps jetdiff functions by name: each name must resolve,
and the per-layer counts it reads on `solve` must keep their meaning."""

import importlib
import importlib.util
import json
import random
from collections import Counter
from pathlib import Path

from jetdiff import cli
from jetdiff.jetbuilder import JetContext
from test_genericity import _dense_polynomial_text

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"

# a cubic pair whose kernel at (m, c, a) = (2, 2, 2) has dimension 11
SURFACE = """\
R = 2*x^3 - x^2*y + 3*x*y^2 + y^3 + x^2 - 2*x*y + y^2 + 5*x - y + 3
S = x^3 + 2*x^2*y - x*y^2 + 2*y^3 - x^2 + x*y + 3*y^2 + x + 4*y - 2
"""


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_tracer_target_is_a_jetdiff_callable():
    targets = load_tracer().TARGETS
    assert targets
    for name, (module, cls, attr) in targets.items():
        owner = importlib.import_module(f"jetdiff.{module}")
        if cls is not None:
            owner = getattr(owner, cls)
        assert callable(getattr(owner, attr, None)), name


def test_solve_runs_each_certification_layer_once_per_vector(tmp_path, capsys, monkeypatch):
    # the benchmark counts build_section, expand_lambda, build_jet and
    # restrict_to_surface by name; with the per-solve contexts each must still
    # run once per kernel vector, and expand_lambda must never reach a JetContext
    tracer = load_tracer().Tracer()

    def guard(method):
        def guarded(*args, **kwargs):
            open_spans = [name for name, _, end, _ in tracer.spans if end == 0.0]
            assert "jetbuilder.expand_lambda" not in open_spans, "expansion reached JetContext"
            return method(*args, **kwargs)
        return guarded

    for name in ("__init__", "pq_base", "jet_term_base", "realize"):
        monkeypatch.setattr(JetContext, name, guard(getattr(JetContext, name)))
    path = tmp_path / "surface.txt"
    path.write_text(SURFACE)
    with tracer:
        code = cli.main(["solve", "--surface", str(path), "--m", "2", "--c", "2", "--a", "2",
                         "--force"])
    body = json.loads(capsys.readouterr().out)
    assert code == 0 and body["dimension"] == len(body["certificates"]) == 11
    calls = Counter(name for name, _, _, _ in tracer.spans)
    assert [calls[name] for name in ("divisibility.build_section", "jetbuilder.expand_lambda",
                                     "jetbuilder.build_jet", "surfacecharts.restrict")] == [11] * 4


def test_audit_passing_at_the_identity_shears_each_curve_once(tmp_path, capsys):
    # the benchmark's audit wrappers must stay on the path: one shared table
    # shears each of the six curves once and forms each pair's resultant
    # once, and the 15 pair checks still run by name
    rng = random.Random(7)
    path = tmp_path / "surface.txt"
    path.write_text(f"R = {_dense_polynomial_text(rng, 5)}\n"
                    f"S = {_dense_polynomial_text(rng, 5)}\n")
    tracer = load_tracer().Tracer()
    with tracer:
        code = cli.main(["audit", "--surface", str(path)])
    body = json.loads(capsys.readouterr().out)
    assert code == 0 and body["verdict"] == "pass"
    assert all(check["shear"] in (None, "0") for check in body["checks"])
    calls = Counter(name for name, _, _, _ in tracer.spans)
    assert [calls[name] for name in ("genericity.pair_check", "genericity.shear",
                                     "polyring.resultant")] == [15, 6, 15]
    assert calls["polyring.poly_substitute"] >= 1
