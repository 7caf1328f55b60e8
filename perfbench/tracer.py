"""Outside-in tracing of jetdiff: wrappers around the public functions of each module.

Every traced function is replaced at every attribute that binds it (the
defining module and each module that imported it by name), and methods are
replaced on their class, so calls through any route are seen.  Each call
records a span (name, start, end, parent) in memory; `metrics()` derives
per-layer counts and self times (span time minus the time of child spans).
"""

from __future__ import annotations

import importlib
import json
import time
from collections import Counter, defaultdict

MODULES = ("polyring", "jetbuilder", "divisibility", "linalg", "genericity",
           "injectivity", "surfacecharts", "sampling", "cli")

# metric prefix -> (defining module, class or None, attribute)
TARGETS = {
    "polyring.mul": ("polyring", "ExactPoly", "__mul__"),
    "polyring.add": ("polyring", "ExactPoly", "__add__"),
    "polyring.resultant": ("polyring", None, "resultant"),
    "polyring.gcd_univariate": ("polyring", None, "gcd_univariate"),
    "polyring.poly_substitute": ("polyring", None, "poly_substitute"),
    "polyring.monomial_quotient": ("polyring", None, "monomial_quotient"),
    "polyring.str": ("polyring", "ExactPoly", "__str__"),
    "jetbuilder.expand_lambda": ("jetbuilder", None, "expand_lambda"),
    "jetbuilder.build_jet": ("jetbuilder", None, "build_jet"),
    "jetbuilder.jet_term_base": ("jetbuilder", "JetContext", "jet_term_base"),
    "divisibility.assemble": ("divisibility", None, "assemble_divisibility_system"),
    "divisibility.kernel_basis": ("divisibility", None, "kernel_basis"),
    "divisibility.build_section": ("divisibility", None, "build_section"),
    "linalg.row_echelon": ("linalg", None, "row_echelon"),
    "linalg.nullspace": ("linalg", None, "nullspace"),
    "genericity.audit": ("genericity", None, "full_genericity_audit"),
    "genericity.pair_check": ("genericity", None, "pair_transversality_check"),
    "genericity.shear": ("genericity", None, "shear"),
    "injectivity.matrix": ("injectivity", None, "injectivity_matrix"),
    "injectivity.analyze": ("injectivity", None, "analyze_injectivity"),
    "surfacecharts.restrict": ("surfacecharts", None, "restrict_to_surface"),
    "surfacecharts.transfer": ("surfacecharts", None, "full_chart_transfer"),
    "surfacecharts.derivative_transfer": ("surfacecharts", None,
                                          "verify_derivative_transfer"),
    "sampling.generic_surface": ("sampling", None, "random_generic_surface"),
    "cli.load_surface": ("cli", None, "load_surface_file"),
    "cli.emit": ("cli", None, "_emit"),
}

# the per-layer metrics, in report order: (name, unit)
_TIMED = [name for name in TARGETS if name not in
          ("divisibility.kernel_basis", "genericity.shear")]
LAYER_METRICS: list[tuple[str, str]] = (
    [(f"{name}.calls", "count") for name in TARGETS]
    + [(f"{name}.self_s", "s") for name in _TIMED]
    + [("polyring.mul.terms_out", "count"),
       ("polyring.resultant.coeff_bits_max", "bits"),
       ("divisibility.assemble.rows", "count"),
       ("divisibility.assemble.cols", "count"),
       ("divisibility.assemble.nnz", "count"),
       ("divisibility.kernel_dim", "count"),
       ("linalg.row_echelon.rank", "count"),
       ("linalg.row_echelon.pivot_bits_max", "bits"),
       ("genericity.pair_first_shear_ratio", "ratio"),
       ("genericity.checks_pass", "count"),
       ("genericity.checks_fail", "count"),
       ("genericity.checks_inconclusive", "count"),
       ("injectivity.matrix.nnz", "count"),
       ("sampling.accept_ratio", "ratio"),
       ("cli.report_bytes", "bytes")]
    + [(f"{module}.errors", "count") for module in MODULES]
    + [("trace.overhead_ratio", "ratio")]
)


def _bits(value) -> int:
    """Bit length of a rational: the larger of numerator and denominator."""
    return max(abs(value.numerator).bit_length(), value.denominator.bit_length())


def _on_result(counters: Counter, name: str, result) -> None:
    """Deterministic counters read from a traced call's return value."""
    if name == "polyring.mul":
        counters["polyring.mul.terms_out"] += len(result.terms)
    elif name == "polyring.resultant":
        bits = max((_bits(c) for c in result.terms.values()), default=0)
        key = "polyring.resultant.coeff_bits_max"
        counters[key] = max(counters[key], bits)
    elif name == "divisibility.assemble":
        counters["divisibility.assemble.rows"] += len(result.rows)
        counters["divisibility.assemble.cols"] += len(result.columns)
        counters["divisibility.assemble.nnz"] += sum(map(len, result.row_entries))
    elif name == "divisibility.kernel_basis":
        counters["divisibility.kernel_dim"] += len(result)
    elif name == "linalg.row_echelon":
        counters["linalg.row_echelon.rank"] += result.rank
        bits = max((abs(v).bit_length() for row in result.pivot_rows for v in row.values()),
                   default=0)
        key = "linalg.row_echelon.pivot_bits_max"
        counters[key] = max(counters[key], bits)
    elif name == "genericity.audit":
        for check in result.checks:
            counters[f"genericity.checks_{check.verdict}"] += 1
    elif name == "genericity.pair_check":
        counters["genericity.pair_first_shear"] += result.shear_used == 0
    elif name == "injectivity.matrix":
        counters["injectivity.matrix.nnz"] += sum(map(len, result.row_entries))


class Tracer:
    """Installs the wrappers for the lifetime of a `with` block and keeps the spans."""

    def __init__(self):
        self.spans: list[list] = []   # [name, start, end, parent index or -1]
        self.counters: Counter = Counter()
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        spans, stack, counters = self.spans, self._stack, self.counters
        module = name.split(".", 1)[0]
        clock = time.perf_counter

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                counters[f"{module}.errors"] += 1
                raise
            finally:
                span[2] = clock()
                stack.pop()
            _on_result(counters, name, result)
            return result

        return traced

    def __enter__(self) -> "Tracer":
        package = importlib.import_module("jetdiff")
        modules = {name: importlib.import_module(f"jetdiff.{name}") for name in MODULES}
        for name, (module, cls, attr) in TARGETS.items():
            owner = modules[module] if cls is None else getattr(modules[module], cls)
            original = getattr(owner, attr)
            wrapper = self._wrap(name, original)
            # the class slot of a method; every module attribute bound to a function
            owners = [owner] if cls is not None else [package, *modules.values()]
            bindings = [(m, key) for m in owners for key, value in vars(m).items()
                        if value is original]
            for target, key in bindings:
                self._restore.append((target, key, original))
                setattr(target, key, wrapper)
        return self

    def __exit__(self, *exc) -> None:
        for target, key, original in reversed(self._restore):
            setattr(target, key, original)
        self._restore.clear()

    def metrics(self, report_bytes: int, overhead_ratio: float) -> dict[str, float]:
        """Every per-layer metric of LAYER_METRICS, from the spans and counters."""
        spans = self.spans
        calls: Counter = Counter()
        child = [0.0] * len(spans)
        for name, start, end, parent in spans:
            calls[name] += 1
            if parent >= 0:
                child[parent] += end - start
        self_s: defaultdict = defaultdict(float)
        generic_audits = 0
        for index, (name, start, end, parent) in enumerate(spans):
            self_s[name] += end - start - child[index]
            if name == "genericity.audit" and parent >= 0 \
                    and spans[parent][0] == "sampling.generic_surface":
                generic_audits += 1
        values: dict[str, float] = dict(self.counters)
        for name in TARGETS:
            values[f"{name}.calls"] = calls[name]
            values[f"{name}.self_s"] = self_s[name]
        pairs = calls["genericity.pair_check"]
        values["genericity.pair_first_shear_ratio"] = (
            self.counters["genericity.pair_first_shear"] / pairs if pairs else 0.0)
        values["sampling.accept_ratio"] = (
            calls["sampling.generic_surface"] / generic_audits if generic_audits else 0.0)
        values["cli.report_bytes"] = report_bytes
        values["trace.overhead_ratio"] = overhead_ratio
        return {name: values.get(name, 0) for name, _ in LAYER_METRICS}

    def write_spans(self, path: str) -> None:
        """Write the spans as JSON: one [name, start, end, parent] list per span."""
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.spans, handle, separators=(",", ":"))
