import hashlib
import json
import random
from fractions import Fraction

import pytest

from jetdiff import divisibility
from jetdiff.counting import dof, unpruned_row_bound
from jetdiff.divisibility import (
    AssemblyError,
    SectionCertificate,
    SectionContexts,
    assemble_divisibility_system,
    build_section,
    kernel_basis,
    kernel_to_json,
    solution_dimension,
    unknown_labels,
    vector_to_field,
)
from jetdiff.jetbuilder import (
    JET_VARS,
    XY,
    CoefficientField,
    JetContext,
    JetSpec,
    LambdaTerms,
    SurfacePair,
    expand_lambda,
    unit_field,
)
from jetdiff.injectivity import injectivity_matrix
from jetdiff.linalg import rank
from jetdiff.polyring import ExactPoly, monomial_quotient
from jetdiff.sampling import random_surface_pair


FRACTIONAL_SURFACE = SurfacePair.parse("1/2*x^2 - 3/7*x*y + y^2 + 1/3",
                                       "2/5*x^3 + x*y^2 - 1/9*y^3 + x - 5/4")

# the dense d = e = 3 pair drawn from random.Random(7), R first, by the
# benchmark's generator; at (m, c, a) = (1, 7, 3) its kernel has dimension 2
# and the sections are holomorphic at infinity
DENSE_CUBIC_SURFACE = SurfacePair.parse(
    "6 + 7*y + 2*y^2 + 6*y^3 + 9*x + x*y - 7*x*y^2 + 2*x^2 - 2*x^2*y + x^3",
    "4 + 7*y + 4*y^2 + 9*y^3 - 5*x + 3*x*y + 5*x*y^2 + 2*x^2 + 6*x^2*y + 9*x^3")


def surface(seed=20, d=3, e=3):
    return random_surface_pair(random.Random(seed), d, e)


class TestAssembly:
    def test_c_zero_has_no_rows(self):
        surf = surface()
        spec = JetSpec(m=1, c=0, a=1)
        system = assemble_divisibility_system(surf, spec)
        assert system.shape == (0, 12)
        assert len(kernel_basis(system)) == dof(1, 1) == 12

    def test_desk_scale_counts(self):
        surf = surface(seed=5, d=5, e=5)
        spec = JetSpec(m=1, c=5, a=1)
        system = assemble_divisibility_system(surf, spec)
        assert len(system.columns) == 12
        bound = unpruned_row_bound(surf.d, surf.e, spec.m, spec.a, spec.c)
        assert bound == (1 + 1) * 5 * (1 + 5 + 5 + 1)
        assert len(system.rows) <= bound

    def test_column_faithfulness(self):
        # oracle: the expansion route, one unit field per column, on every column
        cases = [(surface(seed=9), JetSpec(m=1, c=2, a=1)),
                 (surface(seed=9), JetSpec(m=2, c=3, a=1)),
                 (FRACTIONAL_SURFACE, JetSpec(m=2, c=2, a=2))]
        for surf, spec in cases:
            system = assemble_divisibility_system(surf, spec)
            actual = [{} for _ in system.columns]
            for label, row in zip(system.rows, system.row_entries):
                for ci, value in row.items():
                    actual[ci][label] = value
            for ci, (j, k, p, q, h, i) in enumerate(system.columns):
                expansion = expand_lambda(unit_field(spec.m, (j, k, p, q), h, i), surf, spec)
                expected = {(mh, mi, alpha, beta): coeff
                            for (alpha, beta), poly in expansion.entries.items()
                            for (mh, mi), coeff in poly.terms.items() if mi < spec.c}
                assert actual[ci] == expected

    def test_rows_are_the_low_y_rows_of_the_jet_matrix(self, monkeypatch):
        # D is M = injectivity_matrix cut below y^c: its rows are the rows of
        # M with i' < c, in M's order and on the same columns, each equal to
        # M's row under the same label; the assembly never expands
        def no_expansion(*args, **kwargs):
            raise AssertionError("assembly reached expand_lambda")
        monkeypatch.setattr(divisibility, "expand_lambda", no_expansion)
        integral = surface(seed=31, d=3, e=4)
        for surf, m, a in ((integral, 1, 1), (integral, 2, 1), (integral, 1, 3),
                           (FRACTIONAL_SURFACE, 2, 2)):
            matrix = injectivity_matrix(surf, m, a, enforce_cap=False)
            rows = dict(zip(matrix.rows, matrix.row_entries))
            top = max(label[1] for label in matrix.rows)
            for c in (0, top // 2, top + 1):
                system = assemble_divisibility_system(surf, JetSpec(m=m, c=c, a=a))
                assert system.columns == matrix.columns
                assert system.rows == tuple(label for label in matrix.rows if label[1] < c)
                assert all(row == rows[label]
                           for label, row in zip(system.rows, system.row_entries))
            assert system.rows == matrix.rows  # c = top + 1 keeps every row

    def test_row_order_is_canonical(self):
        surf = surface(seed=11)
        system = assemble_divisibility_system(surf, JetSpec(m=1, c=2, a=1))
        keys = [(sum(r), r) for r in system.rows]
        assert keys == sorted(set(keys))  # graded-lex in (x, y, x', y'), no repeats


class TestKernel:
    def test_kernel_vectors_annihilate_and_divide(self):
        surf = surface(seed=13)
        spec = JetSpec(m=1, c=1, a=2)
        system = assemble_divisibility_system(surf, spec)
        basis = kernel_basis(system)
        assert len(basis) == len(system.columns) - rank(list(system.row_entries),
                                                        len(system.columns))
        assert basis, "expected a nontrivial kernel at this configuration"
        for vector in basis:
            assert all(v == 0 for v in system.matvec(vector))
            # independent re-check through the expansion route
            field = vector_to_field(spec, vector)
            expansion = expand_lambda(field, surf, spec)
            for poly in expansion.entries.values():
                _, exact = monomial_quotient(poly, "y", spec.c)
                assert exact

    def test_full_rank_system_has_empty_kernel(self):
        surf = surface(seed=5, d=5, e=5)
        system = assemble_divisibility_system(surf, JetSpec(m=1, c=5, a=1))
        ncols = len(system.columns)
        assert kernel_basis(system) == []
        assert rank(list(system.row_entries), ncols) == ncols

    def test_rank_stable_under_shuffle(self):
        surf = surface(seed=17)
        spec = JetSpec(m=1, c=2, a=1)
        system = assemble_divisibility_system(surf, spec)
        rows = [dict(r) for r in system.row_entries]
        ncols = len(system.columns)
        base = rank(rows, ncols)
        rng = random.Random(3)
        shuffled = rows[:]
        rng.shuffle(shuffled)
        assert rank(shuffled, ncols) == base
        perm = list(range(ncols))
        rng.shuffle(perm)
        permuted = [{perm[j]: v for j, v in row.items()} for row in rows]
        assert rank(permuted, ncols) == base

    def test_dimension_monotone_in_c(self):
        surf = surface(seed=23)
        previous = None
        for c in range(0, 5):
            dim = solution_dimension(surf, JetSpec(m=1, c=c, a=1))
            if previous is not None:
                assert dim <= previous
            previous = dim

    def test_dimension_rank_bound(self):
        surf = surface(seed=29)
        spec = JetSpec(m=1, c=2, a=1)
        system = assemble_divisibility_system(surf, spec)
        dim = solution_dimension(surf, spec)
        assert dim >= len(system.columns) - len(system.rows)


class TestSectionCertificate:
    def test_zero_vector_trivial_certificate(self):
        surf = surface(seed=37, d=5, e=5)
        spec = JetSpec(m=1, c=5, a=1)  # margin 0: infinity checks apply
        vector = [Fraction(0)] * len(unknown_labels(spec))
        cert = build_section(surf, spec, vector)
        assert cert.jet.is_zero() and cert.jet_reduced.is_zero()
        assert all(cert.checks.values())

    def test_c_zero_reduced_equals_jet(self):
        surf = surface(seed=41)
        spec = JetSpec(m=1, c=0, a=1)
        system = assemble_divisibility_system(surf, spec)
        vector = kernel_basis(system)[0]
        cert = build_section(surf, spec, vector)
        assert cert.jet_reduced == cert.jet

    def test_nontrivial_kernel_certificates(self):
        surf = surface(seed=43)
        spec = JetSpec(m=1, c=1, a=2)
        system = assemble_divisibility_system(surf, spec)
        basis = kernel_basis(system)
        assert basis
        for vector in basis[:3]:
            cert = build_section(surf, spec, vector)
            assert cert.checks["y_divisible"]
            assert cert.checks["surface_restriction_exact"]
            _, exact = monomial_quotient(cert.jet, "y", spec.c)
            assert exact
            assert cert.jet_reduced * ExactPoly.variable(cert.jet.vars, "y") ** spec.c == cert.jet

    def test_non_kernel_vector_raises(self):
        surf = surface(seed=47, d=5, e=5)
        spec = JetSpec(m=1, c=5, a=1)
        vector = [Fraction(0)] * len(unknown_labels(spec))
        vector[0] = Fraction(1)  # a generic non-solution
        with pytest.raises(AssemblyError):
            build_section(surf, spec, vector)

    def test_certificate_constructor_refuses_undivisible(self):
        surf = surface(seed=53)
        with pytest.raises(AssemblyError):
            SectionCertificate(field=CoefficientField(1), jet=ExactPoly.zero(XY),
                               jet_reduced=ExactPoly.zero(XY),
                               checks={"y_divisible": False})


# (surface, spec, kernel dimension): a d = e = 5 surface with a 30-vector
# kernel, the fractional pair, and a point holomorphic at infinity
SHARED_CONTEXT_CASES = [
    (surface(seed=5, d=5, e=5), JetSpec(m=2, c=2, a=3), 30),
    (FRACTIONAL_SURFACE, JetSpec(m=2, c=2, a=2), 16),
    (DENSE_CUBIC_SURFACE, JetSpec(m=1, c=7, a=3), 2),
]


class TestSharedContexts:
    @pytest.mark.parametrize("surf,spec,dimension", SHARED_CONTEXT_CASES)
    def test_shared_contexts_change_no_certificate(self, surf, spec, dimension):
        basis = kernel_basis(assemble_divisibility_system(surf, spec))
        assert len(basis) == dimension
        contexts = SectionContexts(surf, spec)
        shared = [build_section(surf, spec, v, contexts).to_json_dict() for v in basis]
        fresh = [build_section(surf, spec, v).to_json_dict() for v in basis]
        assert shared == fresh
        if spec.holomorphic_at_infinity:
            assert all(all(cert["checks"].values()) for cert in shared)

    @pytest.mark.parametrize("surf,spec,dimension",
                             [SHARED_CONTEXT_CASES[0], SHARED_CONTEXT_CASES[2]])
    def test_each_route_forms_its_products_once(self, monkeypatch, surf, spec, dimension):
        # spy on the memo misses: certifying a whole basis forms each route's
        # U_p V_q once per (p, q) and each expansion term once per index tuple
        basis = kernel_basis(assemble_divisibility_system(surf, spec))
        formed = []

        def spy(form):
            def spied(owner, *key):
                formed.append((owner, key))
                return form(owner, *key)
            return spied

        monkeypatch.setattr(JetContext, "_form_base", spy(JetContext._form_base))
        monkeypatch.setattr(LambdaTerms, "_form_term", spy(LambdaTerms._form_term))
        contexts = SectionContexts(surf, spec)
        for vector in basis:
            build_section(surf, spec, vector, contexts)
        routes = {contexts.jet, contexts.terms, contexts.surface, *contexts.charts.values()}
        assert len(routes) == (5 if spec.holomorphic_at_infinity else 3)
        assert {owner for owner, _ in formed} == routes
        assert len(set(formed)) == len(formed)


class TestOneRealisationOfJ:
    def test_each_vector_realises_its_jet_once(self, monkeypatch):
        # the chart transfers reuse build_section's J: every realisation in
        # the jet variables, in any context, is one call of contexts.jet per
        # vector; the certificates are pinned by the digest of their JSON
        # from before that reuse
        surf, spec = DENSE_CUBIC_SURFACE, JetSpec(m=1, c=7, a=3)
        basis = kernel_basis(assemble_divisibility_system(surf, spec))
        contexts = SectionContexts(surf, spec)
        realized = []
        realize = JetContext.realize

        def spy(owner, *args):
            if owner.target == JET_VARS:
                realized.append(owner)
            return realize(owner, *args)

        monkeypatch.setattr(JetContext, "realize", spy)
        certificates = [build_section(surf, spec, v, contexts).to_json_dict() for v in basis]
        assert len(basis) == 2 and realized == [contexts.jet] * len(basis)
        assert all(all(cert["checks"].values()) for cert in certificates)
        text = json.dumps(certificates, sort_keys=True)
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "e5d07af1397288ec6b03da0a759079ee4d4b07e6dfc1faa348c558a37817fabc")


class TestExports:
    def test_triplet_round_trip(self):
        surf = surface(seed=59)
        for system in (assemble_divisibility_system(surf, JetSpec(m=1, c=1, a=0)),
                       injectivity_matrix(surf, 1, 1)):
            text = system.to_triplet_text()
            lines = text.strip().splitlines()
            nrows, ncols = map(int, lines[0].split())
            assert (nrows, ncols) == system.shape
            rebuilt = [dict() for _ in range(nrows)]
            for line in lines[1:]:
                r, c, value = line.split()
                num, den = value.split("/")
                rebuilt[int(r)][int(c)] = Fraction(int(num), int(den))
            assert rebuilt == [dict(r) for r in system.row_entries]

    def test_triplet_text_digest(self):
        # pins the graded-lex row order and every value of one small assembled system
        surf = random_surface_pair(random.Random(5), 3, 3)
        system = assemble_divisibility_system(surf, JetSpec(m=1, c=2, a=1))
        assert system.shape == (30, 12)
        digest = hashlib.sha256(system.to_triplet_text().encode()).hexdigest()
        assert digest == "174a418eef20e9e51180b4ced87900f4868eb2e454592277e0709187bb4891ba"

    def test_kernel_json_labels(self):
        surf = surface(seed=61)
        spec = JetSpec(m=1, c=0, a=0)
        system = assemble_divisibility_system(surf, spec)
        basis = kernel_basis(system)
        out = kernel_to_json(system, basis)
        assert len(out) == len(basis)
        for entry in out:
            for key, value in entry.items():
                parts = [int(v) for v in key.split(",")]
                assert len(parts) == 6 and sum(parts[:4]) == spec.m
                Fraction(value)  # parses

    def test_vector_to_field_round_trip(self):
        spec = JetSpec(m=2, c=1, a=1)
        labels = unknown_labels(spec)
        rng = random.Random(2)
        vector = [Fraction(rng.randint(-3, 3)) for _ in labels]
        field = vector_to_field(spec, vector)
        for (j, k, p, q, h, i), value in zip(labels, vector):
            assert field.entries[(j, k, p, q)].coefficient((h, i)) == value
