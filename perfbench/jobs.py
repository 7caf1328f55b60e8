"""Workload definitions: seeded surface files and the jetdiff jobs run on them.

A job is one `jetdiff.cli.main(argv)` call.  Surface files are generated
here from the workload seed; jetdiff itself only receives the files, plus
`--seed` for `verify`, the one subcommand that samples its own surfaces.
Every monomial of R and S gets a nonzero coefficient in +-1..9, so the
`SurfacePair` validation (nonzero x^d and y^d terms) always holds.
"""

from __future__ import annotations

import os
import random

DEFAULT_SEED = 1

# name -> (surfaces as (d, e), job templates); "{0}", "{1}", ... name the
# generated surface files, "{seed}" the workload seed.  Each workload holds
# two job groups, because two long runs are steadier than four short ones
# on a noisy host (README.md).
WORKLOADS: dict[str, tuple[list[tuple[int, int]], list[list[str]]]] = {
    "audit": ([(5, 5), (5, 5)], [
        # the genericity audit alone: resultant and univariate gcd dominate
        ["audit", "--surface", "{0}"],
        ["audit", "--surface", "{1}"],
        # sampling with the audit gate, then the exact rank of A -> J
        ["verify", "--injectivity", "--d", "4", "--m", "2", "--surfaces", "2",
         "--seed", "{seed}"],
    ]),
    "solve": ([(10, 10), (6, 6), (5, 5), (4, 4)], [
        # --force skips the audit; assembly-bound (1155x60), then
        # elimination-bound (705x100); both have full column rank
        ["solve", "--surface", "{0}", "--m", "2", "--c", "10", "--a", "2", "--force"],
        ["solve", "--surface", "{1}", "--m", "2", "--c", "10", "--a", "3", "--force"],
        # nonzero kernels (dimension 30 and 10): build_section certifies
        # every basis vector; then the chart-transfer identities
        ["solve", "--surface", "{2}", "--m", "2", "--c", "2", "--a", "3", "--force"],
        ["solve", "--surface", "{3}", "--m", "2", "--c", "3", "--a", "3", "--force"],
        ["verify", "--transfer", "--trials", "5", "--seed", "{seed}"],
    ]),
}


def dense_polynomial_text(rng: random.Random, degree: int) -> str:
    """A polynomial with every monomial of total degree <= degree present."""
    terms = []
    for h in range(degree + 1):
        for i in range(degree + 1 - h):
            coeff = rng.randint(1, 9) * rng.choice((1, -1))
            terms.append(f"{coeff}*x^{h}*y^{i}")
    return " + ".join(terms).replace("+ -", "- ")


def surface_texts(workload: str, seed: int) -> list[str]:
    """The contents of the workload's surface files, a pure function of the seed."""
    rng = random.Random(f"{workload}:{seed}")
    return [f"R = {dense_polynomial_text(rng, d)}\nS = {dense_polynomial_text(rng, e)}\n"
            for d, e in WORKLOADS[workload][0]]


def write_inputs(workload: str, seed: int, directory: str) -> list[list[str]]:
    """Write the surface files into directory and return the jobs' argv lists."""
    paths = []
    for index, text in enumerate(surface_texts(workload, seed)):
        path = os.path.join(directory, f"surface{index}.txt")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
        paths.append(path)
    return [[arg.format(*paths, seed=seed) for arg in template]
            for template in WORKLOADS[workload][1]]
