"""Workload inputs: suite orders for verify-*, command lists for cli-session.

The CLI command pools are fixed (built from POOL_SEED, never from the
benchmark seed), so every command a session can draw has an output hash
recorded in expected.json.  The benchmark seed only chooses which pool
entries a session draws and the order of suites and commands; the count of
each kind of command in a session is fixed, so every seed asks for the same
mix of light and heavy work.
"""

from __future__ import annotations

import random

# quadricops.suites.SUITE_ORDER at the commit that defined this benchmark
SUITE_ORDER = ["algebra-core", "weyl", "lie-orthogonal", "cone-ops",
               "shapovalov", "moment-orbit", "harmonic-kelvin", "cli"]
VERIFY = {
    "verify-k3": (3, SUITE_ORDER),
    # the three k=4 suites that do not read the degree cap; the full k=4
    # `verify all` is mostly Kelvin and too long to repeat
    "verify-k4": (4, ["cone-ops", "shapovalov", "moment-orbit"]),
}
WORKLOADS = [*VERIFY, "cli-session"]

POOL_SEED = 20260417

# order-5 operators at k=3 that normalize the cone ideal, so `reduce` walks
# every monomial up to degree 5 in is_ideal_preserving; the six cost about
# the same
HEAVY_REDUCE = [f"E^3*{g}{i}" for g in ("XX", "YY") for i in (1, 2, 3)]
HEAVY_FIXED = {
    "moment": ["moment", "verify", "--k", "3"],
    "harmonic": ["harmonic", "--d", "6", "--k", "3"],
    "shapovalov": ["shapovalov", "--d", "3", "--k", "3"],
}
MALFORMED = [
    ["reduce", "x1*(", "--k", "2"],
    ["reduce", "x9", "--k", "2"],
    ["reduce", "x1^^2", "--k", "3"],
    ["fourier-transform", "Delta", "--k", "2"],
    ["kelvin", "dx1 + x1", "--k", "2"],
    ["kelvin", "y1 +", "--k", "3"],
]

# commands of each kind in one session.  No recorded usage exists, so the
# mix is an assumption, not measured traffic: each light kind six times and
# each heavy kind twice, since nothing ranks one kind of a class above
# another, and four malformed expressions.  Light commands are then most of
# a session (36 of 48), heavy ones a fixed share (8) and malformed ones a
# few (4).
SESSION_MIX = {"reduce": 6, "fourier-transform": 6, "kelvin": 6, "bessel": 6,
               "boundary": 6, "counterexample-n2": 6, "malformed": 4,
               "moment": 2, "harmonic": 2, "shapovalov": 2, "reduce-heavy": 2}


def _term(rng, factors) -> str:
    coef = rng.choice([1, 1, 2, 3, 5])
    return "*".join(([str(coef)] if coef != 1 else []) + factors)


def _sum(rng, terms) -> str:
    out = terms[0]
    for t in terms[1:]:
        out += rng.choice([" + ", " - "]) + t
    return out


def _reduce_expr(rng, k) -> str:
    first = [f"x{rng.randint(1, k)}", f"y{rng.randint(1, k)}",
             f"dx{rng.randint(1, k)}", f"dy{rng.randint(1, k)}", "E"]
    second = [f"XX{rng.randint(1, k)}", f"YY{rng.randint(1, k)}", "Delta", "Q"]
    terms = []
    for _ in range(rng.randint(1, 3)):
        factors = [rng.choice(first)]
        if rng.random() < 0.6:
            factors.insert(rng.randint(0, 1), rng.choice(second))
        terms.append(_term(rng, factors))
    return _sum(rng, terms)


def _fourier_expr(rng, k) -> str:
    i, j = rng.sample(range(1, k + 1), 2)
    lo, hi = sorted((i, j))  # Bop and Cop take i < j
    letters = [f"x{i}", f"y{j}", f"XX{i}", f"YY{j}", "E", f"Dop{i}{j}",
               f"Bop{lo}{hi}", f"Cop{lo}{hi}"]
    terms = [_term(rng, rng.sample(letters, rng.randint(1, 2)))
             for _ in range(rng.randint(1, 2))]
    return _sum(rng, terms)


def _kelvin_expr(rng, k) -> str:
    names = [f"{v}{i}" for v in "xy" for i in range(1, k + 1)]
    terms = []
    for _ in range(rng.randint(1, 3)):
        terms.append(_term(rng, [rng.choice(names)
                                 for _ in range(rng.randint(1, 3))]))
    return _sum(rng, terms)


def _light_pool(kind: str, build, size: int) -> list:
    rng = random.Random(f"{POOL_SEED}-{kind}")
    pool, seen = [], set()
    while len(pool) < size:
        k = rng.choice([2, 3])
        argv = [kind, build(rng, k), "--k", str(k)]
        if argv[1] not in seen:
            seen.add(argv[1])
            pool.append(argv)
    return pool


def pools() -> dict:
    """Every command a session can draw, by kind; the expected exit code of
    each kind is 0 except for `malformed`, which expects 2."""
    return {
        "reduce": _light_pool("reduce", _reduce_expr, 24),
        "fourier-transform": _light_pool("fourier-transform", _fourier_expr,
                                         16),
        "kelvin": _light_pool("kelvin", _kelvin_expr, 16),
        "bessel": [["bessel", "--k", str(k), "--order", str(m)]
                   for k in (2, 3) for m in (6, 8, 10, 12)],
        "boundary": [["boundary", "--k", "2"], ["boundary", "--k", "3"]],
        "counterexample-n2": [["counterexample-n2"]],
        "malformed": MALFORMED,
        **{name: [argv] for name, argv in HEAVY_FIXED.items()},
        "reduce-heavy": [["reduce", e, "--k", "3"] for e in HEAVY_REDUCE],
    }


def expected_exit(kind: str) -> int:
    return 2 if kind == "malformed" else 0


def with_format(argv: list) -> list:
    return [*argv, "--format", "json"]


def session(seed: int) -> list:
    """The seeded command list of one cli-session: (kind, argv) pairs."""
    rng = random.Random(seed)
    all_pools = pools()
    out = []
    for kind, count in SESSION_MIX.items():
        pool = all_pools[kind]
        picks = (rng.sample(pool, count) if count <= len(pool)
                 else [rng.choice(pool) for _ in range(count)])
        out.extend((kind, with_format(argv)) for argv in picks)
    rng.shuffle(out)
    return out


def suite_order(workload: str, seed: int) -> list:
    order = list(VERIFY[workload][1])
    random.Random(seed).shuffle(order)
    return order
