"""Reference answers for the benchmark's correctness checks.

Nothing here imports heckebasis. Every function recomputes an expected
answer by a route that does not go through the code under test: product
formulas instead of group enumeration, generating functions instead of
enumeration, formulas for counts instead of sweeps.

Polynomials are plain dicts {exponent: int coefficient} with no zero
coefficients, so equality is dict equality.
"""

from __future__ import annotations

# ----- Laurent polynomials as dicts -------------------------------------------


def poly_mul(p: dict, q: dict) -> dict:
    out: dict = {}
    for e1, c1 in p.items():
        for e2, c2 in q.items():
            out[e1 + e2] = out.get(e1 + e2, 0) + c1 * c2
    return {k: c for k, c in out.items() if c}


def poly_add(p: dict, q: dict) -> dict:
    out = dict(p)
    for k, c in q.items():
        out[k] = out.get(k, 0) + c
    return {k: c for k, c in out.items() if c}


def poly_invert(p: dict) -> dict:
    """p(u^-1)."""
    return {-k: c for k, c in p.items()}


def poly_product(factors) -> dict:
    out = {0: 1}
    for f in factors:
        out = poly_mul(out, f)
    return out


def q_integer(d: int, step: int = 1) -> dict:
    """[d] in the variable u^step: 1 + u^step + ... + u^(step (d-1))."""
    return {step * i: 1 for i in range(d)}


# ----- Poincare polynomials sum_w u^L(w) from product formulas ----------------

H3_DEGREES = (2, 6, 10)
H4_DEGREES = (2, 12, 20, 30)


def poincare_degrees(degrees, weight: int = 1) -> dict:
    """prod [d]_{u^weight} over the degrees, for equal weights."""
    return poly_product(q_integer(d, weight) for d in degrees)


def poincare_a(n: int) -> dict:
    """Type A_n with all weights 1: degrees 2, ..., n + 1."""
    return poincare_degrees(range(2, n + 2))


def poincare_b(n: int, b: int, a: int) -> dict:
    """Type B_n with weights (b, a, ..., a), generator 1 carrying b:
    prod over i < n of [i+1]_{u^a} (1 + u^(b + i a))."""
    return poly_product(
        poly_mul(q_integer(i + 1, a), {0: 1, b + i * a: 1}) for i in range(n)
    )


def poincare_g2_31() -> dict:
    """G2 with weights (3, 1): (1 + u^3)(1 + u)(1 + u^4 + u^8)."""
    return poly_product([{0: 1, 3: 1}, {0: 1, 1: 1}, {0: 1, 4: 1, 8: 1}])


# The (a, f) pairs of the six G2 (3, 1) representations, as pinned in the
# package specification.
G2_PINNED_AF = {
    "ind": (0, 1),
    "eps1": (1, 1),
    "rho+": (3, 2),
    "rho-": (3, 2),
    "eps2": (7, 1),
    "eps": (12, 1),
}

# canonical basic set of the G2 (3, 1) decomposition table at e = 6
G2_BASIC_SET_E6 = ["eps1", "ind", "rho+"]


# ----- partitions -------------------------------------------------------------


def partitions(n: int) -> list[tuple[int, ...]]:
    """All partitions of n, parts weakly decreasing, by an iterative
    successor rule (order: (n) first)."""
    if n == 0:
        return [()]
    out = []
    p = [n]
    while True:
        out.append(tuple(p))
        # strip trailing 1s, decrement the last part > 1, refill greedily
        ones = 0
        while p and p[-1] == 1:
            p.pop()
            ones += 1
        if not p:
            return out
        p[-1] -= 1
        rest = ones + 1
        part = p[-1]
        while rest:
            take = min(part, rest)
            p.append(take)
            rest -= take


def _series_mul(a: list, b: list, n: int) -> list:
    out = [0] * (n + 1)
    for i, x in enumerate(a[: n + 1]):
        if x:
            for j, y in enumerate(b[: n + 1 - i]):
                out[i + j] += x * y
    return out


def regular_partition_series(n: int, e: int | None = None) -> list[int]:
    """Coefficients up to x^n of prod_k 1/(1 - x^k), or with e given of
    prod_k (1 - x^(ek)) / (1 - x^k), the e-regular partitions."""
    series = [1] + [0] * n
    for k in range(1, n + 1):
        for i in range(k, n + 1):
            series[i] += series[i - k]
    if e is not None:
        for k in range(1, n // e + 1):
            step = e * k
            for i in range(n, step - 1, -1):
                series[i] -= series[i - step]
    return series


def partition_count(n: int, e: int | None = None) -> int:
    return regular_partition_series(n, e)[n]


def bipartition_count(m: int, e: int | None = None) -> int:
    """Bipartitions of m (both components e-regular when e is given):
    the x^m coefficient of the square of the partition series."""
    series = regular_partition_series(m, e)
    return _series_mul(series, series, m)[m]


def n_invariant(p) -> int:
    return sum(i * part for i, part in enumerate(p))


def dominated(p, q) -> bool:
    """p is dominated by q: each partial sum of p is at most that of q."""
    sp = sq = 0
    for i in range(max(len(p), len(q))):
        sp += p[i] if i < len(p) else 0
        sq += q[i] if i < len(q) else 0
        if sp > sq:
            return False
    return True


def render_partition(p) -> str:
    return ",".join(str(x) for x in p)


def two_core(p) -> tuple[int, ...]:
    """Remove dominoes until none is left: on beta-numbers a domino
    removal moves one bead from b to a free position b - 2."""
    beads = len(p)
    betas = {part + beads - 1 - i for i, part in enumerate(p)}
    moved = True
    while moved:
        moved = False
        for b in sorted(betas):
            if b >= 2 and b - 2 not in betas:
                betas.remove(b)
                betas.add(b - 2)
                moved = True
                break
    ordered = sorted(betas, reverse=True)
    parts = [b - (beads - 1 - i) for i, b in enumerate(ordered)]
    return tuple(x for x in parts if x > 0)


# ----- residue arithmetic -----------------------------------------------------


def primes_upto(n: int) -> list[int]:
    sieve = bytearray([1]) * (n + 1)
    sieve[: min(2, n + 1)] = b"\x00" * min(2, n + 1)
    for i in range(2, int(n**0.5) + 1):
        if sieve[i]:
            sieve[i * i :: i] = bytearray(len(sieve[i * i :: i]))
    return [i for i in range(n + 1) if sieve[i]]


def e_value(q: int, ell: int) -> int:
    """The bound e: ell when q = 1 mod ell, else the multiplicative order
    of q mod ell."""
    r = q % ell
    if r == 1:
        return ell
    order, x = 1, r
    while x != 1:
        x = x * r % ell
        order += 1
    return order


def sweep_count(ell_max: int, q_max: int) -> int:
    """Number of tuples (q, a, b, ell) that sweep_a_sets checks with its
    default a in {1, 2} and b in {0, 1, 2, 3}: ell prime, q in [2, q_max],
    q not 0 or 1 mod ell, and q^a not 1 mod ell, which for a = 2 also
    rules out q = -1 mod ell."""
    total = 0
    for ell in primes_upto(ell_max):
        for q in range(2, q_max + 1):
            r = q % ell
            if r in (0, 1):
                continue
            total += 4  # a = 1
            if r != ell - 1:
                total += 4  # a = 2
    return total


# ----- integer matrices -------------------------------------------------------


def mat_mul(a, b) -> list[list[int]]:
    inner = len(b)
    cols = len(b[0]) if b else 0
    return [
        [sum(row[k] * b[k][j] for k in range(inner)) for j in range(cols)]
        for row in a
    ]
