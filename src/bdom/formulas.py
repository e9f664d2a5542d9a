"""Closed-form evaluators for the published invariant formulas.

Every function is exact integer arithmetic with explicit parity dispatch.
Parameter domains are enforced, never extrapolated: asking for a value the
source statement does not cover raises rather than guessing.  `evaluate`
dispatches from one table whose rows carry a citation tag, so reports can
say where a number came from; the exact solvers exist precisely to
cross-check these values, and the verification sweep treats any
disagreement as a hard mismatch.
"""

from __future__ import annotations

from .errors import CapabilityError, InputError
from .solvers import InvariantReport


def upper_gamma_c3_torus(n: int) -> int:
    """Claimed maximum minimal-dominating-set size of the 3-row torus."""
    if n < 3:
        raise InputError(f"torus column count must be >= 3, got {n}")
    return n


def upper_gamma_torus(m: int, n: int) -> int:
    """Claimed maximum minimal-dominating-set size of the m-by-n torus,
    dispatched on the parities of m and n."""
    if m < 3 or n < 3:
        raise InputError(f"torus dimensions must be >= 3, got {m}x{n}")
    if m % 2 == 0 and n % 2 == 0:
        return m * n // 2
    if m % 2 == 0:
        return m * (n - 1) // 2
    if n % 2 == 0:
        return (m - 1) * n // 2
    return (m - 1) * (n - 1) // 2 + 1


def upper_gamma_b_cycle(n: int) -> int:
    """Maximum minimal-broadcast cost of the n-cycle."""
    if n < 3:
        raise InputError(f"cycle length must be >= 3, got {n}")
    if n == 3:
        return 1
    return n - 2 if n % 2 == 0 else n - 3


def upper_gamma_b_torus(m: int, n: int) -> int:
    """Claimed maximum minimal-broadcast cost of the m-by-n torus (m <= n):
    m times the cycle value for the longer side."""
    if m < 3:
        raise InputError(f"torus dimensions must be >= 3, got {m}x{n}")
    if m > n:
        # stated only for m <= n; refusing beats assuming symmetry
        raise InputError(f"formula stated for m <= n, got {m} > {n}")
    return m * upper_gamma_b_cycle(n)


def gamma_torus_small(m: int, n: int) -> int:
    """Domination number of the m-by-n torus for m in {3, 4, 5}, n >= 4
    (Klavzar-Seifter values)."""
    if m not in (3, 4, 5):
        raise InputError(f"formula covers m in {{3,4,5}}, got m={m}")
    if n < 4:
        raise InputError(f"formula stated for n >= 4, got n={n}")
    if m == 3:
        return n - n // 4
    if m == 4:
        return n
    r = n % 5
    if r == 0:
        return n
    if r == 3:
        raise CapabilityError(
            f"only an upper bound is known for m=5, n=5k+3 (n={n})"
        )
    return n + 1


def gamma_b_torus_cited(m: int, n: int) -> int:
    """Broadcast domination number of the m-by-n torus (Koh-Soh):
    ceil((m+n)/2) - 1."""
    if m < 3 or n < 3:
        raise InputError(f"torus dimensions must be >= 3, got {m}x{n}")
    return (m + n + 1) // 2 - 1


def cycle_is_diametrical(n: int) -> bool:
    """Cycles are diametrical exactly for 3, 4, and 5 vertices."""
    if n < 3:
        raise InputError(f"cycle length must be >= 3, got {n}")
    return n in (3, 4, 5)


def torus_is_diametrical(m: int, n: int) -> bool:
    """No toroidal grid is diametrical."""
    if m < 3 or n < 3:
        raise InputError(f"torus dimensions must be >= 3, got {m}x{n}")
    return False


def grid_is_diametrical(m: int, n: int) -> bool:
    """Diametrical grids: nontrivial paths (m=1, n>=2) and the 2-by-2 grid.

    The published statement reads "m=1 or (m,n)=(2,2)"; the single vertex
    (1,1) is excluded here because a single vertex is non-diametrical, which
    the oracle cross-check enforces.
    """
    if not (1 <= m <= n):
        raise InputError(f"expected 1 <= m <= n, got {m}x{n}")
    return (m == 1 and n >= 2) or (m, n) == (2, 2)


# (family, invariant) -> (evaluator, citation tag, parameter domain).  An
# evaluator takes the family's parameters, as graphs.FAMILIES counts them: n
# for a cycle, (m, n) for a grid or torus; verdicts are reported as 0 or 1.
_FORMULAS = {
    ("cycle", "Gamma_b"): (upper_gamma_b_cycle, "upper-broadcast:cycle", "n >= 3"),
    ("cycle", "diametrical"): (cycle_is_diametrical, "diametrical:cycles-3-4-5", "n >= 3"),
    ("torus", "Gamma"): (upper_gamma_torus, "upper-domination:torus-parity-cases", "m, n >= 3"),
    ("torus", "Gamma_b"): (
        upper_gamma_b_torus, "upper-broadcast:torus-row-product", "3 <= m <= n"
    ),
    ("torus", "gamma"): (
        gamma_torus_small,
        "domination:torus-klavzar-seifter-1995",
        "m in {3,4,5}, n >= 4, m=5 excludes n=5k+3",
    ),
    ("torus", "gamma_b"): (gamma_b_torus_cited, "broadcast-domination:torus-koh-soh", "m, n >= 3"),
    ("torus", "diametrical"): (torus_is_diametrical, "diametrical:tori-never", "m, n >= 3"),
    ("grid", "diametrical"): (
        grid_is_diametrical, "diametrical:grids-paths-and-2x2", "1 <= m <= n"
    ),
}


def evaluate(family: str, invariant: str, m: int | None, n: int) -> InvariantReport:
    """Closed-form dispatch used by the CLI; raises InputError when no
    published formula covers the (family, invariant) pair."""
    if (family, invariant) not in _FORMULAS:
        raise InputError(
            f"no closed form for invariant {invariant!r} on family {family!r}"
        )
    fn, source, applicability = _FORMULAS[family, invariant]
    value = fn(n) if m is None else fn(m, n)
    return InvariantReport(invariant, int(value), "closed_form",
                           source=source, applicability=applicability)
