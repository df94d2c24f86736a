"""Exact arithmetic for the minimum-degree Hamiltonicity threshold.

Everything in this module is integer or rational arithmetic on plain Python
ints and :class:`fractions.Fraction`; no floating point enters any formula.
The central quantity is

    D(n, k) = ceil(n/2) + floor((n + 2) / (2 * ceil((k + 1) / 2))) - n/k,

the sharp minimum degree that forces a Hamiltonian cycle in a balanced
k-partite graph on n vertices, except in two regimes (k = 2 with 4 | n, and
k = n/2 with 4 | n) where one extra unit of degree is required.  The module
also evaluates the older strict rational bound that D refines, classifies
which rounding of that bound D realises, and scans a battery of supporting
floor/ceiling inequalities over exact arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

CEIL_CASE = "ceil"
FLOOR_CASE = "floor"


def _ceil_div(a: int, b: int) -> int:
    return -(-a // b)


def _half_period(k: int) -> int:
    """2 * ceil((k+1)/2): equals k+2 for even k and k+1 for odd k."""
    return 2 * _ceil_div(k + 1, 2)


def _validate_range(k_max: int, m_max: int) -> None:
    if k_max < 2:
        raise ValueError(f"k_max must be at least 2, got {k_max}")
    if m_max < 1:
        raise ValueError(f"m_max must be at least 1, got {m_max}")


def _validate_pair(n: int, k: int, *, min_n: int = 3) -> None:
    if k < 2:
        raise ValueError(f"k must be at least 2, got k={k}")
    if n < min_n:
        raise ValueError(f"n must be at least {min_n}, got n={n}")
    if k > n:
        raise ValueError(f"k must not exceed n, got n={n} k={k}")
    if n % k != 0:
        raise ValueError(f"k must divide n, got n={n} k={k}")


def theorem_threshold(n: int, k: int) -> int:
    """Sharp minimum-degree threshold D(n, k), in exact integer arithmetic.

    For even k the value equals n/2 + floor((n+2)/(k+2)) - n/k; for odd k it
    equals ceil(n/2) + floor((n+2)/(k+1)) - n/k.
    """
    _validate_pair(n, k)
    return _ceil_div(n, 2) + (n + 2) // _half_period(k) - n // k


def cfgjl_bound(n: int, k: int) -> Fraction:
    """The strict rational degree bound n/2 + n/(2*ceil((k+1)/2)) - n/k."""
    _validate_pair(n, k)
    return Fraction(n, 2) + Fraction(n, _half_period(k)) - Fraction(n, k)


def is_exception(n: int, k: int) -> bool:
    """True in the two regimes where degree D(n, k) does not yet force a cycle."""
    _validate_pair(n, k, min_n=2)
    return n % 4 == 0 and (k == 2 or 2 * k == n)


def required_degree(n: int, k: int) -> int:
    """Minimum degree that always forces a Hamiltonian cycle: D plus the
    exception increment."""
    return theorem_threshold(n, k) + (1 if is_exception(n, k) else 0)


@dataclass(frozen=True)
class ThresholdProfile:
    """All degree bounds and exception flags for one admissible pair (n, k)."""

    n: int
    k: int
    m: int
    theorem_threshold: int
    cfgjl_bound: Fraction
    is_exception: bool
    required_degree: int

    @classmethod
    def compute(cls, n: int, k: int) -> "ThresholdProfile":
        _validate_pair(n, k)
        return cls(
            n=n,
            k=k,
            m=n // k,
            theorem_threshold=theorem_threshold(n, k),
            cfgjl_bound=cfgjl_bound(n, k),
            is_exception=is_exception(n, k),
            required_degree=required_degree(n, k),
        )


def classify_rounding(n: int, k: int) -> str:
    """Which rounding of the rational bound the integer threshold realises.

    Returns FLOOR_CASE when D(n, k) equals the floor of the rational bound
    (this includes the ties where the bound is an integer) and CEIL_CASE when
    D equals the ceiling strictly.  D never falls outside these two values.
    """
    d = theorem_threshold(n, k)
    b = cfgjl_bound(n, k)
    floor_b = b.numerator // b.denominator
    if d == floor_b:
        return FLOOR_CASE
    if d == _ceil_div(b.numerator, b.denominator):
        return CEIL_CASE
    raise ArithmeticError(
        f"threshold {d} is neither rounding of the rational bound {b} at (n={n}, k={k})"
    )


def classify_rounding_by_congruence(n: int, k: int) -> str:
    """Independent route to :func:`classify_rounding` via residues of n.

    The strict-ceiling pairs are characterised by congruences alone: for even
    k the ceiling case is n = k (mod k+2); for odd k and even n it is
    n = k-1 (mod k+1); for odd k and odd n it is n = j (mod k+1) with j in
    {k} or j an odd residue at most (k+1)/2.  Integer values of the rational
    bound are ties and land in the floor case by convention.
    """
    _validate_pair(n, k)
    if cfgjl_bound(n, k).denominator == 1:
        return FLOOR_CASE
    if k % 2 == 0:
        return CEIL_CASE if n % (k + 2) == k else FLOOR_CASE
    if n % 2 == 0:
        return CEIL_CASE if n % (k + 1) == k - 1 else FLOOR_CASE
    j = n % (k + 1)
    if j == k or (j % 2 == 1 and j <= (k + 1) // 2):
        return CEIL_CASE
    return FLOOR_CASE


def check_eq4_identity(n: int, k: int) -> bool:
    """floor((n+2) / (2*ceil((k+1)/2))) == floor(ceil((n+1)/2) / ceil((k+1)/2)).

    This identity holds for every admissible pair; the function exists so the
    harness can confirm it exhaustively rather than take it on faith.
    """
    if k < 2:
        raise ValueError(f"k must be at least 2, got k={k}")
    if n < k or n % k != 0:
        raise ValueError(f"k must divide n with n >= k, got n={n} k={k}")
    lhs = (n + 2) // _half_period(k)
    rhs = _ceil_div(n + 1, 2) // _ceil_div(k + 1, 2)
    return lhs == rhs


def check_domcycle_threshold(n: int, k: int) -> bool:
    """True iff D(n, k) >= (n+2)/3, compared as exact rationals.

    Over the admissible range (k | n, 3 <= k <= n/2) this holds for every
    pair except (n, k) = (8, 4).
    """
    _validate_pair(n, k)
    if k < 3 or 2 * k > n:
        raise ValueError(f"requires 3 <= k <= n/2, got n={n} k={k}")
    return 3 * theorem_threshold(n, k) >= n + 2


@dataclass
class FactReport:
    """Outcome of an exhaustive scan of the supporting numeric facts."""

    k_max: int
    m_max: int
    checked: dict[str, int] = field(default_factory=dict)
    violations: list[tuple[str, int | None, int]] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations


def check_appendix_facts(k_max: int, m_max: int) -> FactReport:
    """Evaluate every supporting floor/ceiling fact over k <= k_max, m <= m_max.

    Each fact is evaluated in exact arithmetic wherever its hypotheses hold;
    any violation is recorded with its (n, k).  Facts that depend on k alone
    are recorded with n = None.
    """
    _validate_range(k_max, m_max)
    report = FactReport(k_max=k_max, m_max=m_max)

    def note(name: str, holds: bool, n: int | None, k: int) -> None:
        report.checked[name] = report.checked.get(name, 0) + 1
        if not holds:
            report.violations.append((name, n, k))

    for k in range(2, k_max + 1):
        # Identities behind the "n large enough" steps of the long-cycle
        # degree comparison; these depend on k only.
        if k % 2 == 1 and k >= 3:
            den = k * k + k - 6
            lhs = 10 - Fraction(24 * k - 60, den)
            rhs = Fraction(2 * k * (5 * k - 7), den)
            note("cycle_bound_odd_identity", lhs == rhs and rhs <= 10, None, k)
        if k % 2 == 0 and k >= 4:
            den = k * k + 2 * k - 12
            lhs = 12 - Fraction(2 * (k + 18) * (k - 4), den)
            rhs = Fraction(2 * k * (5 * k - 2), den)
            note("cycle_bound_even_identity", lhs == rhs and rhs <= 12, None, k)

        for m in range(1, m_max + 1):
            n = m * k

            # Odd-k lower bounds: the floored threshold dominates the
            # parity-specific rational estimate, which dominates the uniform one.
            if k % 2 == 1 and k >= 3:
                lhs_i = _ceil_div(n, 2) + (n + 2) // (k + 1) - m
                uniform = Fraction(n, 2) + Fraction(n, k + 1) - m - Fraction(k - 3, k + 1)
                if n % 2 == 1:
                    mid = (
                        Fraction(n, 2) + Fraction(n, k + 1) - m
                        + Fraction(1, 2) - Fraction(k - 2, k + 1)
                    )
                else:
                    mid = uniform
                note("odd_floor_bound", lhs_i >= mid, n, k)
                note("odd_uniform_bound", mid >= uniform, n, k)

            # Floor-vs-closed-form bounds used throughout the degree counting.
            if k % 2 == 0:
                mid1 = 2 * Fraction(n + 2 - k, k + 2) - m
                note("double_floor_even_identity", mid1 == Fraction((m - 2) * (k - 2), k + 2), n, k)
                note("double_floor_even_bound", 2 * ((n + 2) // (k + 2)) - m >= mid1, n, k)
                mid2 = 3 * Fraction(n + 2 - k, k + 2) - 2 * m
                note("triple_floor_even_identity", mid2 == Fraction((m - 3) * (k - 4) - 6, k + 2), n, k)
                note("triple_floor_even_bound", 3 * ((n + 2) // (k + 2)) - 2 * m >= mid2, n, k)
            if k % 2 == 1 and n % 2 == 0:
                mid3 = 2 * Fraction(n + 2 - (k - 1), k + 1) - m
                note("double_floor_odd_identity", mid3 == Fraction((m - 2) * (k - 1) + 4, k + 1), n, k)
                note("double_floor_odd_bound", 2 * ((n + 2) // (k + 1)) - m >= mid3, n, k)
                mid4 = 3 * Fraction(n + 2 - (k - 1), k + 1) - 2 * m
                note("triple_floor_odd_identity", mid4 == Fraction((m - 3) * (k - 2) + 3, k + 1), n, k)
                note("triple_floor_odd_bound", 3 * ((n + 2) // (k + 1)) - 2 * m >= mid4, n, k)

            # Strict and weak comparisons of the threshold against degree sums.
            if k >= 3:
                d = theorem_threshold(n, k)
                if k % 2 == 0 and n >= 3 * k:
                    note("threshold_pair_even", 2 * d > n - m, n, k)
                if k % 2 == 1 and n >= 2 * k:
                    note("threshold_pair_odd", 2 * d > n - m, n, k)
                if n >= 2 * k:
                    note("threshold_triple", 3 * d >= 2 * n - m - (n - 1) // 2 - 2, n, k)

                # Positivity of the successor-set slack: the quantity
                # ceil(n/2) + floor((n+2)/(2*ceil((k+1)/2))) + 1 - m*ceil(k/2)
                # stays positive, so a set of size D+1 must meet ceil(k/2) parts.
                if n >= 2 * k:
                    slack = (
                        _ceil_div(n, 2) + (n + 2) // _half_period(k) + 1
                        - m * _ceil_div(k, 2)
                    )
                    note("part_count_positive", slack > 0, n, k)
                    note(
                        "part_count_identity",
                        slack == d + 1 - (_ceil_div(k, 2) - 1) * m,
                        n,
                        k,
                    )
                    if k % 2 == 0:
                        note("part_count_even_form", slack == (n + 2) // (k + 2) + 1, n, k)
                    else:
                        lower = Fraction((k - 1) * n, 2 * k * (k + 1)) + Fraction(4, k + 1)
                        note("part_count_odd_lower", slack >= lower and lower > 0, n, k)

            # The direct rounding classification must agree with the
            # congruence characterisation everywhere.
            if n >= 3:
                note(
                    "rounding_congruence",
                    classify_rounding(n, k) == classify_rounding_by_congruence(n, k),
                    n,
                    k,
                )

    return report


def scan_eq4_identity(k_max: int, m_max: int) -> list[tuple[int, int]]:
    """All (n, k) with k <= k_max, m <= m_max where the floor identity fails."""
    _validate_range(k_max, m_max)
    return [
        (m * k, k)
        for k in range(2, k_max + 1)
        for m in range(1, m_max + 1)
        if not check_eq4_identity(m * k, k)
    ]


def scan_domcycle_threshold(k_max: int, m_max: int) -> list[tuple[int, int]]:
    """All (n, k) in range with 3 <= k <= n/2 where D(n, k) < (n+2)/3."""
    _validate_range(k_max, m_max)
    failures = []
    for k in range(3, k_max + 1):
        for m in range(2, m_max + 1):
            n = m * k
            if not check_domcycle_threshold(n, k):
                failures.append((n, k))
    return failures
