"""Derivation budgets.

Membership in a generated pre-addition is decided on finite tables and only
semi-decided over monomials; every search in this package is bounded by a
budget and reports Unknown instead of looping. Exhausting a bound never
produces a wrong Proved.

A budget bounds two searches: `derive`'s (`derivation._derive3`, also run
by `is_morphism`, `is_cancellative` and `is_frobenius`) and the guard's
`derivation._improper_search`, at `core._guard_budget`'s caps of degree 3
and 4,000 steps. Both run on monomial blueprints and on finite tables past
`derivation._COMPLETION_CAP`. A blueprint derived from another (a stalk, a
localization, a residue field, Gamma, a quotient, a closed subscheme)
keeps its source's budget.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Budget:
    """Bounds for the rewrite engine.

    max_degree bounds the total degree of multiplier monomials, max_terms the
    length of intermediate formal sums, max_steps the number of rewrite
    applications.
    """

    max_degree: int = 6
    max_terms: int = 8
    max_steps: int = 100_000

    def __post_init__(self):
        if self.max_degree < 0 or self.max_terms < 0 or self.max_steps < 0:
            raise ValueError("budget bounds must be nonnegative")

    def scaled(self, factor: int) -> "Budget":
        return Budget(self.max_degree * factor, self.max_terms * factor,
                      self.max_steps * factor)
