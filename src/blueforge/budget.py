"""Derivation budgets.

Membership in a generated pre-addition is decided on finite tables and only
semi-decided over monomials; every search in this package is bounded by a
budget and reports Unknown instead of looping. Exhausting a bound never
produces a wrong Proved.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import lru_cache, wraps

_ENV_VAR = "BLUEFORGE_BUDGET"


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


def default_budget() -> Budget:
    """The package default, overridable via BLUEFORGE_BUDGET="deg,terms,steps"."""
    raw = os.environ.get(_ENV_VAR)
    if not raw:
        return Budget()
    parts = [p.strip() for p in raw.split(",")]
    if len(parts) != 3:
        raise ValueError(f"{_ENV_VAR} must be 'deg,terms,steps', got {raw!r}")
    deg, terms, steps = (int(p) for p in parts)
    return Budget(deg, terms, steps)


def cached_per_budget(builder):
    """Memoize a Blueprint builder on its arguments and on `default_budget()`,
    which the Blueprints it builds capture: a build under a temporary budget
    (the CLI's --budget) neither reuses nor replaces the default objects."""
    cache = lru_cache(maxsize=None)(
        lambda budget, *args, **kwargs: builder(*args, **kwargs))

    @wraps(builder)
    def cached(*args, **kwargs):
        return cache(default_budget(), *args, **kwargs)

    cached.cache_clear = cache.cache_clear
    return cached
