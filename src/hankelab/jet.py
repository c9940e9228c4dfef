"""``JetNotInvertible``, kept because ``perfbench/child.py`` imports it.

Nothing in hankelab raises it any more: the relation screen reads the
exact Z[x] residuals at its point (`identities.relation_residuals_at`),
so it declines no point.
"""


class JetNotInvertible(ArithmeticError):
    """A division by a divisor vanishing at the expansion point."""
