"""The per-row reference for :meth:`Predicate.select`.

:func:`evaluate` decides one row of one predicate the way the definition
reads: both operands of a comparison evaluated, a ``None`` operand false,
``And`` / ``Or`` short-circuiting left to right.  ``select`` must accept the
rows this accepts and raise wherever this raises on one of them.  Operands
are :class:`~repro.engine.predicate.Expression` trees and keep their own
``evaluate``.
"""

import operator

from repro.engine.predicate import And, Between, Comparison, InList, Not, Or

_COMPARE = {
    "=": operator.eq,
    "==": operator.eq,
    "!=": operator.ne,
    "<>": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}


def evaluate(predicate, row):
    """Whether ``predicate`` accepts ``row``."""
    if isinstance(predicate, Comparison):
        left = predicate.left.evaluate(row)
        right = predicate.right.evaluate(row)
        if left is None or right is None:
            return False
        return bool(_COMPARE[predicate.op](left, right))
    if isinstance(predicate, Between):
        value = predicate.expr.evaluate(row)
        if value is None:
            return False
        if predicate.inclusive:
            return bool(predicate.low <= value <= predicate.high)
        return bool(predicate.low <= value < predicate.high)
    if isinstance(predicate, InList):
        return predicate.expr.evaluate(row) in predicate.members
    if isinstance(predicate, And):
        return all(evaluate(child, row) for child in predicate.predicates)
    if isinstance(predicate, Or):
        return any(evaluate(child, row) for child in predicate.predicates)
    if isinstance(predicate, Not):
        return not evaluate(predicate.predicate, row)
    raise TypeError(f"no reference for {type(predicate).__name__}")
