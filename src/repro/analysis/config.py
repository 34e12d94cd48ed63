"""Per-directory rule scoping for the static-analysis suite.

Rules default to active everywhere.  A :class:`RuleScope` narrows a rule to
``include`` patterns (active *only* under those paths) and/or carves out
``exclude`` patterns — both are :mod:`fnmatch` globs matched against the
repo-relative POSIX path of the analysed file, so ``src/repro/fleet/*``
matches arbitrarily deep files under that package.

:data:`DEFAULT_CONFIG` encodes the repo policy:

* wall-clock reads (RPR002) are the *job* of the bench harness and of the
  per-scenario wall seconds the parallel scenario runner reports, so those
  files are excluded rather than littered with suppressions;
* the builtin-``hash()`` guard (RPR004) only bites where ``PYTHONHASHSEED``
  could bend goldens — placement, routing and device-layout code;
* float-time equality (RPR101) and the exception-taxonomy rule (RPR104)
  apply to library code only: tests pin exact golden floats on purpose and
  raise builtin exceptions freely in fixtures.

Deliberate one-off violations inside scoped code use inline
``# repro: noqa[RPRnnn] reason=...`` comments instead (see README).
"""

from __future__ import annotations

from fnmatch import fnmatch
from typing import Dict, Mapping, Tuple

from repro.exceptions import ConfigurationError


class RuleScope:
    """Where one rule applies; empty include/exclude means "everywhere"."""

    __slots__ = ("include", "exclude", "reason")

    def __init__(
        self,
        include: Tuple[str, ...] = (),
        exclude: Tuple[str, ...] = (),
        reason: str = "",
    ) -> None:
        self.include = tuple(include)
        self.exclude = tuple(exclude)
        self.reason = reason

    def applies_to(self, rel_path: str) -> bool:
        if self.include and not any(fnmatch(rel_path, pat) for pat in self.include):
            return False
        return not any(fnmatch(rel_path, pat) for pat in self.exclude)

    def to_dict(self) -> Dict[str, object]:
        return {
            "include": list(self.include),
            "exclude": list(self.exclude),
            "reason": self.reason,
        }


class AnalysisConfig:
    """Maps rule codes to their :class:`RuleScope`."""

    def __init__(self, scopes: Mapping[str, RuleScope]) -> None:
        for code, scope in scopes.items():
            if not isinstance(scope, RuleScope):
                raise ConfigurationError(
                    f"scope for rule {code!r} must be a RuleScope, got {scope!r}"
                )
        self._scopes = dict(scopes)

    def scope(self, code: str) -> RuleScope:
        return self._scopes.get(code, _EVERYWHERE)

    def rule_active(self, code: str, rel_path: str) -> bool:
        return self.scope(code).applies_to(rel_path)

    def to_dict(self) -> Dict[str, Dict[str, object]]:
        return {code: self._scopes[code].to_dict() for code in sorted(self._scopes)}


_EVERYWHERE = RuleScope()

DEFAULT_CONFIG = AnalysisConfig(
    {
        "RPR002": RuleScope(
            exclude=(
                "src/repro/bench/*",
                "src/repro/scenarios/parallel.py",
            ),
            reason="measuring wall-clock time is these modules' purpose "
            "(bench harness, the wall seconds --check prints); simulated "
            "logic must never read the host clock",
        ),
        "RPR004": RuleScope(
            include=(
                "src/repro/fleet/*",
                "src/repro/csd/*",
                "src/repro/cluster/*",
            ),
            reason="PYTHONHASHSEED-dependent hash() only corrupts goldens "
            "on placement/routing/layout paths; engine-internal __hash__ "
            "implementations are process-local",
        ),
        "RPR101": RuleScope(
            include=("src/repro/*",),
            reason="golden tests assert exact metric floats on purpose",
        ),
        "RPR104": RuleScope(
            include=("src/repro/*",),
            reason="the ReproError taxonomy binds library code; tests and "
            "examples raise builtin exceptions in fixtures",
        ),
        "RPR105": RuleScope(
            exclude=("src/repro/scenarios/parallel.py",),
            reason="the parallel runner legitimately talks to worker "
            "processes; everything else must stay simulation-driven",
        ),
    }
)
