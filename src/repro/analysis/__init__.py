"""Analytical models from the paper.

Alongside measurements, the paper derives closed-form expressions for the
behaviour of both systems:

* vanilla pull-based execution on a shared CSD costs roughly
  ``S × C × D`` (switch latency × clients × data segments) — Section 3.2;
* a Skipper client's waiting time is roughly ``(C − 1) × (D/B + S)`` because
  the CSD serves tenants group by group — Section 5.2.1;
* MJoin under a cache of ``C_objects`` needs about ``(R × S / C_objects)^(R−1)``
  request cycles for ``R`` relations of ``S`` segments each — Section 5.2.4;
* the rank-based scheduler's fairness constant must satisfy ``K ≤ 1/s`` to
  favour efficiency and ``K = 1`` to maximise fairness — Section 4.4.

:mod:`repro.analysis.model` implements these formulas so that the simulator
can be validated against them (see ``tests/test_analysis.py`` and
``tests/figures/test_analysis_validation.py``).

The package also houses the repo's *static*-analysis suite — an AST-based
rule engine (:mod:`repro.analysis.engine`) with determinism and
simulation-safety rule packs (:mod:`repro.analysis.rules`), run as
``python -m repro.analysis [paths] [--strict] [--format json|text]`` and
gated in CI.  See the README "Static analysis & typing" section for the
rule table and the ``# repro: noqa[RPRnnn] reason=...`` policy.
"""

from repro.analysis.config import DEFAULT_CONFIG, AnalysisConfig, RuleScope
from repro.analysis.engine import AnalysisError, Finding, Rule, analyze_source
from repro.analysis.model import (
    AnalyticalModel,
    mjoin_expected_cycles,
    rank_fairness_bound,
    skipper_waiting_time,
    vanilla_execution_time,
)
from repro.analysis.rules import ALL_RULES, build_rules

__all__ = [
    "ALL_RULES",
    "AnalysisConfig",
    "AnalysisError",
    "AnalyticalModel",
    "DEFAULT_CONFIG",
    "Finding",
    "Rule",
    "RuleScope",
    "analyze_source",
    "build_rules",
    "mjoin_expected_cycles",
    "rank_fairness_bound",
    "skipper_waiting_time",
    "vanilla_execution_time",
]
