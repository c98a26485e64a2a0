"""repro-lint: the determinism & identity-contract static analyzer.

Run it over the repo with::

    PYTHONPATH=src python -m repro.analysis.lint src tests benchmarks examples

See :mod:`repro.analysis.lint.rules` for the rule catalog (D001-D006),
:mod:`repro.analysis.lint.engine` for the per-line escape hatch, and
:mod:`repro.analysis.lint.baseline` for the grandfathered-findings
contract.  ``docs/determinism.md`` documents the invariants these rules
exist to protect.
"""

from repro.analysis.lint.baseline import (
    BaselineEntry,
    apply_baseline,
    load_baseline,
)
from repro.analysis.lint.config import LintConfig, load_config
from repro.analysis.lint.engine import lint_paths, lint_source
from repro.analysis.lint.rules import RULES, Finding

__all__ = [
    "BaselineEntry",
    "Finding",
    "LintConfig",
    "RULES",
    "apply_baseline",
    "lint_paths",
    "lint_source",
    "load_baseline",
    "load_config",
]
