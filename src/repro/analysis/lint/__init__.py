"""Static determinism lint: the bit-identity contract, machine-checked.

Every engine this repo ships ({Sequential, Thread} x cohort stacking)
commits bit-identical models only because of invariants the type system
cannot see: randomness flows exclusively from per-``(round, entity)``
:class:`~repro.fl.rng.RngStreams` keys, dtypes survive end to end, seed
pool payloads pickle, shared-memory segments always unlink.  Historically
those invariants lived in runtime equivalence tests, so a violation
surfaced rounds-deep in a bisection
(a scratch buffer allocated without ``dtype=`` silently upcasting a
float32 pass is the canonical example).

This package checks them at parse time instead:

- :mod:`repro.analysis.lint.checks` — the battery of AST checks
  (``global-rng``, ``dtype-discipline``, ``pickle-safety``,
  ``parallel-safety``, ``shm-hygiene``, plus the hygiene pair
  ``unused-import`` / ``mutable-default``);
- :mod:`repro.analysis.lint.engine` — file walking, per-line inline
  suppressions (``# repro: allow[check-id] -- reason``), the committed
  grandfathering baseline, and text/JSON rendering;
- :mod:`repro.analysis.lint.cli` — the ``python -m repro.analysis``
  entry point (also reachable as ``python -m repro lint``).

Run it from the repo root::

    PYTHONPATH=src python -m repro.analysis src benchmarks examples

The exit status is nonzero when any non-grandfathered finding remains, so
``set -e`` CI scripts fail fast.
"""

from repro.analysis.lint.checks import ALL_CHECK_IDS, Check, all_checks, get_check
from repro.analysis.lint.engine import (
    BASELINE_VERSION,
    Finding,
    Report,
    analyze_paths,
    analyze_source,
    load_baseline,
    render_json,
    render_text,
    save_baseline,
)

__all__ = [
    "ALL_CHECK_IDS",
    "BASELINE_VERSION",
    "Check",
    "Finding",
    "Report",
    "all_checks",
    "analyze_paths",
    "analyze_source",
    "get_check",
    "load_baseline",
    "render_json",
    "render_text",
    "save_baseline",
]
