"""Finding records, inline suppressions, and the grandfathering baseline.

A finding is one checker hit at one source line.  Two escape hatches keep
the battery adoptable on a living tree without weakening it:

- **inline suppression** — ``# repro: allow[check-id] -- reason`` on the
  offending line acknowledges a *reviewed* false positive.  The reason is
  mandatory: an allow without one is itself reported (``bad-suppression``),
  so suppressions stay auditable.
- **baseline** — a committed JSON file of grandfathered findings.  Baseline
  entries are keyed by ``(path, check_id, message)`` (line numbers drift
  too easily to key on), are reported separately, and do not fail the run.
  The repo's policy is an *empty* baseline: the file exists so adopting a
  new check on a large tree is a two-commit operation, not a flag day.
"""

from __future__ import annotations

import io
import json
import re
import tokenize
from dataclasses import dataclass
from pathlib import Path

#: Schema version of the baseline file (bumped on incompatible changes).
BASELINE_VERSION = 1

#: Matches ``repro: allow[check-id, other-id] -- reason`` comments (reason
#: optional at the regex level; the engine reports reason-less allows).
_SUPPRESSION_RE = re.compile(
    r"#\s*repro:\s*allow\[(?P<ids>[^\]]*)\]\s*(?:--\s*(?P<reason>\S.*))?"
)


@dataclass(frozen=True, order=True)
class Finding:
    """One checker hit: where, which check, and what it saw."""

    path: str
    line: int
    check_id: str
    message: str

    @property
    def baseline_key(self) -> tuple[str, str, str]:
        """Identity under which a finding can be grandfathered."""
        return (self.path, self.check_id, self.message)

    def to_dict(self) -> dict:
        return {
            "path": self.path,
            "line": self.line,
            "check_id": self.check_id,
            "message": self.message,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Finding":
        return cls(
            path=str(data["path"]),
            line=int(data.get("line", 0)),
            check_id=str(data["check_id"]),
            message=str(data["message"]),
        )

    def __str__(self) -> str:
        return f"{self.path}:{self.line}: [{self.check_id}] {self.message}"


@dataclass(frozen=True)
class Suppression:
    """One parsed ``repro: allow[...]`` suppression comment."""

    line: int
    check_ids: tuple[str, ...]
    reason: str | None

    def covers(self, finding: Finding) -> bool:
        return finding.line == self.line and (
            finding.check_id in self.check_ids or "*" in self.check_ids
        )


def parse_suppressions(source: str) -> list[Suppression]:
    """Collect the inline allow-comments of one file.

    Only real comments count: the allow pattern is matched against the
    source's ``COMMENT`` tokens, so allow text inside a string literal (a
    lint fixture, say) is neither a suppression nor a ``bad-suppression``.
    """
    suppressions = []
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type != tokenize.COMMENT:
            continue
        match = _SUPPRESSION_RE.search(token.string)
        if match is None:
            continue
        ids = tuple(
            part.strip() for part in match.group("ids").split(",") if part.strip()
        )
        suppressions.append(
            Suppression(line=token.start[0], check_ids=ids, reason=match.group("reason"))
        )
    return suppressions


# ----------------------------------------------------------------------
# Baseline file
# ----------------------------------------------------------------------
def load_baseline(path: str | Path) -> set[tuple[str, str, str]]:
    """Grandfathered finding keys from a committed baseline file."""
    data = json.loads(Path(path).read_text())
    if data.get("version") != BASELINE_VERSION:
        raise ValueError(
            f"baseline {path} has version {data.get('version')!r}, "
            f"this linter writes version {BASELINE_VERSION}"
        )
    return {
        (str(f["path"]), str(f["check_id"]), str(f["message"]))
        for f in data.get("findings", [])
    }


def save_baseline(path: str | Path, findings: list[Finding]) -> None:
    """Write the baseline covering ``findings`` (sorted, line-less keys)."""
    entries = sorted(
        {f.baseline_key for f in findings}
    )
    payload = {
        "version": BASELINE_VERSION,
        "findings": [
            {"path": p, "check_id": c, "message": m} for p, c, m in entries
        ],
    }
    Path(path).write_text(json.dumps(payload, indent=2) + "\n")
