"""Replay bundles: a failing fuzz case as a few lines of JSON.

A bundle is everything ``python -m repro.qa replay`` needs to re-execute a
failure bit-identically on any machine: the corpus spec (seed + size), the
plan spec, the case seed the config matrix derives from, and the runtime
mutation (if the failure came from the self-test).  Violations observed at
capture time ride along so replay can confirm it reproduced the *same*
failure, not merely a failure.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from repro.errors import ConfigurationError
from repro.qa.fuzzer import FuzzCase
from repro.qa.mutations import mutation_by_name
from repro.qa.oracles import Violation, evaluate
from repro.qa.runner import run_case

#: Bumped when the options a case's config matrix can carry change:
#: version 2 dropped ``on_failure`` and the fault/retry tuning keys.
BUNDLE_VERSION = 2


@dataclass
class ReplayBundle:
    """A self-contained, deterministic repro of one harness failure."""

    case: FuzzCase
    mutation: str | None = None
    #: Oracle names that fired when the bundle was captured.
    expected_oracles: list = field(default_factory=list)
    #: Human-readable violation lines from capture time.
    captured_violations: list = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "version": BUNDLE_VERSION,
            "case": self.case.to_dict(),
            "mutation": self.mutation,
            "expected_oracles": list(self.expected_oracles),
            "captured_violations": list(self.captured_violations),
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "ReplayBundle":
        version = payload.get("version", BUNDLE_VERSION)
        if version != BUNDLE_VERSION:
            raise ConfigurationError(
                f"unsupported bundle version {version}; expected {BUNDLE_VERSION}"
            )
        return cls(
            case=FuzzCase.from_dict(payload["case"]),
            mutation=payload.get("mutation"),
            expected_oracles=list(payload.get("expected_oracles", [])),
            captured_violations=list(payload.get("captured_violations", [])),
        )

    @classmethod
    def capture(cls, case: FuzzCase, violations: list[Violation],
                mutation: str | None = None) -> "ReplayBundle":
        return cls(
            case=case,
            mutation=mutation,
            expected_oracles=sorted({v.oracle for v in violations}),
            captured_violations=[str(v) for v in violations],
        )

    # -- persistence ----------------------------------------------------

    def save(self, path: str | Path) -> Path:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self.to_dict(), indent=2) + "\n")
        return path

    @classmethod
    def load(cls, path: str | Path) -> "ReplayBundle":
        return cls.from_dict(json.loads(Path(path).read_text()))

    # -- replay ---------------------------------------------------------

    def replay(self) -> tuple[list[Violation], bool]:
        """Re-execute the case; returns (violations, reproduced).

        ``reproduced`` is True when at least one violation fires from an
        oracle that fired at capture time (or, for a clean capture, when
        replay is also clean).
        """
        mutation = mutation_by_name(self.mutation) if self.mutation else None
        violations = evaluate(run_case(self.case, mutation=mutation))
        if not self.expected_oracles:
            return violations, not violations
        fired = {violation.oracle for violation in violations}
        return violations, bool(fired & set(self.expected_oracles))
