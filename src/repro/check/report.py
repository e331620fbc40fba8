"""Violation and report value objects of the :mod:`repro.check` auditor.

Every checker in this package returns a flat list of
:class:`Violation` records rather than raising on the first failure:
an audit is most useful when it surfaces *all* broken invariants of a
design at once.  :class:`CheckReport` aggregates the violations of one
audited artifact together with the names of the checks that ran, so a
clean report also documents what was actually verified.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, List

from repro.errors import VerificationError


@dataclass(frozen=True)
class Violation:
    """One broken invariant.

    ``code`` is a dotted machine-readable identifier
    (``"schedule.precedence"``, ``"grid.ghost-occupant"``,
    ``"liapunov.not-argmin"``, …); ``subject`` names the node, instance
    or register concerned; ``message`` is the human-readable detail.
    """

    code: str
    subject: str
    message: str

    def __str__(self) -> str:
        return f"[{self.code}] {self.subject}: {self.message}"


@dataclass
class CheckReport:
    """Outcome of auditing one artifact (a run, a schedule, an example).

    ``target`` labels what was audited; ``checks_run`` lists the check
    families that executed (so an empty ``violations`` list is
    meaningful evidence, not a vacuous pass).
    """

    target: str
    violations: List[Violation] = field(default_factory=list)
    checks_run: List[str] = field(default_factory=list)
    #: Breaches of a premise the run does not rely on
    #: (``liapunov.time-dominance``): rendered, but ``ok`` ignores them.
    notes: List[Violation] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """Whether the audit found no violation (notes aside)."""
        return not self.violations

    def add(self, code: str, subject: str, message: str) -> None:
        """Record one violation."""
        self.violations.append(Violation(code=code, subject=subject, message=message))

    def extend(self, violations: Iterable[Violation]) -> None:
        """Absorb violations produced by a checker function."""
        self.violations.extend(violations)

    def ran(self, check_name: str) -> None:
        """Record that a check family executed."""
        if check_name not in self.checks_run:
            self.checks_run.append(check_name)

    def merge(self, other: "CheckReport") -> None:
        """Fold another report (e.g. of a sub-artifact) into this one."""
        self.violations.extend(other.violations)
        self.notes.extend(other.notes)
        for name in other.checks_run:
            self.ran(name)

    # ------------------------------------------------------------------
    def render(self) -> str:
        """Human-readable summary (one line per violation)."""
        status = "PASS" if self.ok else f"FAIL ({len(self.violations)} violations)"
        lines = [f"{self.target}: {status}  [checks: {', '.join(self.checks_run) or 'none'}]"]
        for violation in self.violations:
            lines.append(f"  {violation}")
        for note in self.notes:
            lines.append(f"  note: {note}")
        return "\n".join(lines)

    def raise_if_failed(self) -> None:
        """Raise :class:`VerificationError` when any violation was found."""
        if not self.ok:
            raise VerificationError(self.render(), report=self)
