"""Deterministic, seedable fault injection for chaos testing.

The paper frames MFS/MFSA as a *stability* problem: the scheduler must
converge to equilibrium even when perturbed (local rescheduling when a
move frame empties).  This module applies the same discipline to the
production layers around the schedulers: named failure points
(*fault sites*) are compiled into the serve/sweep hot paths, and a
:class:`FaultPlan` decides — deterministically, from a seed — which
calls to those sites fail.  Two runs with the same plan see the *same*
failure sequence, so every chaos test reproduces byte for byte.

A fault site is one line::

    from repro.resilience import fault_point
    fault_point("serve.cache.put")

With no plan armed this is a single global ``None`` check — effectively
free, which is what lets the sites live in hot paths permanently instead
of the ad-hoc monkeypatching the test suite used to do.  Arming a plan
(:func:`arm` / :meth:`FaultPlan.armed`) makes the matching sites raise
:class:`InjectedFault` according to their trigger rules:

* ``n=<k>`` — fire on exactly the *k*-th call (1-based) to the site;
* ``every=<k>`` — fire on every *k*-th call;
* ``p=<q>`` — fire each call with probability *q*, drawn from the plan's
  own seeded :class:`random.Random` stream;
* ``times=<k>`` — cap the number of firings (combines with the above).

Plans parse from a compact CLI spelling (the ``--faults`` flag)::

    FaultPlan.parse("serve.cache.put:n=2,sweep.submit:p=0.25:times=3", seed=7)

Every firing is appended to :attr:`FaultPlan.log` as ``(site,
call_index)``, which is how tests assert that two seeded runs replayed
the identical failure sequence.

Known sites are listed in :data:`FAULT_SITES`; :func:`fault_point`
accepts unknown names too (callers may define private sites), but
:meth:`FaultPlan.validate` warns about rules that can never fire.
"""

from __future__ import annotations

import random
import threading
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

#: Fault sites compiled into the production layers.  Keep this list in
#: sync with docs/ROBUSTNESS.md (the docs test greps it).
FAULT_SITES = (
    "serve.admit",          # ServeApp.submit, after spec validation
    "serve.dispatch",       # MicroBatcher, before a batch executes
    "serve.cache.put",      # ServeApp._resolve, before caching a result
    "serve.journal.write",  # JobJournal.append, before the write
    "sweep.submit",         # SweepExecutor, per-item pool submission
    "scheduler.run",        # execute_spec, before the scheduler runs
    "router.forward",       # ShardRouter, before proxying to a shard
)


class InjectedFault(RuntimeError):
    """A failure raised by an armed :class:`FaultPlan`.

    Carries the site name and the 1-based call index at which it fired,
    so handlers (and test assertions) can identify the exact injection.
    """

    def __init__(self, site: str, call_index: int) -> None:
        super().__init__(f"injected fault at {site} (call {call_index})")
        self.site = site
        self.call_index = call_index

    def __reduce__(self):
        # Rebuild from (site, call_index) so the fault survives the
        # pickling a process-pool boundary applies to worker exceptions.
        return (type(self), (self.site, self.call_index))


@dataclass
class FaultRule:
    """Trigger rule for one fault site."""

    site: str
    nth: Optional[int] = None
    every: Optional[int] = None
    probability: float = 0.0
    times: Optional[int] = None
    fired: int = field(default=0, compare=False)

    def __post_init__(self) -> None:
        if self.nth is not None and self.nth < 1:
            raise ValueError(f"n must be >= 1, got {self.nth}")
        if self.every is not None and self.every < 1:
            raise ValueError(f"every must be >= 1, got {self.every}")
        if not 0.0 <= self.probability <= 1.0:
            raise ValueError(
                f"p must be within [0, 1], got {self.probability}"
            )
        if (
            self.nth is None
            and self.every is None
            and self.probability == 0.0
        ):
            raise ValueError(
                f"rule for {self.site!r} can never fire "
                "(give one of n=, every=, p=)"
            )

    def should_fire(self, call_index: int, rng: random.Random) -> bool:
        if self.times is not None and self.fired >= self.times:
            return False
        if self.nth is not None and call_index == self.nth:
            return True
        if self.every is not None and call_index % self.every == 0:
            return True
        if self.probability > 0.0 and rng.random() < self.probability:
            return True
        return False


class FaultPlan:
    """A seeded set of :class:`FaultRule` triggers over named sites.

    The plan owns its random stream (``random.Random(seed)``), its
    per-site call counters and its firing log; two plans built from the
    same spec and seed therefore make identical decisions call for call.
    Thread-safe: serve fault sites are hit from the event-loop thread
    and the batcher's worker thread concurrently.
    """

    def __init__(
        self, rules: Iterable[FaultRule] = (), seed: int = 0
    ) -> None:
        self.seed = seed
        self.rules: Dict[str, FaultRule] = {}
        for rule in rules:
            if rule.site in self.rules:
                raise ValueError(f"duplicate rule for site {rule.site!r}")
            self.rules[rule.site] = rule
        self.calls: Dict[str, int] = {}
        #: Every firing, in order: ``(site, call_index)`` pairs.
        self.log: List[Tuple[str, int]] = []
        self._rng = random.Random(seed)
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    @classmethod
    def parse(cls, spec: str, seed: int = 0) -> "FaultPlan":
        """Build a plan from the ``--faults`` CLI spelling.

        ``spec`` is a comma-separated list of rules; each rule is a site
        name followed by colon-separated ``key=value`` triggers::

            serve.cache.put:n=2,sweep.submit:p=0.25:times=3
        """
        rules = []
        for chunk in filter(None, (c.strip() for c in spec.split(","))):
            site, _sep, tail = chunk.partition(":")
            if not tail:
                raise ValueError(
                    f"rule {chunk!r} has no trigger (expected site:key=value)"
                )
            kwargs: Dict[str, object] = {}
            for clause in tail.split(":"):
                key, sep, value = clause.partition("=")
                if not sep:
                    raise ValueError(f"malformed trigger clause {clause!r}")
                key = key.strip()
                try:
                    if key == "n":
                        kwargs["nth"] = int(value)
                    elif key == "every":
                        kwargs["every"] = int(value)
                    elif key == "p":
                        kwargs["probability"] = float(value)
                    elif key == "times":
                        kwargs["times"] = int(value)
                    else:
                        raise ValueError(
                            f"unknown trigger {key!r} "
                            "(expected n=, every=, p=, times=)"
                        )
                except ValueError:
                    raise
                except Exception as error:  # pragma: no cover - defensive
                    raise ValueError(f"bad trigger {clause!r}: {error}")
            rules.append(FaultRule(site=site.strip(), **kwargs))
        return cls(rules, seed=seed)

    def validate(self) -> List[str]:
        """Warnings for rules naming sites no production code declares."""
        return [
            f"rule for unknown fault site {site!r}"
            for site in self.rules
            if site not in FAULT_SITES
        ]

    # ------------------------------------------------------------------
    def hit(self, site: str) -> None:
        """One call through fault site ``site``; raises when it fires."""
        with self._lock:
            index = self.calls.get(site, 0) + 1
            self.calls[site] = index
            rule = self.rules.get(site)
            if rule is None or not rule.should_fire(index, self._rng):
                return
            rule.fired += 1
            self.log.append((site, index))
        raise InjectedFault(site, index)

    def fired(self, site: Optional[str] = None) -> int:
        """Total firings (of one site, or across the whole plan)."""
        if site is None:
            return len(self.log)
        return sum(1 for logged_site, _index in self.log if logged_site == site)

    def reset(self) -> None:
        """Rewind counters, log and the random stream to the initial state."""
        self.calls.clear()
        self.log.clear()
        self._rng = random.Random(self.seed)
        for rule in self.rules.values():
            rule.fired = 0

    # ------------------------------------------------------------------
    def armed(self) -> "_Armed":
        """Context manager arming this plan process-wide."""
        return _Armed(self)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        sites = ",".join(sorted(self.rules))
        return f"FaultPlan(seed={self.seed}, sites=[{sites}])"


# ---------------------------------------------------------------------------
# The process-wide armed plan.  One slot, guarded by a lock for the
# arm/disarm transitions; the fast path reads one module global.
# ---------------------------------------------------------------------------
_active: Optional[FaultPlan] = None
_arm_lock = threading.Lock()


def arm(plan: Optional[FaultPlan]) -> Optional[FaultPlan]:
    """Install ``plan`` as the process-wide fault plan; returns the old one.

    ``arm(None)`` disarms.  Prefer :meth:`FaultPlan.armed` in tests — it
    restores the previous plan on exit even when the body raises.
    """
    global _active
    with _arm_lock:
        previous, _active = _active, plan
    return previous


def active_plan() -> Optional[FaultPlan]:
    """The currently armed plan (``None`` when fault injection is off)."""
    return _active


def fault_point(site: str) -> None:
    """Declare a named failure point; raises :class:`InjectedFault` when
    the armed plan's rule for ``site`` decides this call fails."""
    plan = _active
    if plan is not None:
        plan.hit(site)


class _Armed:
    def __init__(self, plan: FaultPlan) -> None:
        self._plan = plan
        self._previous: Optional[FaultPlan] = None

    def __enter__(self) -> FaultPlan:
        self._previous = arm(self._plan)
        return self._plan

    def __exit__(self, *exc_info) -> None:
        arm(self._previous)
