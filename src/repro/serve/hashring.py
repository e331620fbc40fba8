"""Consistent-hash routing for the sharded synthesis service.

The router front end (:mod:`repro.serve.router`) spreads jobs over N
worker shards by hashing the job's canonical DFG fingerprint
(:func:`repro.dfg.fingerprint.dfg_fingerprint`) onto a *consistent hash
ring*.  Consistent hashing gives the two properties plain
``hash(key) % N`` lacks:

* **stability under resizing** — growing a fleet from N to N+1 shards
  moves only ~1/(N+1) of the key space; every key that moves, moves to
  the *new* shard.  Shard-local warm state (result caches, worker pools
  with pre-built libraries, journal locality) survives a scale-out
  instead of being reshuffled wholesale;
* **deterministic, process-independent placement** — the ring is built
  from sha256 digests of shard names, never from python's seeded
  ``hash()``, so the router, the tests and a replay after restart all
  agree on every key's owner.

Each shard is placed on the ring at ``replicas`` *virtual points*
(vnodes), which evens out the arc lengths: with the default 128 vnodes
the per-shard key share stays within ~±15 % of ideal on realistic key
populations (a property test pins this).  A key is owned by the first
vnode clockwise from the key's own hash; :meth:`HashRing.ordered` yields
the full preference order (each shard once, in ring order), which is
what failover walks when the owner is unhealthy.
"""

from __future__ import annotations

import bisect
import hashlib
from typing import Dict, Iterable, List, Sequence, Tuple

#: Virtual nodes per shard; more vnodes = smoother balance, larger ring.
DEFAULT_REPLICAS = 128


def _digest(text: str) -> int:
    """Position of ``text`` on the ring (stable across processes)."""
    return int.from_bytes(
        hashlib.sha256(text.encode("utf-8")).digest()[:8], "big"
    )


class HashRing:
    """A consistent hash ring over named shards.

    >>> ring = HashRing(["shard-0", "shard-1", "shard-2"])
    >>> owner = ring.node_for("a3f1...")        # doctest: +SKIP
    >>> ring.ordered("a3f1...")[0] == owner     # doctest: +SKIP
    True
    """

    def __init__(
        self,
        nodes: Iterable[str] = (),
        replicas: int = DEFAULT_REPLICAS,
    ) -> None:
        if replicas < 1:
            raise ValueError(f"replicas must be >= 1, got {replicas}")
        self.replicas = replicas
        self._nodes: List[str] = []
        self._points: List[int] = []
        self._owners: List[str] = []
        for node in nodes:
            self.add(node)

    # ------------------------------------------------------------------
    @property
    def nodes(self) -> Tuple[str, ...]:
        """The shard names on the ring, in insertion order."""
        return tuple(self._nodes)

    def __len__(self) -> int:
        return len(self._nodes)

    def __contains__(self, node: str) -> bool:
        return node in self._nodes

    # ------------------------------------------------------------------
    def add(self, node: str) -> None:
        """Place ``node`` on the ring at ``replicas`` virtual points."""
        if not node:
            raise ValueError("shard name must be non-empty")
        if node in self._nodes:
            raise ValueError(f"shard {node!r} already on the ring")
        self._nodes.append(node)
        for replica in range(self.replicas):
            point = _digest(f"{node}#{replica}")
            index = bisect.bisect(self._points, point)
            self._points.insert(index, point)
            self._owners.insert(index, node)

    def remove(self, node: str) -> None:
        """Take ``node`` off the ring (its keys move to their successors)."""
        if node not in self._nodes:
            raise ValueError(f"shard {node!r} not on the ring")
        self._nodes.remove(node)
        keep = [
            (point, owner)
            for point, owner in zip(self._points, self._owners)
            if owner != node
        ]
        self._points = [point for point, _owner in keep]
        self._owners = [owner for _point, owner in keep]

    # ------------------------------------------------------------------
    def grown(self, node: str) -> "HashRing":
        """A new ring with ``node`` added (this ring is untouched).

        The online-reshard primitive: the router boots the new shard,
        then swaps its live ring for the grown one in a single step.
        """
        return HashRing(self._nodes + [node], replicas=self.replicas)

    def shrunk(self, node: str) -> "HashRing":
        """A new ring with ``node`` removed (this ring is untouched)."""
        if node not in self._nodes:
            raise ValueError(f"shard {node!r} not on the ring")
        return HashRing(
            [n for n in self._nodes if n != node], replicas=self.replicas
        )

    # ------------------------------------------------------------------
    def node_for(self, key: str) -> str:
        """The shard that owns ``key`` (first vnode clockwise)."""
        if not self._nodes:
            raise ValueError("hash ring is empty")
        index = bisect.bisect(self._points, _digest(key)) % len(self._points)
        return self._owners[index]

    def ordered(self, key: str) -> List[str]:
        """Every shard once, in ring order starting at ``key``'s owner.

        The failover preference list: the router forwards to the first
        *healthy* entry, so when the owner is down the key consistently
        lands on the same fallback shard.
        """
        if not self._nodes:
            raise ValueError("hash ring is empty")
        start = bisect.bisect(self._points, _digest(key)) % len(self._points)
        seen: Dict[str, None] = {}
        for offset in range(len(self._points)):
            owner = self._owners[(start + offset) % len(self._points)]
            if owner not in seen:
                seen[owner] = None
                if len(seen) == len(self._nodes):
                    break
        return list(seen)

    # ------------------------------------------------------------------
    def distribution(self, keys: Sequence[str]) -> Dict[str, int]:
        """Keys-per-shard histogram (balance checks and metrics)."""
        counts = {node: 0 for node in self._nodes}
        for key in keys:
            counts[self.node_for(key)] += 1
        return counts

