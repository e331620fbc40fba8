"""Property tests for the consistent-hash ring (repro.serve.hashring).

The routing contract the shard router depends on:

* **stability** — resizing the fleet from N to N+1 shards moves only
  ~K/(N+1) of K keys, and every key that moves, moves to the new shard;
* **determinism** — placement is a pure function of (shard names, key),
  identical across processes (sha256, never python's seeded ``hash()``);
* **balance** — with the default vnode count, shard loads stay within
  20 % of ideal on realistic (fingerprint-shaped) key populations.
"""

import hashlib
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serve.hashring import DEFAULT_REPLICAS, HashRing


def fingerprints(count: int, seed: str = "ring") -> list:
    """Seeded sha256-hex keys, the exact shape of DFG fingerprints."""
    return [
        hashlib.sha256(f"{seed}-{i}".encode()).hexdigest()
        for i in range(count)
    ]


class TestRingBasics:
    def test_empty_ring_refuses_lookup(self):
        with pytest.raises(ValueError):
            HashRing().node_for("abc")

    def test_add_remove_roundtrip(self):
        ring = HashRing(["a", "b"])
        assert set(ring.nodes) == {"a", "b"}
        assert len(ring) == 2 and "a" in ring
        ring.remove("a")
        assert ring.nodes == ("b",)
        with pytest.raises(ValueError):
            ring.remove("a")
        with pytest.raises(ValueError):
            ring.add("b")

    def test_ordered_starts_at_owner_and_covers_all(self):
        ring = HashRing([f"shard-{i}" for i in range(4)])
        for key in fingerprints(50):
            order = ring.ordered(key)
            assert order[0] == ring.node_for(key)
            assert sorted(order) == sorted(ring.nodes)

    def test_failover_target_is_next_in_ring_order(self):
        """Removing the owner reroutes each key to its ordered()[1]."""
        ring = HashRing([f"shard-{i}" for i in range(3)])
        for key in fingerprints(100):
            owner, fallback = ring.ordered(key)[:2]
            without = HashRing([n for n in ring.nodes if n != owner])
            assert without.node_for(key) == fallback


class TestStability:
    def test_scale_out_moves_only_its_share(self):
        """N → N+1: ≲ K/(N+1) keys move, all of them to the new shard."""
        keys = fingerprints(2000)
        for shards in (2, 4):
            before = HashRing([f"shard-{i}" for i in range(shards)])
            after = HashRing([f"shard-{i}" for i in range(shards + 1)])
            moved = [
                key
                for key in keys
                if before.node_for(key) != after.node_for(key)
            ]
            newcomer = f"shard-{shards}"
            assert all(after.node_for(key) == newcomer for key in moved)
            ideal = len(keys) / (shards + 1)
            # Sampling noise allowance; modulo hashing would move ~ K·N/(N+1).
            assert len(moved) < 1.5 * ideal, (
                f"{len(moved)} keys moved at {shards}→{shards + 1} shards "
                f"(ideal {ideal:.0f})"
            )

    def test_scale_in_strands_no_keys(self):
        """Removing a shard only re-homes that shard's keys."""
        keys = fingerprints(1000)
        ring = HashRing([f"shard-{i}" for i in range(4)])
        owned = {key: ring.node_for(key) for key in keys}
        ring.remove("shard-2")
        for key in keys:
            if owned[key] != "shard-2":
                assert ring.node_for(key) == owned[key]
            else:
                assert ring.node_for(key) != "shard-2"


class TestReshardViews:
    """grown()/shrunk() — the online-reshard primitives."""

    def test_grown_and_shrunk_leave_the_original_untouched(self):
        ring = HashRing(["a", "b"])
        bigger = ring.grown("c")
        assert ring.nodes == ("a", "b")
        assert sorted(bigger.nodes) == ["a", "b", "c"]
        smaller = bigger.shrunk("c")
        assert sorted(bigger.nodes) == ["a", "b", "c"]
        assert sorted(smaller.nodes) == ["a", "b"]
        keys = fingerprints(200)
        assert [smaller.node_for(k) for k in keys] == [
            ring.node_for(k) for k in keys
        ]

    @settings(max_examples=25, deadline=None)
    @given(
        shards=st.integers(min_value=1, max_value=6),
        sample=st.integers(min_value=0, max_value=3000),
    )
    def test_scale_out_movement_bound_property(self, shards, sample):
        """Adding one shard relocates ≤ (1/(N+1) + tolerance) of a large
        key sample, and every relocated key lands on the newcomer."""
        keys = fingerprints(2000, seed=f"prop-{sample}")
        before = HashRing([f"shard-{i}" for i in range(shards)])
        newcomer = f"shard-{shards}"
        after = before.grown(newcomer)
        moved = [k for k in keys if before.node_for(k) != after.node_for(k)]
        assert all(after.node_for(k) == newcomer for k in moved)
        ideal = len(keys) / (shards + 1)
        assert len(moved) <= 1.5 * ideal + 25, (
            f"{len(moved)} of {len(keys)} keys moved at "
            f"{shards}→{shards + 1} (ideal {ideal:.0f})"
        )

    @settings(max_examples=25, deadline=None)
    @given(
        shards=st.integers(min_value=2, max_value=6),
        victim=st.integers(min_value=0, max_value=5),
        sample=st.integers(min_value=0, max_value=3000),
    )
    def test_scale_in_handoff_set_is_exactly_the_victims_keys(
        self, shards, victim, sample
    ):
        """Removing a shard hands off exactly its keys: the keys whose
        owner changes are {key : owner was the victim}, each goes to a
        surviving shard, and nobody else's placement changes."""
        keys = fingerprints(1000, seed=f"shrink-{sample}")
        before = HashRing([f"shard-{i}" for i in range(shards)])
        name = f"shard-{victim % shards}"
        after = before.shrunk(name)
        moved = {k for k in keys if before.node_for(k) != after.node_for(k)}
        owned_by_victim = {k for k in keys if before.node_for(k) == name}
        assert moved == owned_by_victim
        assert all(after.node_for(k) != name for k in moved)


class TestDeterminism:
    def test_placement_is_identical_in_a_fresh_process(self):
        """No dependence on PYTHONHASHSEED or process state."""
        keys = fingerprints(64)
        local = [
            HashRing([f"shard-{i}" for i in range(3)]).node_for(key)
            for key in keys
        ]
        script = (
            "import sys\n"
            "from repro.serve.hashring import HashRing\n"
            "ring = HashRing(['shard-0', 'shard-1', 'shard-2'])\n"
            "for key in sys.argv[1:]:\n"
            "    print(ring.node_for(key))\n"
        )
        out = subprocess.run(
            [sys.executable, "-c", script, *keys],
            capture_output=True,
            text=True,
            check=True,
        )
        assert out.stdout.split() == local

    def test_rebuild_order_does_not_matter(self):
        keys = fingerprints(200)
        forward = HashRing(["a", "b", "c"])
        backward = HashRing(["c", "b", "a"])
        assert [forward.node_for(k) for k in keys] == [
            backward.node_for(k) for k in keys
        ]


class TestBalance:
    @pytest.mark.parametrize("shards", [2, 4])
    def test_within_twenty_percent_of_ideal(self, shards):
        keys = fingerprints(4000, seed="balance")
        ring = HashRing([f"shard-{i}" for i in range(shards)])
        counts = ring.distribution(keys)
        assert sum(counts.values()) == len(keys)
        ideal = len(keys) / shards
        for name, count in counts.items():
            assert abs(count - ideal) <= 0.2 * ideal, (
                f"{name} owns {count} of {len(keys)} keys "
                f"(ideal {ideal:.0f} ± 20 %)"
            )

    def test_more_vnodes_tighten_the_spread(self):
        keys = fingerprints(4000, seed="vnodes")
        spreads = {}
        for replicas in (8, DEFAULT_REPLICAS):
            ring = HashRing(
                [f"shard-{i}" for i in range(4)], replicas=replicas
            )
            counts = ring.distribution(keys)
            spreads[replicas] = max(counts.values()) - min(counts.values())
        assert spreads[DEFAULT_REPLICAS] < spreads[8]
