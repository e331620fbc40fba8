"""The data-flow graph (DFG) container.

A DFG is the behavioral input of both schedulers.  It consists of

* *primary inputs* — named external values,
* *constants* — literal values,
* *operation nodes* — each with a kind, an ordered operand list and an
  optional *branch path* used for mutual exclusion (paper §5.1),
* *primary outputs* — named references to node results.

Edges are implicit: each node stores its operand :class:`Port`\\ s, which
refer to other nodes, primary inputs or constants.  The graph must be
acyclic (loops are handled by the loop-folding transform, paper §5.2, not by
back edges).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Mapping, Optional, Sequence, Set, Tuple

from repro.errors import CycleError, DFGError
from repro.dfg.ops import OperationSet


@dataclass(frozen=True)
class Port:
    """A reference to a data source feeding an operation input.

    ``source`` discriminates the reference:

    * ``"node"`` — the output of operation node ``name``;
    * ``"input"`` — the primary input called ``name``;
    * ``"const"`` — the literal integer ``value``.
    """

    source: str
    name: str = ""
    value: int = 0

    @staticmethod
    def node(name: str) -> "Port":
        """Reference the output of operation node ``name``."""
        return Port("node", name=name)

    @staticmethod
    def input(name: str) -> "Port":
        """Reference primary input ``name``."""
        return Port("input", name=name)

    @staticmethod
    def const(value: int) -> "Port":
        """Reference the literal constant ``value``."""
        return Port("const", value=value)

    @property
    def is_node(self) -> bool:
        return self.source == "node"

    @property
    def is_input(self) -> bool:
        return self.source == "input"

    @property
    def is_const(self) -> bool:
        return self.source == "const"

    def signal_name(self) -> str:
        """Stable name of the signal this port carries.

        Two ports carrying the same signal share multiplexer inputs in the
        MFSA mux optimiser, so this name is the sharing key.
        """
        if self.is_const:
            return f"#{self.value}"
        if self.is_input:
            return f"in:{self.name}"
        return f"op:{self.name}"

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        return self.signal_name()


#: A branch path is a tuple of ``(condition_id, arm)`` pairs; ``arm`` is
#: ``True`` for the then-branch and ``False`` for the else-branch.  Two
#: operations are mutually exclusive iff their paths disagree on some
#: condition they share (paper §5.1).
BranchPath = Tuple[Tuple[str, bool], ...]


@dataclass
class Node:
    """One operation node of a DFG.

    A node's operands are fixed once it is built: the DFG never rewires
    a node (copies and renames build new ones), so the predecessor tuple
    is derived once, here, instead of on every query.
    """

    name: str
    kind: str
    operands: Tuple[Port, ...]
    branch: BranchPath = ()

    def __post_init__(self) -> None:
        self.kind = str(self.kind)
        self.operands = tuple(self.operands)
        self.branch = tuple(self.branch)
        seen: List[str] = []
        for port in self.operands:
            if port.is_node and port.name not in seen:
                seen.append(port.name)
        self._predecessors = tuple(seen)

    def operand_names(self) -> Tuple[str, ...]:
        """Signal names of the operand ports (mux-sharing keys)."""
        return tuple(port.signal_name() for port in self.operands)

    def predecessor_names(self) -> Tuple[str, ...]:
        """Names of operation nodes feeding this node (deduplicated, ordered)."""
        return self._predecessors


def branches_mutually_exclusive(a: BranchPath, b: BranchPath) -> bool:
    """Whether two branch paths can never be active simultaneously."""
    conditions_a = dict(a)
    for condition, arm in b:
        if condition in conditions_a and conditions_a[condition] != arm:
            return True
    return False


class DFG:
    """An acyclic data-flow graph of operations.

    Nodes are addressed by unique string names.  Insertion order is
    preserved everywhere (deterministic behaviour is load-bearing: the paper
    breaks priority ties "arbitrarily" and we break them by insertion order
    so runs are reproducible).
    """

    def __init__(self, name: str = "dfg") -> None:
        self.name = name
        self._nodes: Dict[str, Node] = {}
        # An ordered set: declaration order plus O(1) port checks.
        self._inputs: Dict[str, None] = {}
        self._outputs: Dict[str, Port] = {}
        self._successors: Dict[str, List[str]] = {}
        # Decode validation, scheduler validation, ASAP, ALAP and the
        # fingerprint all ask for the same order; add_op clears it.
        self._topological: Optional[Tuple[str, ...]] = None

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_input(self, name: str) -> Port:
        """Declare a primary input and return a port referencing it."""
        if name in self._inputs:
            raise DFGError(f"primary input {name!r} already declared")
        self._inputs[name] = None
        return Port.input(name)

    def add_op(
        self,
        kind: str,
        operands: Sequence[Port],
        name: Optional[str] = None,
        branch: BranchPath = (),
    ) -> Port:
        """Add an operation node and return a port referencing its output.

        ``operands`` may reference nodes added earlier, primary inputs or
        constants.  A fresh unique name is generated when ``name`` is None.
        """
        if name is None:
            name = f"n{len(self._nodes)}"
        if name in self._nodes:
            raise DFGError(f"node {name!r} already exists")
        for port in operands:
            self._check_port(port)
        node = Node(name=name, kind=str(kind), operands=tuple(operands), branch=branch)
        self._nodes[name] = node
        self._successors[name] = []
        for pred in node.predecessor_names():
            self._successors[pred].append(name)
        self._topological = None
        return Port.node(name)

    def set_output(self, name: str, port: Port) -> None:
        """Declare ``port`` as the primary output called ``name``."""
        self._check_port(port)
        self._outputs[name] = port

    def _check_port(self, port: Port) -> None:
        if port.is_node and port.name not in self._nodes:
            raise DFGError(f"port references unknown node {port.name!r}")
        if port.is_input and port.name not in self._inputs:
            raise DFGError(f"port references undeclared input {port.name!r}")

    # ------------------------------------------------------------------
    # accessors
    # ------------------------------------------------------------------
    @property
    def inputs(self) -> Tuple[str, ...]:
        """Primary input names, in declaration order."""
        return tuple(self._inputs)

    @property
    def outputs(self) -> Mapping[str, Port]:
        """Primary outputs: name → source port."""
        return dict(self._outputs)

    def node(self, name: str) -> Node:
        """Return the node called ``name``."""
        try:
            return self._nodes[name]
        except KeyError:
            raise DFGError(f"unknown node {name!r}") from None

    def __contains__(self, name: str) -> bool:
        return name in self._nodes

    def __len__(self) -> int:
        return len(self._nodes)

    def __iter__(self) -> Iterator[Node]:
        return iter(self._nodes.values())

    def node_names(self) -> Tuple[str, ...]:
        """All node names in insertion order."""
        return tuple(self._nodes)

    def nodes(self) -> Tuple[Node, ...]:
        """All nodes in insertion order."""
        return tuple(self._nodes.values())

    def predecessors(self, name: str) -> Tuple[str, ...]:
        """Operation nodes feeding ``name`` (deduplicated)."""
        return self.node(name).predecessor_names()

    def successors(self, name: str) -> Tuple[str, ...]:
        """Operation nodes consuming the output of ``name``."""
        self.node(name)
        return tuple(self._successors[name])

    def source_nodes(self) -> Tuple[str, ...]:
        """Nodes with no operation predecessors."""
        return tuple(n.name for n in self if not n.predecessor_names())

    def sink_nodes(self) -> Tuple[str, ...]:
        """Nodes whose output feeds no other operation."""
        return tuple(n.name for n in self if not self._successors[n.name])

    def kinds_used(self) -> Tuple[str, ...]:
        """Distinct operation kinds present, in first-appearance order."""
        seen: List[str] = []
        for node in self:
            if node.kind not in seen:
                seen.append(node.kind)
        return tuple(seen)

    def count_by_kind(self) -> Dict[str, int]:
        """Number of operations per kind."""
        counts: Dict[str, int] = {}
        for node in self:
            counts[node.kind] = counts.get(node.kind, 0) + 1
        return counts

    def mutually_exclusive(self, a: str, b: str) -> bool:
        """Whether nodes ``a`` and ``b`` lie on exclusive branches (§5.1)."""
        return branches_mutually_exclusive(self.node(a).branch, self.node(b).branch)

    # ------------------------------------------------------------------
    # structure
    # ------------------------------------------------------------------
    def topological_order(self) -> Tuple[str, ...]:
        """Node names in a dependency-respecting order.

        Raises :class:`CycleError` if the graph has a cycle (only possible
        if the graph was mutated behind the API's back, since ``add_op``
        only allows references to existing nodes).
        """
        if self._topological is not None:
            return self._topological
        in_degree = {
            name: len(node.predecessor_names())
            for name, node in self._nodes.items()
        }
        ready = [name for name, degree in in_degree.items() if degree == 0]
        order: List[str] = []
        cursor = 0
        while cursor < len(ready):
            name = ready[cursor]
            cursor += 1
            order.append(name)
            for succ in self._successors[name]:
                in_degree[succ] -= 1
                if in_degree[succ] == 0:
                    ready.append(succ)
        if len(order) != len(self._nodes):
            raise CycleError(f"DFG {self.name!r} contains a dependency cycle")
        self._topological = tuple(order)
        return self._topological

    def validate(self, ops: Optional[OperationSet] = None) -> None:
        """Check structural invariants; with ``ops``, also arity and kinds.

        Raises a :class:`~repro.errors.DFGError` subclass on any violation.
        """
        self.topological_order()
        for name, port in self._outputs.items():
            self._check_port(port)
        if ops is not None:
            for node in self:
                spec = ops.spec(node.kind)
                if len(node.operands) != spec.arity:
                    raise DFGError(
                        f"node {node.name!r} ({node.kind}) has "
                        f"{len(node.operands)} operands, expected {spec.arity}"
                    )

    def transitive_predecessors(self, name: str) -> Set[str]:
        """All nodes reachable backwards from ``name`` (excluding itself)."""
        seen: Set[str] = set()
        stack = list(self.predecessors(name))
        while stack:
            current = stack.pop()
            if current in seen:
                continue
            seen.add(current)
            stack.extend(self.predecessors(current))
        return seen

    def transitive_successors(self, name: str) -> Set[str]:
        """All nodes reachable forwards from ``name`` (excluding itself)."""
        seen: Set[str] = set()
        stack = list(self.successors(name))
        while stack:
            current = stack.pop()
            if current in seen:
                continue
            seen.add(current)
            stack.extend(self.successors(current))
        return seen

    # ------------------------------------------------------------------
    # copying / renaming
    # ------------------------------------------------------------------
    def copy(self, name: Optional[str] = None) -> "DFG":
        """Deep copy of the graph (nodes are immutable-ish, ports frozen)."""
        clone = DFG(name or self.name)
        clone._inputs = dict(self._inputs)
        for node in self:
            clone._nodes[node.name] = Node(
                name=node.name,
                kind=node.kind,
                operands=node.operands,
                branch=node.branch,
            )
            clone._successors[node.name] = []
        for node in clone:
            for pred in node.predecessor_names():
                clone._successors[pred].append(node.name)
        clone._outputs = dict(self._outputs)
        return clone

    def renamed(self, prefix: str) -> "DFG":
        """Copy with every node name prefixed (used by loop unfolding)."""
        clone = DFG(f"{prefix}{self.name}")
        clone._inputs = dict(self._inputs)

        def rename_port(port: Port) -> Port:
            if port.is_node:
                return Port.node(prefix + port.name)
            return port

        for node in self:
            new_name = prefix + node.name
            clone._nodes[new_name] = Node(
                name=new_name,
                kind=node.kind,
                operands=tuple(rename_port(p) for p in node.operands),
                branch=node.branch,
            )
            clone._successors[new_name] = []
        for node in clone:
            for pred in node.predecessor_names():
                clone._successors[pred].append(node.name)
        for out_name, port in self._outputs.items():
            clone._outputs[out_name] = rename_port(port)
        return clone

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"DFG({self.name!r}, {len(self)} ops, kinds={list(self.kinds_used())})"
