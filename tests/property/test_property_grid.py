"""Property-based tests (hypothesis): the grid's per-step column bitmasks.

:class:`~repro.core.grid.PlacementGrid` keeps one bitmask of occupied
columns per (table, folded step), updated by ``place`` and ``remove``;
``free_columns`` takes a step's free columns from them, checking an
occupied column occupant by occupant only for an operation on a branch
(§5.1), and :meth:`~repro.core.frames.FrameSet.steps` walks them.  On
random placement sequences — over mutually exclusive branch occupants,
multi-cycle spans, functional pipelining folds, structurally pipelined
tables, ``widen`` and ``remove`` — each step's free columns must equal
the cells the occupant lists admit (an oracle that reads no bitmask),
and :meth:`~repro.core.grid.PlacementGrid.is_free` must agree with them
cell by cell.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.frames import compute_frames
from repro.core.grid import GridPosition, PlacementGrid
from repro.dfg.analysis import TimingModel
from repro.dfg.graph import DFG, Port
from repro.dfg.ops import standard_operation_set

TIMING = TimingModel(ops=standard_operation_set())
TABLE = "t"

#: Branch paths over two conditions: unconditional, each arm, and nested.
BRANCHES = (
    (),
    (("c", True),),
    (("c", False),),
    (("d", True),),
    (("c", True), ("d", True)),
    (("c", True), ("d", False)),
)

nodes = st.lists(
    st.tuples(
        st.integers(min_value=1, max_value=3),  # latency
        st.sampled_from(BRANCHES),
    ),
    min_size=2,
    max_size=8,
)

actions = st.lists(
    st.one_of(
        st.tuples(
            st.just("place"),
            st.integers(min_value=0, max_value=7),  # node
            st.integers(min_value=1, max_value=6),  # x
            st.integers(min_value=1, max_value=8),  # y
        ),
        st.tuples(st.just("remove"), st.integers(min_value=0, max_value=7)),
        st.tuples(st.just("widen"), st.integers(min_value=1, max_value=2)),
    ),
    max_size=24,
)


def reference_free(grid, dfg, node, x, y, latency, pipelined):
    """Whether the occupant lists admit ``node`` at ``(x, y)``: in the
    table, inside the grid, no self-colliding fold, and every occupant
    of the span mutually exclusive with it."""
    if not 1 <= x <= grid.columns(TABLE) or y < 1 or y + latency - 1 > grid.cs:
        return False
    span = 1 if pipelined else latency
    if grid.latency_l and span > grid.latency_l:
        return False
    return all(
        dfg.mutually_exclusive(node, other)
        for i in range(span)
        for other in grid.occupants(TABLE, x, y + i)
    )


def assert_steps_match(grid, dfg, latencies, pipelined, excluded):
    for name, latency in latencies.items():
        frame = compute_frames(
            dfg,
            TIMING,
            grid,
            name,
            table=TABLE,
            asap={name: 1},
            alap={name: grid.cs},
            current=grid.columns(TABLE),
            placed_starts={},
            excluded_instances=excluded,
            bounds=(latency, 0, grid.cs + 1, ()),
        )
        walked = dict(frame.steps())
        for y in range(1, grid.cs + 1):
            free = [
                x
                for x in range(1, grid.columns(TABLE) + 2)
                if reference_free(grid, dfg, name, x, y, latency, pipelined)
            ]
            for x in range(1, grid.columns(TABLE) + 2):
                assert grid.is_free(name, TABLE, x, y, latency) == (x in free), (
                    name, x, y,
                )
            expected = [x for x in free if x not in excluded]
            assert walked.get(y, []) == expected, (name, y)


@given(
    specs=nodes,
    script=actions,
    cs=st.integers(min_value=2, max_value=8),
    columns=st.integers(min_value=1, max_value=5),
    latency_l=st.sampled_from([None, 2, 3]),
    pipelined=st.booleans(),
    excluded=st.sampled_from([(), (1,), (2, 3)]),
)
@settings(
    max_examples=200,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_step_free_columns_equal_per_cell_freedom(
    specs, script, cs, columns, latency_l, pipelined, excluded
):
    dfg = DFG("grid")
    dfg.add_input("a")
    latencies = {}
    for index, (latency, branch) in enumerate(specs):
        name = f"n{index}"
        dfg.add_op("add", [Port.input("a")], name=name, branch=branch)
        latencies[name] = latency
    grid = PlacementGrid(
        dfg,
        cs,
        columns={TABLE: columns},
        latency_l=latency_l,
        pipelined_tables=(TABLE,) if pipelined else (),
    )
    names = list(latencies)
    for action in script:
        if action[0] == "place":
            name = names[action[1] % len(names)]
            x, y = action[2], action[3]
            if grid.position_of(name) is None and reference_free(
                grid, dfg, name, x, y, latencies[name], pipelined
            ):
                grid.place(name, GridPosition(TABLE, x, y), latencies[name])
        elif action[0] == "remove":
            name = names[action[1] % len(names)]
            if grid.position_of(name) is not None:
                grid.remove(name)
        else:
            grid.widen(TABLE, grid.columns(TABLE) + action[1])
        assert_steps_match(grid, dfg, latencies, pipelined, excluded)
