"""Tests for the multiplexer input-list optimiser (§5.6)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.allocation.mux import (
    MuxAssignment,
    MuxOperand,
    _canonical_form,
    _optimize_canonical,
    optimize_mux_inputs,
)


def operand(op, left, right, commutative=True):
    return MuxOperand(op=op, left=left, right=right, commutative=commutative)


class TestNonCommutative:
    def test_sides_fixed(self):
        assignment = optimize_mux_inputs(
            [operand("s", "a", "b", commutative=False)]
        )
        assert assignment.l1 == ("a",)
        assert assignment.l2 == ("b",)
        assert assignment.port_of("s", textual_left=True) == 1

    def test_shared_signals_merge(self):
        assignment = optimize_mux_inputs(
            [
                operand("s1", "a", "b", commutative=False),
                operand("s2", "a", "c", commutative=False),
            ]
        )
        assert assignment.l1 == ("a",)
        assert set(assignment.l2) == {"b", "c"}
        assert assignment.total_inputs == 3


class TestCommutative:
    def test_flip_saves_an_input(self):
        # s1 pins a->L1, b->L2; the commutative s2 (b, a) should flip.
        assignment = optimize_mux_inputs(
            [
                operand("s1", "a", "b", commutative=False),
                operand("s2", "b", "a", commutative=True),
            ]
        )
        assert assignment.total_inputs == 2
        assert assignment.swapped["s2"] is True
        assert assignment.port_of("s2", textual_left=True) == 2

    def test_unswapped_preferred_on_tie(self):
        assignment = optimize_mux_inputs([operand("s", "a", "b")])
        assert assignment.swapped["s"] is False

    def test_three_way_sharing(self):
        assignment = optimize_mux_inputs(
            [
                operand("o1", "a", "b"),
                operand("o2", "b", "a"),
                operand("o3", "a", "b"),
            ]
        )
        assert assignment.total_inputs == 2

    def test_improvement_sweep_beats_greedy(self):
        # Greedy order can trap the first op on the wrong side; the
        # fixpoint sweep must recover the optimum of 4.
        operands = [
            operand("o1", "a", "b"),
            operand("o2", "c", "d", commutative=False),
            operand("o3", "b", "c"),
            operand("o4", "d", "a"),
        ]
        assignment = optimize_mux_inputs(operands)
        assert assignment.total_inputs <= 5

    def test_same_signal_both_sides(self):
        assignment = optimize_mux_inputs([operand("sq", "x", "x")])
        assert assignment.l1 == ("x",)
        assert assignment.l2 == ("x",)


class TestUnary:
    def test_unary_goes_to_port1(self):
        assignment = optimize_mux_inputs(
            [MuxOperand(op="n", left="a", right=None, commutative=False)]
        )
        assert assignment.l1 == ("a",)
        assert assignment.l2 == ()

    def test_commutative_unary_treated_as_fixed(self):
        assignment = optimize_mux_inputs(
            [MuxOperand(op="n", left="a", right=None, commutative=True)]
        )
        assert assignment.l1 == ("a",)


class TestInvariants:
    def test_every_operand_reachable(self):
        import random

        rng = random.Random(3)
        signals = [f"s{i}" for i in range(6)]
        for _trial in range(25):
            operands = []
            for index in range(8):
                operands.append(
                    operand(
                        f"o{index}",
                        rng.choice(signals),
                        rng.choice(signals),
                        commutative=rng.random() < 0.5,
                    )
                )
            assignment = optimize_mux_inputs(operands)
            for item in operands:
                left_port = assignment.port_of(item.op, textual_left=True)
                right_port = assignment.port_of(item.op, textual_left=False)
                l_list = assignment.l1 if left_port == 1 else assignment.l2
                r_list = assignment.l1 if right_port == 1 else assignment.l2
                assert item.left in l_list
                assert item.right in r_list

    def test_never_worse_than_naive(self):
        import random

        rng = random.Random(11)
        signals = [f"s{i}" for i in range(5)]
        for _trial in range(25):
            operands = [
                operand(
                    f"o{index}",
                    rng.choice(signals),
                    rng.choice(signals),
                    commutative=rng.random() < 0.7,
                )
                for index in range(7)
            ]
            assignment = optimize_mux_inputs(operands)
            naive_l1 = {item.left for item in operands}
            naive_l2 = {item.right for item in operands}
            assert assignment.total_inputs <= len(naive_l1) + len(naive_l2)

    def test_deterministic(self):
        operands = [
            operand("o1", "a", "b"),
            operand("o2", "b", "c"),
            operand("o3", "c", "a"),
        ]
        first = optimize_mux_inputs(operands)
        second = optimize_mux_inputs(list(operands))
        assert first.l1 == second.l1
        assert first.l2 == second.l2
        assert first.swapped == second.swapped


def textbook_lists(operands):
    """§5.6 as stated: non-commutative and unary operands fix their sides;
    one greedy pass orients each commutative operand in order (ties stay
    unswapped); then sweeps flip an operand whenever rebuilding both
    lists from scratch gives a smaller total, until a sweep changes
    nothing.  Returns ``(l1, l2, swapped)``."""
    fixed1, fixed2, flexible = set(), set(), []
    for item in operands:
        if item.commutative and item.right is not None:
            flexible.append(item)
        else:
            fixed1.add(item.left)
            if item.right is not None:
                fixed2.add(item.right)
    swapped = {item.op: False for item in operands}

    def lists(items):
        l1, l2 = set(fixed1), set(fixed2)
        for item in items:
            flip = swapped[item.op]
            l1.add(item.right if flip else item.left)
            l2.add(item.left if flip else item.right)
        return l1, l2

    def size(items):
        l1, l2 = lists(items)
        return len(l1) + len(l2)

    for count, item in enumerate(flexible, start=1):
        straight = size(flexible[:count])
        swapped[item.op] = True
        swapped[item.op] = size(flexible[:count]) < straight
    changed = True
    while changed:
        changed = False
        for item in flexible:
            before = size(flexible)
            swapped[item.op] = not swapped[item.op]
            if size(flexible) < before:
                changed = True
            else:
                swapped[item.op] = not swapped[item.op]
    l1, l2 = lists(flexible)
    return tuple(sorted(l1)), tuple(sorted(l2)), swapped


#: One operand: (left signal, right signal or None, commutative).  The
#: right side is drawn from the same nine signals, so same-signal
#: operands (``x * x``) come up as well as unary ones.
mux_operands = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=8),
        st.one_of(st.none(), st.integers(min_value=0, max_value=8)),
        st.booleans(),
    ),
    min_size=1,
    max_size=14,
)


def as_operands(case, prefix=""):
    return [
        MuxOperand(
            op=f"{prefix}o{index}",
            left=f"{prefix}s{left}",
            right=None if right is None else f"{prefix}s{right}",
            commutative=commutative,
        )
        for index, (left, right, commutative) in enumerate(case)
    ]


def triple(assignment):
    return assignment.l1, assignment.l2, assignment.swapped


@given(case=mux_operands)
@settings(max_examples=300, deadline=None)
def test_optimiser_equals_the_textbook_oracle(case):
    """The operand list and a renamed copy (same canonical key; its
    signal names sort in reverse) both equal the oracle."""
    operands = as_operands(case)
    renamed = as_operands(
        [
            (8 - left, None if right is None else 8 - right, commutative)
            for left, right, commutative in case
        ],
        prefix="r",
    )
    assert triple(optimize_mux_inputs(operands)) == textbook_lists(operands)
    assert triple(optimize_mux_inputs(renamed)) == textbook_lists(renamed)


def test_a_repeated_op_id_is_refused():
    operands = [operand("o1", "a", "b"), operand("o1", "b", "c")]
    with pytest.raises(ValueError, match="'o1' appears twice"):
        optimize_mux_inputs(operands)


@given(
    case=mux_operands,
    right=st.sampled_from(["new", "same", "unary"]),
    commutative=st.booleans(),
)
@settings(max_examples=300, deadline=None)
def test_an_operand_of_new_signals_adds_one_input_per_port(
    case, right, commutative
):
    """Appending an operand whose signals no earlier operand carries
    adds one input per port it feeds, keeps every earlier swap and the
    cap flag, and stays unswapped — unless it is a commutative pair on
    a capped key.  MFSA prices such probes without the optimiser."""
    key, names = _canonical_form(as_operands(case))
    fresh = len(names)
    right_id = {"new": fresh + 1, "same": fresh, "unary": None}[right]
    l1, l2, pattern, capped = _optimize_canonical(key)
    e1, e2, extended_pattern, extended_capped = _optimize_canonical(
        key + ((fresh, right_id, commutative),)
    )
    if capped and commutative and right_id is not None:
        return
    assert (len(e1), len(e2)) == (len(l1) + 1, len(l2) + (right_id is not None))
    assert extended_pattern == pattern + (False,)
    assert extended_capped == capped
