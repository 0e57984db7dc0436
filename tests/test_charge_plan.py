"""Charge plans are bit-identical to the ``charge()`` calls they replace.

A :class:`~repro.perf.ChargePlan` is charged by one
:meth:`Profiler.charge_plans` call instead of one ``charge()`` per step.
These tests feed two profilers the same random program -- single
charges, raw-cycle charges, region opens and closes, and batches of
plans -- one through ``charge_plans`` and one through the expanded
``charge()`` calls, and require the canonical signatures and clocks to
match exactly, not approximately.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.bignum import kernels as K
from repro.crypto.aes import AES_INIT, AES_ROUND
from repro.perf import (
    LIBCRYPTO, LIBSSL, OTHER, PENTIUM3, PENTIUM4, ChargePlan, InstrMix,
    Profiler, baseline, mix,
)
from repro.perf.isa import ALL_MNEMONICS

FUNCTIONS = ("f0", "f1", "f2", "f3", "f4")
MODULES = (LIBCRYPTO, LIBSSL, OTHER)
REGIONS = ("a", "b", "c")

#: Fractional values whose float sums round differently in each order.
fractions = st.floats(min_value=0.01, max_value=50.0, allow_nan=False,
                      allow_infinity=False)

random_mixes = st.dictionaries(
    st.sampled_from(ALL_MNEMONICS), fractions, min_size=1, max_size=6,
).map(InstrMix)
mixes = st.one_of(
    st.sampled_from([K.MULADD_WORD, K.KERNEL_CALL, AES_INIT, AES_ROUND]),
    random_mixes)

steps = st.tuples(mixes, st.one_of(fractions, st.integers(1, 64)),
                  st.sampled_from(FUNCTIONS), st.sampled_from(MODULES),
                  st.one_of(st.just(1.0), fractions))


def program(n_plans: int):
    """Operations over ``n_plans`` plans, as plain tuples."""
    return st.lists(st.one_of(
        st.tuples(st.just("charge"), steps),
        st.tuples(st.just("cycles"), fractions, st.sampled_from(FUNCTIONS),
                  st.sampled_from(MODULES)),
        st.tuples(st.just("plans"), st.lists(
            st.integers(0, n_plans - 1), min_size=1, max_size=6)),
        st.tuples(st.just("open"), st.sampled_from(REGIONS)),
        st.tuples(st.just("close")),
    ), max_size=40)


@st.composite
def plans_and_program(draw):
    plans = draw(st.lists(st.lists(steps, max_size=8).map(ChargePlan),
                          min_size=1, max_size=4))
    return plans, draw(program(len(plans)))


class _Arm:
    """One side of the comparison: a profiler fed either plan batches or
    their expanded ``charge()`` calls, and its open regions."""

    def __init__(self, cpu, expand: bool):
        self.profiler = Profiler(cpu)
        self.expand = expand
        self.open = []

    def step(self, plans, op) -> None:
        p = self.profiler
        kind = op[0]
        if kind == "charge":
            m, times, function, module, stall = op[1]
            p.charge(m, times, function=function, module=module,
                     stall=stall)
        elif kind == "cycles":
            p.charge_cycles(op[1], function=op[2], module=op[3])
        elif kind == "plans":
            batch = [plans[i] for i in op[1]]
            if not self.expand:
                p.charge_plans(batch)
                return
            for plan in batch:
                for m, times, function, module, stall in plan.steps:
                    p.charge(m, times, function=function, module=module,
                             stall=stall)
        elif kind == "open":
            region = p.region(op[1])
            region.__enter__()
            self.open.append(region)
        elif self.open:
            self.open.pop().__exit__(None, None, None)

    def close(self) -> None:
        while self.open:
            self.open.pop().__exit__(None, None, None)

    def signature(self):
        """The gate's canonical signature, the clock, and what it leaves
        out: each region's per-function cycles and each function's module
        and instruction mix."""
        p = self.profiler
        return (baseline.canonical_json(baseline.capture(p, scenario="plans")),
                p.now(),
                {node.path(): dict(node.func_cycles)
                 for node in p.root.walk()},
                {name: (fs.module, fs.mix.snapshot().counts)
                 for name, fs in p.functions.items()})


def _run_pairs(cpus, plans, ops):
    """Run ``ops`` on a planned and an expanded profiler per CPU, one
    operation at a time across all of them, so plans shared between
    CPUs rebind on every batch."""
    pairs = [(_Arm(cpu, False), _Arm(cpu, True)) for cpu in cpus]
    for op in ops:
        for pair in pairs:
            for arm in pair:
                arm.step(plans, op)
    # Compare with regions still open, then after they all close.
    for planned, expanded in pairs:
        assert planned.signature() == expanded.signature()
        planned.close()
        expanded.close()
        assert planned.signature() == expanded.signature()
    return pairs


@given(plans_and_program(), st.sampled_from([PENTIUM4, PENTIUM3]))
@settings(max_examples=150, deadline=None)
def test_plans_equal_expanded_charges(case, cpu):
    plans, ops = case
    _run_pairs([cpu], plans, ops)


@given(plans_and_program())
@settings(max_examples=60, deadline=None)
def test_plan_rebinds_between_cpus(case):
    """The same plans charged alternately into P4 and P3 profilers."""
    plans, ops = case
    _run_pairs([PENTIUM4, PENTIUM3], plans, ops)


def test_repeated_plan_keeps_every_addition():
    """Charging one plan k times is k charges, not one pre-added one."""
    plan = ChargePlan([(mix(movl=0.1), 1.0, "f", LIBCRYPTO, 1.0),
                       (mix(xorl=0.2), 3.0, "g", LIBCRYPTO, 1.3)])
    [(planned, _)] = _run_pairs(
        [PENTIUM4], [plan], [("plans", [0] * 7), ("open", "a"),
                             ("plans", [0, 0]), ("close",), ("plans", [0])])
    assert planned.profiler.functions["f"].calls == 10
    assert planned.profiler.functions["g"].calls == 10


def test_plan_appends_shared_entries():
    plan = ChargePlan([(mix(movl=1), 2.0, "f", LIBCRYPTO, 1.0)])
    p = Profiler()
    p.charge_plans([plan, plan])
    first, second = p.global_mix._pending
    assert first is second
    assert p.functions["f"].mix._pending[0] is first


@pytest.mark.parametrize("stall", [0.0, -1.0])
def test_nonpositive_stall_rejected(stall):
    m = mix(movl=1)
    with pytest.raises(ValueError):
        ChargePlan([(m, 1.0, "f", LIBCRYPTO, stall)])
    with pytest.raises(ValueError):
        Profiler().charge(m, function="f", stall=stall)


def test_empty_batch_and_empty_plan_charge_nothing():
    p = Profiler()
    p.charge_plans([])
    p.charge_plans([ChargePlan([])])
    assert p.now() == 0.0
    assert p.functions == {}
