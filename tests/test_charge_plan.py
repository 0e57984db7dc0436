"""Charge plans are bit-identical to the ``charge()`` calls they replace.

A :class:`~repro.perf.ChargePlan` is charged by one
:meth:`Profiler.charge_plans` call instead of one ``charge()`` per step.
These tests feed two profilers the same random program -- single
charges, raw-cycle charges, region opens and closes, and batches of
plans, some repeated hundreds of times, some after a large opening
charge -- one through ``charge_plans`` and one through the expanded
``charge()`` calls, and require the canonical signatures and clocks to
match exactly, not approximately.  The exact step that moves a chain by
a whole batch is checked on its own against the left-to-right ``+=``
loop, and a warm profiler must take it without adding an addend one at
a time; a private decryption's crossings add only a few.
"""

from __future__ import annotations

import math
from collections import Counter
from contextlib import contextmanager
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from repro import perf
from repro.bignum import BigNum
from repro.bignum import kernels as K
from repro.crypto.aes import _ENCRYPT_PLANS, AES_INIT, AES_ROUND
from repro.perf import (
    LIBCRYPTO, LIBSSL, OTHER, PENTIUM3, PENTIUM4, ChargePlan, InstrMix,
    Profiler, baseline, mix,
)
from repro.perf import profiler as profiler_module
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


#: How often a plan repeats in a row within a batch: mostly a few times,
#: sometimes hundreds, as in a CBC record or an exponent scan.
repeats = st.one_of(st.integers(1, 3), st.integers(1, 300))


def program(n_plans: int):
    """Operations over ``n_plans`` plans, as plain tuples.  A batch is a
    list of plan indices: a short one, which ``charge_plans`` walks, or
    one built from runs of one index."""
    plan = st.integers(0, n_plans - 1)
    batch = st.one_of(
        st.lists(plan, min_size=1, max_size=8),
        st.lists(st.tuples(plan, repeats), min_size=1, max_size=6).map(
            lambda runs: [i for i, k in runs for _ in range(k)]))
    return st.lists(st.one_of(
        st.tuples(st.just("charge"), steps),
        st.tuples(st.just("cycles"), fractions, st.sampled_from(FUNCTIONS),
                  st.sampled_from(MODULES)),
        st.tuples(st.just("plans"), batch),
        st.tuples(st.just("open"), st.sampled_from(REGIONS)),
        st.tuples(st.just("close")),
    ), max_size=40)


#: Large raw-cycle charges that may open a program, so that batches land
#: on old chains (the exact step, and its binade crossings) as well as
#: on young ones.
openings = st.lists(st.tuples(
    st.just("cycles"), st.floats(min_value=1e3, max_value=1e12),
    st.sampled_from(FUNCTIONS), st.sampled_from(MODULES)), max_size=3)


@st.composite
def plans_and_program(draw):
    plans = draw(st.lists(st.lists(steps, max_size=8).map(ChargePlan),
                          min_size=1, max_size=4))
    return plans, draw(openings) + draw(program(len(plans)))


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
        out: each function's module and instruction mix."""
        p = self.profiler
        return (baseline.canonical_json(baseline.capture(p, scenario="plans")),
                p.now(),
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
    """Charging one plan k times gives the bits of k charges."""
    plan = ChargePlan([(mix(movl=0.1), 1.0, "f", LIBCRYPTO, 1.0),
                       (mix(xorl=0.2), 3.0, "g", LIBCRYPTO, 1.3)])
    [(planned, _)] = _run_pairs(
        [PENTIUM4], [plan], [("plans", [0] * 7), ("open", "a"),
                             ("plans", [0, 0]), ("close",), ("plans", [0])])
    assert planned.profiler.functions["f"].calls == 10
    assert planned.profiler.functions["g"].calls == 10


def test_plan_call_leaves_one_pending_record():
    """One call leaves one record in the global pending mix and one in
    each function's, and they fold to the expanded charges' mixes."""
    plan = ChargePlan([(mix(movl=1), 2.0, "f", LIBCRYPTO, 1.0),
                       (mix(xorl=0.3), 3.0, "g", LIBSSL, 1.1),
                       (mix(addl=0.7), 1.0, "f", LIBCRYPTO, 1.0)])
    other_plan = ChargePlan([(mix(addl=0.9), 1.0, "g", LIBSSL, 1.2)])
    # Walked (up to WALK_PLANS plans) and stepped calls alike.
    for batch in ([plan, plan], [plan, other_plan] * 4,
                  [other_plan] + [plan] * 8, [plan, other_plan] * 20):
        planned, expanded = Profiler(), Profiler()
        planned.charge_plans(batch)
        _expand(expanded, batch)
        assert len(planned.global_mix._pending) == 1
        assert [len(fs.mix._pending) for fs in planned.functions.values()] \
            == [1, 1]
        assert planned.total_instructions() == expanded.total_instructions()
        assert planned.global_mix.snapshot() == expanded.global_mix.snapshot()
        for name, fs in planned.functions.items():
            other = expanded.functions[name]
            assert fs.mix.total() == other.mix.total()
            assert fs.mix.snapshot() == other.mix.snapshot()
            assert (fs.module, fs.calls) == (other.module, other.calls)


@contextmanager
def _plan_batches():
    """Records the plans of each ``charge_plans`` call, which charges
    them as usual."""
    batches = []
    real = Profiler.charge_plans

    def charge_plans(self, plans):
        batches.append(list(plans))
        real(self, plans)

    with mock.patch.object(Profiler, "charge_plans", charge_plans):
        yield batches


def test_private_decryption_pending_is_per_call(rsa1024):
    """A charged 1024-bit private decryption leaves one global pending
    item per ``charge`` or ``charge_plans`` call, and one per function
    per call, not two per charged step."""
    key = rsa1024.replica()
    c = BigNum.from_int(key.n.to_int() // 3)
    key.raw_private(c)  # builds the Montgomery contexts, uncharged below
    p = Profiler()
    charges = mock.patch.object(Profiler, "charge", autospec=True,
                                side_effect=Profiler.charge)
    with charges as charge, _plan_batches() as batches, perf.activate(p):
        key.raw_private(c)
    per_call = sum(len({step[2] for plan in batch for step in plan.steps})
                   for batch in batches)
    steps = sum(len(plan.steps) for batch in batches for plan in batch)
    assert steps > 10_000
    assert len(p.global_mix._pending) == charge.call_count + len(batches)
    assert (sum(len(fs.mix._pending) for fs in p.functions.values())
            == charge.call_count + per_call)
    assert len(p.global_mix._pending) < 100


# -- the exact step -----------------------------------------------------------

def _loop(v, addends, order):
    """The left-to-right ``+=`` chain: ``v`` plus each plan's addends in
    the order ``order`` names the plans."""
    for i in order:
        for c in addends[i] or ():
            v += c
    return v


@st.composite
def chain_cases(draw):
    """A start, up to five plans' addends (None for a plan that does not
    touch the chain) and an order of their charges: up to three runs of
    up to 10^4, or up to 60 runs of up to 300, as a scan interleaves its
    squarings and multiplies."""
    v = draw(st.one_of(
        st.just(0.0),
        st.floats(min_value=5e-324, max_value=2e-308),  # subnormal
        st.floats(min_value=1e-300, max_value=1e12),
        st.floats(min_value=1e15, max_value=1e300),
        st.integers(-1000, 1000).map(
            lambda k: math.nextafter(2.0 ** k, 0.0)),
        st.tuples(st.integers(8, 60), st.floats(0.0, 1e7)).map(
            lambda kd: max(2.0 ** kd[0] - kd[1], 1.0)),  # crossing mid-call
        st.just(math.inf),
    ))
    ulp = math.ulp(v)
    addend = st.one_of(
        st.floats(min_value=0.0, max_value=1e4),
        st.just(0.0),
        st.integers(0, 8).map(lambda k: (k + 0.5) * ulp),  # exact half
        st.integers(0, 8).map(lambda k: k * ulp),
        st.floats(min_value=1.0, max_value=4.0).map(lambda f: f * v),
        st.floats(min_value=-1e3, max_value=-1e-3),
    )
    addends = draw(st.lists(st.one_of(st.lists(addend, max_size=5),
                                      st.none()),
                            min_size=1, max_size=5))
    plan = st.integers(0, len(addends) - 1)
    runs = draw(st.one_of(
        st.lists(st.tuples(plan, st.integers(1, 10_000)),
                 min_size=1, max_size=3),
        st.lists(st.tuples(plan, st.integers(1, 300)),
                 min_size=1, max_size=60)))
    return v, addends, [i for i, k in runs for _ in range(k)]


@given(chain_cases())
@example((1e-300, [[1e4]], [0, 0]))  # an addend far above the binade
@example((0.75, [[2.0 ** -54, 0.0]], [0] * 5))  # on a half ulp
@example((math.inf, [[1.0], None], [1, 0, 1]))  # no binade to step in
# Crosses into the next binade mid-call, past plans that do not touch it.
@example((2.0 ** 20 - 3.0, [[1.0], None, [0.5, 1.0]], [1, 0, 2] * 3))
@settings(max_examples=300, deadline=None)
def test_exact_step_matches_left_to_right_loop(case):
    v, addends, order = case
    plans = [object() for _ in addends]
    counts = Counter(i for i in order if addends[i] is not None)
    terms = [(n, plans[i], (tuple(addends[i]), {}))
             for i, n in counts.items()]
    got = profiler_module._advance(v, terms, [plans[i] for i in order])
    assert got.hex() == _loop(v, addends, order).hex()


def _assert_same_chains(planned, expanded):
    """Every chain of ``planned`` has the bits of ``expanded``'s."""
    for name, fs in planned.functions.items():
        other = expanded.functions[name]
        assert (fs.module, fs.cycles, fs.calls) \
            == (other.module, other.cycles, other.calls)
    assert list(planned.functions) == list(expanded.functions)
    assert list(planned.modules.items()) == list(expanded.modules.items())
    assert planned.now() == expanded.now()
    assert planned.root.exclusive_cycles == expanded.root.exclusive_cycles


def _expand(p, plans):
    """Charge ``plans`` into ``p`` one ``charge()`` per step."""
    for plan in plans:
        for m, times, function, module, stall in plan.steps:
            p.charge(m, times, function=function, module=module,
                     stall=stall)


def test_warm_chains_take_the_exact_step():
    """1,024 AES-128 block plans into a profiler whose every chain is
    already large add nothing one at a time: a regression to adding
    every addend keeps the bits and only shows here."""
    planned, expanded = Profiler(), Profiler()
    for p in (planned, expanded):
        p.charge_cycles(1.5 * 2.0 ** 30, function="AES_encrypt",
                        module=LIBCRYPTO)
    add = mock.Mock(side_effect=profiler_module._add)
    with mock.patch.object(profiler_module, "_add", add):
        planned.charge_plans(_ENCRYPT_PLANS[10] * 1024)
    assert add.call_count == 0
    _expand(expanded, _ENCRYPT_PLANS[10] * 1024)
    _assert_same_chains(planned, expanded)


def test_young_chain_adds_one_plan_per_binade():
    """A chain at 0 charged 1,000 plans of 1.0 adds its first plan one
    addend at a time, and then only the plan that crosses into each of
    the nine binades it climbs to 1,000."""
    plan = object()
    add = mock.Mock(side_effect=profiler_module._add)
    with mock.patch.object(profiler_module, "_add", add):
        v = profiler_module._advance(0.0, [(1000, plan, ((1.0,), {}))],
                                     [plan] * 1000)
    assert v == 1000.0
    assert add.call_count == 10


def test_private_decryption_crossings_jump(rsa1024):
    """The two ``charge_plans`` batches of a charged 1024-bit non-CRT
    private decryption, charged 12 times into a fresh profiler as one
    ``full_handshake`` run charges them: every young chain crosses
    binades inside a scan, and each crossing adds only its crossing
    plan one addend at a time (a whole-call walk here adds about
    190,000), with the bits of the expanded calls."""
    key = rsa1024.replica()
    key.use_crt = False
    c = BigNum.from_int(key.n.to_int() // 3)
    key.raw_private(c)  # builds the Montgomery context, uncharged below
    with _plan_batches() as batches, perf.activate(Profiler()):
        key.raw_private(c)
    assert len(batches) == 2
    assert len(batches[0]) == 33 and len(batches[1]) > 1_000
    planned, expanded = Profiler(), Profiler()
    add = mock.Mock(side_effect=profiler_module._add)
    with mock.patch.object(profiler_module, "_add", add):
        for _ in range(12):
            for batch in batches:
                planned.charge_plans(batch)
    additions = sum(len(call.args[1]) for call in add.call_args_list)
    assert 0 < additions < 2_000
    for _ in range(12):
        for batch in batches:
            _expand(expanded, batch)
    _assert_same_chains(planned, expanded)


# -- short calls walk ---------------------------------------------------------

#: Two plans with fractional addends over two modules and three functions.
_SHORT_PLANS = (
    ChargePlan([(mix(movl=0.1), 1.0, "f", LIBCRYPTO, 1.0),
                (mix(xorl=0.7), 3.0, "g", LIBSSL, 1.3),
                (mix(addl=0.3), 1.0, "f", LIBCRYPTO, 1.1)]),
    ChargePlan([(mix(roll=0.9), 2.0, "h", LIBCRYPTO, 1.52)]),
)


@pytest.mark.parametrize("n,stepped", [(8, False), (9, True)])
@pytest.mark.parametrize("start", [0.0, 2.0 ** 22 - 1.0])
def test_short_call_walks(n, stepped, start):
    """A call of at most ``WALK_PLANS`` plans adds every addend one at a
    time and makes no ``_advance`` call; one more plan takes the step.
    Both end with the expanded ``charge()`` calls' bits, on fresh
    chains and on function chains that cross a binade inside the
    call."""
    assert profiler_module.WALK_PLANS == 8
    batch = [_SHORT_PLANS[i % 3 // 2] for i in range(n)]
    planned, expanded = Profiler(), Profiler()
    for p in (planned, expanded):
        if start:
            for function in ("f", "g", "h"):
                p.charge_cycles(start, function=function, module=LIBCRYPTO)
    advance = mock.Mock(side_effect=profiler_module._advance)
    with mock.patch.object(profiler_module, "_advance", advance):
        planned.charge_plans(batch)
    assert (advance.call_count > 0) == stepped
    _expand(expanded, batch)
    _assert_same_chains(planned, expanded)
    assert planned.global_mix.snapshot() == expanded.global_mix.snapshot()


# -- recorded plans -----------------------------------------------------------

def _construction(k: int) -> None:
    """Charges of a keyed-hash construction's shape: single charges
    around a batch of plans."""
    perf.charge(mix(movl=0.1), function="f")
    perf.charge_plans(list(_SHORT_PLANS) * k)
    perf.charge(mix(xorl=0.3), times=2, function="g", module=LIBSSL,
                stall=1.3)


def test_plan_of_records_the_charges_of_a_call():
    """``plan_of`` keeps every charge of the call, a plan batch's as its
    steps, and charges none of them to the active profiler; its plan,
    charged in one call, gives the call's own bits."""
    outer = Profiler()
    with perf.activate(outer):
        plan = perf.plan_of(_construction, 3)
    assert outer.now() == 0.0 and outer.functions == {}
    assert len(plan.steps) == 2 + 3 * 4
    planned, called = Profiler(), Profiler()
    planned.charge_plans([plan])
    with perf.activate(called):
        _construction(3)
    _assert_same_chains(planned, called)
    assert planned.global_mix.snapshot() == called.global_mix.snapshot()


def _open_region() -> None:
    with perf.region("inner"):
        perf.charge(mix(movl=1), function="f")


@pytest.mark.parametrize("call,what", [
    (_open_region, "region"),
    (lambda: perf.charge_cycles(5.0), "raw cycles"),
], ids=["region", "charge_cycles"])
def test_plan_of_refuses_what_a_plan_cannot_hold(call, what):
    """A plan holds no region and no raw cycles: recording a call that
    opens one or charges them raises, and the recorder is no longer
    active afterwards."""
    outer = Profiler()
    with perf.activate(outer):
        with pytest.raises(RuntimeError, match=what):
            perf.plan_of(call)
        assert perf.current() is outer
    assert outer.now() == 0.0


def test_recorder_checks_stall_and_adds_nothing():
    r = perf.Recorder()
    with pytest.raises(ValueError, match="stall_factor"):
        r.charge(mix(movl=1), function="f", stall=0)
    r.charge(mix(movl=1), 2.0, function="f", module=LIBSSL, stall=1.5)
    assert r.steps == [(mix(movl=1), 2.0, "f", LIBSSL, 1.5)]
    assert r.now() == 0.0 and r.functions == {}


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
