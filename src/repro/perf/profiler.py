"""Hierarchical cycle-accounting profiler.

This is the reproduction's stand-in for the paper's measurement toolchain:

* Oprofile's module/function flat profile  -> :meth:`Profiler.module_breakdown`
  and :meth:`Profiler.function_breakdown` (Tables 1 and 8);
* ``rdtsc`` timestamps around handshake steps -> :meth:`Profiler.region` and
  :meth:`Profiler.now` (Tables 2, 5, 6, 7, 10);
* SoftSDV instruction traces -> the accumulated :class:`~repro.perf.isa.InstrMix`
  per function (Table 12) and derived CPI / path length (Table 11).

Instrumented code *charges* instruction mixes (or, for modelled non-crypto
components such as the kernel TCP stack, raw cycles) into the active
profiler.  Charges are attributed three ways at once:

* to the innermost open **region** (a node in a tree of nested
  context-manager scopes, e.g. ``handshake/get_client_kx/rsa_private_decryption``);
* to a flat **function** profile (self-time, like Oprofile);
* to a flat **module** profile (``libcrypto``, ``libssl``, ``httpd``,
  ``vmlinux``, ``other``).

A module-level *active profiler stack* lets deeply nested kernels charge
without threading a profiler object through every call; see
:func:`current`, :func:`activate` and the convenience wrappers
:func:`charge` / :func:`region`.

Kernels whose per-invocation charges form a fixed sequence (one
Montgomery product, one cipher block) describe that sequence once as a
:class:`ChargePlan` and charge it with :func:`charge_plans`, which is
bit-identical to the expanded :func:`charge` calls but makes one call
instead of one per phase.  A construction whose charges depend on its
input lengths only (a record MAC, a key derivation) gets its plan from
:func:`plan_of`, which records the charges of one call on a
:class:`Recorder`.
"""

from __future__ import annotations

import sys
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field
from math import frexp, ldexp
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from .cpu import CpuModel, PENTIUM4
from .isa import InstrMix, MixAccumulator, left_sum

#: Module names mirroring Table 1 of the paper.
LIBCRYPTO = "libcrypto"
LIBSSL = "libssl"
HTTPD = "httpd"
VMLINUX = "vmlinux"
OTHER = "other"


@dataclass
class FunctionStats:
    """Flat (self-time) statistics for one named function."""

    name: str
    module: str
    cycles: float = 0.0
    calls: int = 0
    mix: MixAccumulator = field(default_factory=MixAccumulator)

    def instructions(self) -> float:
        return self.mix.total()


class RegionNode:
    """One node of the region tree.

    ``exclusive_cycles`` counts charges made while this region was innermost;
    :meth:`inclusive_cycles` adds everything charged in enclosed sub-regions.
    A region keeps cycles only: the handshake anatomy report (Table 2)
    lists the crypto work inside each step from its sub-regions, and the
    per-function view is the flat profile in :attr:`Profiler.functions`.
    """

    __slots__ = ("name", "parent", "children", "exclusive_cycles", "entries")

    def __init__(self, name: str, parent: Optional["RegionNode"] = None):
        self.name = name
        self.parent = parent
        self.children: Dict[str, RegionNode] = {}
        self.exclusive_cycles = 0.0
        self.entries = 0

    def child(self, name: str) -> "RegionNode":
        node = self.children.get(name)
        if node is None:
            node = RegionNode(name, self)
            self.children[name] = node
        return node

    def inclusive_cycles(self) -> float:
        return self.exclusive_cycles + left_sum(
            c.inclusive_cycles() for c in self.children.values())

    def path(self) -> str:
        parts: List[str] = []
        node: Optional[RegionNode] = self
        while node is not None and node.parent is not None:
            parts.append(node.name)
            node = node.parent
        return "/".join(reversed(parts))

    def walk(self) -> Iterator["RegionNode"]:
        yield self
        for c in self.children.values():
            yield from c.walk()

    def __repr__(self) -> str:
        return (f"RegionNode({self.path()!r}, "
                f"inclusive={self.inclusive_cycles():.0f})")


#: One step of a :class:`ChargePlan`, the arguments of one
#: :meth:`Profiler.charge` call: ``(mix, times, function, module, stall)``.
PlanStep = Tuple[InstrMix, float, str, str, float]

#: A plan's addends to one chain and its memo of their whole-ulp sums:
#: ``(cycles of the steps, {exponent: _ulps(cycles, exponent)})``.
Chain = Tuple[Tuple[float, ...], Dict[int, int]]

#: A distinct plan of a call, as one chain sees it: ``(count, plan, the
#: plan's chain)``.
Term = Tuple[int, "ChargePlan", Chain]

_MIN_NORMAL = sys.float_info.min
_INF = float("inf")
_TWO53 = 2.0 ** 53

#: The most plans a :meth:`Profiler.charge_plans` call adds one addend at
#: a time (:meth:`Profiler._walk`); longer calls take the whole-ulp step.
WALK_PLANS = 8


def _ulps(addends: Sequence[float], e: int) -> int:
    """The whole ulps ``addends`` add to a float in ``[2**(e-1), 2**e)``.

    There the ulp is ``u = 2**(e-53)`` and ``v + c`` rounds to ``v +
    round(c / u) * u`` whatever ``v`` is, as long as the sum stays below
    ``2**e``.  Returns the sum of ``round(c / u)``, or -1 if an addend is
    negative, reaches ``2**e`` or lies on an exact half ulp, where the
    tie goes to the even neighbour and so depends on ``v``.
    """
    top = ldexp(1.0, e)
    total = 0
    for c in addends:
        if not 0.0 <= c < top:
            return -1
        q = ldexp(c, 53 - e)
        k = round(q)
        if abs(q - k) == 0.5:
            return -1
        total += k
    return total


def _add(v: float, addends: Sequence[float]) -> float:
    """``v`` plus ``addends``, one ``+=`` at a time, as the expanded
    ``charge`` calls add them: every addition :func:`_advance` does not
    fold into a step."""
    for c in addends:
        v += c
    return v


def _tally(plans: Sequence["ChargePlan"], terms: Sequence[Term], i: int,
           k: int) -> Dict["ChargePlan", int]:
    """How often each plan of ``terms`` occurs in ``plans[i:k]``, where
    ``terms`` counts it in ``plans[i:]``: counted on the shorter side of
    ``k``."""
    if k - i <= len(plans) - k:
        part = plans[i:k]
        return {plan: part.count(plan) for _, plan, _ in terms}
    part = plans[k:]
    return {plan: n - part.count(plan) for n, plan, _ in terms}


def _crossing(plans: Sequence["ChargePlan"], terms: Sequence[Term], i: int,
              e: int, room: int) -> Tuple[int, Dict["ChargePlan", int], int]:
    """Where a chain leaves its binade ``[2**(e-1), 2**e)`` in
    ``plans[i:]``.

    The chain lies ``room`` whole ulps below ``2**e``, and ``terms``
    counts the plans of ``plans[i:]`` that touch it, whose whole ulps at
    ``e`` are memoized; a plan with an addend :func:`_ulps` rejects
    weighs the whole room.  Returns ``(k, before, ulps)``: ``plans[k]``
    is the first plan after which the sum reaches ``room``, ``before``
    counts each plan of ``terms`` in ``plans[i:k]`` and ``ulps`` is
    their sum.  ``k`` is estimated from the share of the call's ulps
    that fits in ``room``, counted there (:func:`_tally`) and moved one
    plan at a time to the exact index.
    """
    weights = {}
    total = 0
    for n, plan, (_, memo) in terms:
        s = memo[e]
        weights[plan] = w = s if s >= 0 else room
        total += n * w
    k = i + (len(plans) - i) * room // total
    before = _tally(plans, terms, i, k)
    ulps = 0
    for plan, n in before.items():
        ulps += n * weights[plan]
    while ulps >= room:  # past the crossing plan: back to it
        k -= 1
        plan = plans[k]
        if plan in before:
            before[plan] -= 1
            ulps -= weights[plan]
    while True:  # short of it: on to it
        plan = plans[k]
        if plan in before:
            if ulps + weights[plan] >= room:
                return k, before, ulps
            before[plan] += 1
            ulps += weights[plan]
        k += 1


def _advance(v: float, terms: Sequence[Term],
             plans: Sequence["ChargePlan"]) -> float:
    """One chain at ``v`` after ``plans``, where ``terms`` gives each
    distinct plan's count in ``plans`` and its chain.

    Bit-identical to adding each plan's addends, in the order of
    ``plans``, one ``+=`` at a time.  Within one binade every addition
    adds a whole number of ulps that depends on the addend only
    (:func:`_ulps`), so the chain moves by the counted sum of those in
    one exact step.  Where that sum would reach the next binade, or a
    plan holds an addend the step cannot take (negative, at or above the
    binade's top, or on a half ulp), the chain jumps: it steps over the
    plans before the first such plan (:func:`_crossing`), adds that
    plan's addends one at a time and goes on with the rest of ``plans``
    from its new binade.  A chain at 0, subnormal or negative adds its
    next plan's addends one at a time; only a chain that is not finite
    adds all of them so.
    """
    i = 0
    while terms:
        if _MIN_NORMAL <= v < _INF:
            mant, e = frexp(v)
            room = (1.0 - mant) * _TWO53  # ulps below 2**e, a whole number
            total = 0
            for n, _, (addends, memo) in terms:
                s = memo.get(e)
                if s is None:
                    s = memo[e] = _ulps(addends, e)
                total += n * s if s >= 0 else room
            if total < room:
                return v + ldexp(total, e - 53)
            k, before, ulps = _crossing(plans, terms, i, e, int(room))
            v += ldexp(ulps, e - 53)
        elif -_INF < v < _MIN_NORMAL:
            k = min(plans.index(plan, i) for _, plan, _ in terms)
            before = {plan: 0 for _, plan, _ in terms}
        else:
            chains = {plan: chain for _, plan, chain in terms}
            for plan in plans[i:]:
                if plan in chains:
                    v = _add(v, chains[plan][0])
            return v
        walked = plans[k]
        before[walked] += 1
        rest = []
        for n, plan, chain in terms:
            if plan is walked:
                v = _add(v, chain[0])
            if n > before[plan]:
                rest.append((n - before[plan], plan, chain))
        terms, i = rest, k + 1
    return v


class ChargePlan:
    """A fixed sequence of :meth:`Profiler.charge` calls, charged as one.

    A plan precomputes each step's cycles, from :meth:`CpuModel.cycles`
    on the CPU the plan was last charged on (a profiler with another CPU
    rebinds it first), grouped into the plan's chains: all steps (the
    region and the clock), each module's and each function's.  Each
    chain memoizes the whole ulps its addends add to a value of a given
    binade, which is how :meth:`Profiler.charge_plans` moves a chain by
    many charges in one exact step, or, where the chain crosses into the
    next binade, in one step to the crossing plan and one after it; a
    rebind clears the memos.  Its ``(mix, times)`` entries, whole and
    per function, are built once and expanded from one pending-mix
    record per call when a mix folds.
    """

    __slots__ = ("steps", "_shares", "_cpu", "_chain", "_modules",
                 "_functions")

    def __init__(self, steps: Iterable[PlanStep]):
        self.steps: Tuple[PlanStep, ...] = tuple(steps)
        shares: Dict[Optional[str], List[Tuple[InstrMix, float]]] = {
            None: []}
        for m, times, function, _, stall in self.steps:
            if stall <= 0:
                raise ValueError("stall_factor must be positive")
            shares[None].append((m, times))
            shares.setdefault(function, []).append((m, times))
        #: ``(mix, times)`` entries of every step (key None) and of each
        #: function's steps, in step order: what a pending-mix record
        #: ``(plans, key)`` expands to, plan by plan.
        self._shares = {key: tuple(e) for key, e in shares.items()}
        self._cpu: Optional[CpuModel] = None
        self._chain: Chain = ((), {})
        #: ``(module, chain)`` in first-step order.
        self._modules: Tuple[Tuple[str, Chain], ...] = ()
        #: ``(function, module of its first step, chain)`` in first-step
        #: order.
        self._functions: Tuple[Tuple[str, str, Chain], ...] = ()

    def _bind(self, cpu: CpuModel) -> None:
        cycles = [cpu.cycles(m, stall) * times
                  for m, times, _, _, stall in self.steps]
        modules: Dict[str, List[float]] = {}
        functions: Dict[str, Tuple[str, List[float]]] = {}
        for c, (_, _, function, module, _) in zip(cycles, self.steps):
            modules.setdefault(module, []).append(c)
            functions.setdefault(function, (module, []))[1].append(c)
        self._chain = (tuple(cycles), {})
        self._modules = tuple((module, (tuple(c), {}))
                              for module, c in modules.items())
        self._functions = tuple(
            (function, module, (tuple(c), {}))
            for function, (module, c) in functions.items())
        self._cpu = cpu


class Profiler:
    """Accumulates cycles, instructions and attribution for one experiment."""

    def __init__(self, cpu: CpuModel = PENTIUM4):
        self.cpu = cpu
        self.root = RegionNode("<root>")
        self._stack: List[RegionNode] = [self.root]
        self.functions: Dict[str, FunctionStats] = {}
        self.modules: Counter = Counter()
        self.global_mix = MixAccumulator()
        self._cycles = 0.0

    # -- charging -----------------------------------------------------------
    def charge(self, m: InstrMix, times: float = 1.0, *,
               function: str = "<anon>", module: str = LIBCRYPTO,
               stall: float = 1.0) -> float:
        """Charge ``times`` executions of mix ``m`` and return the cycles.

        This is the hottest non-kernel path in the model (one call per
        charged kernel invocation), so the mix's memoized per-CPU base cost
        and the accumulator appends are inlined.  The float operations and
        their order are exactly those of the out-of-line helpers, keeping
        accumulated totals bit-identical.
        """
        if m._cost_cpu is self.cpu:
            if stall <= 0:
                raise ValueError("stall_factor must be positive")
            cycles = m._cost_base * stall * times
        else:
            cycles = self.cpu.cycles(m, stall) * times
        self._stack[-1].exclusive_cycles += cycles
        mc = self.modules
        mc[module] = mc.get(module, 0) + cycles
        fs = self.functions.get(function)
        if fs is None:
            fs = self.functions[function] = FunctionStats(function, module)
        fs.cycles += cycles
        fs.calls += 1
        entry = (m, times)
        fs.mix._pending.append(entry)
        self.global_mix._pending.append(entry)
        self._cycles += cycles
        return cycles

    def charge_plans(self, plans: Sequence[ChargePlan]) -> None:
        """Charge every step of ``plans``, in order, as :meth:`charge` would.

        Each chain -- region exclusive cycles, the clock, module cycles,
        function cycles -- ends with the bits the expanded ``charge``
        calls give it.  No chain reads another, and no region opens
        inside the call, so one region node takes every step.  The plans
        are counted in first-occurrence order, the order in which the
        expanded calls create modules and functions (a call of one
        repeated plan, like a CBC record's, by ``count``), and each chain
        moves by one exact step of whole ulps.  A chain that would cross
        into the next binade steps to the plan where it crosses, adds that
        plan's addends one at a time and steps on (:func:`_advance`).  A
        call of at most :data:`WALK_PLANS` plans adds every addend one at
        a time instead (:meth:`_walk`), which costs less there than
        counting and stepping.  The global pending mix takes one record
        per call, and each function's pending mix one that names the
        function; a fold expands them into the expanded calls' ``(mix,
        times)`` entries.
        """
        if len(plans) <= WALK_PLANS:
            if plans:
                self._walk(plans)
            return
        cpu = self.cpu
        first = plans[0]
        counts = ({first: len(plans)}
                  if plans.count(first) == len(plans) else Counter(plans))
        whole = []
        modules: Dict[str, list] = {}
        functions: Dict[str, tuple] = {}
        for plan, n in counts.items():
            if plan._cpu is not cpu:
                plan._bind(cpu)
            whole.append((n, plan, plan._chain))
            for module, chain in plan._modules:
                modules.setdefault(module, []).append((n, plan, chain))
            for function, module, chain in plan._functions:
                functions.setdefault(function, (module, []))[1].append(
                    (n, plan, chain))
        node = self._stack[-1]
        node.exclusive_cycles = _advance(node.exclusive_cycles, whole, plans)
        self._cycles = _advance(self._cycles, whole, plans)
        mc = self.modules
        for module, terms in modules.items():
            mc[module] = _advance(mc.get(module, 0), terms, plans)
        record = tuple(plans)
        self.global_mix._pending.append((record, None))
        stats = self.functions
        for function, (module, terms) in functions.items():
            fs = stats.get(function)
            if fs is None:
                fs = stats[function] = FunctionStats(function, module)
            fs.cycles = _advance(fs.cycles, terms, plans)
            for n, _, (addends, _) in terms:
                fs.calls += n * len(addends)
            fs.mix._pending.append((record, function))

    def _walk(self, plans: Sequence[ChargePlan]) -> None:
        """:meth:`charge_plans` for a short call: each chain adds each
        plan's addends in order, one ``+=`` at a time, which are the
        expanded ``charge`` calls' own additions.  The pending mixes take
        one record per call, as in the step."""
        cpu = self.cpu
        node = self._stack[-1]
        region, clock = node.exclusive_cycles, self._cycles
        mc = self.modules
        stats = self.functions
        touched: Dict[str, FunctionStats] = {}
        for plan in plans:
            if plan._cpu is not cpu:
                plan._bind(cpu)
            for c in plan._chain[0]:
                region += c
                clock += c
            for module, (addends, _) in plan._modules:
                v = mc.get(module, 0)
                for c in addends:
                    v += c
                mc[module] = v
            for function, module, (addends, _) in plan._functions:
                fs = touched.get(function)
                if fs is None:
                    fs = stats.get(function)
                    if fs is None:
                        fs = stats[function] = FunctionStats(function, module)
                    touched[function] = fs
                v = fs.cycles
                for c in addends:
                    v += c
                fs.cycles = v
                fs.calls += len(addends)
        node.exclusive_cycles = region
        self._cycles = clock
        record = tuple(plans)
        self.global_mix._pending.append((record, None))
        for function, fs in touched.items():
            fs.mix._pending.append((record, function))

    def charge_cycles(self, cycles: float, *, function: str = "<modelled>",
                      module: str = OTHER) -> float:
        """Charge raw modelled cycles (no instruction mix), e.g. kernel time."""
        if cycles < 0:
            raise ValueError("cannot charge negative cycles")
        self._stack[-1].exclusive_cycles += cycles
        self.modules[module] += cycles
        fs = self.functions.get(function)
        if fs is None:
            fs = self.functions[function] = FunctionStats(function, module)
        fs.cycles += cycles
        fs.calls += 1
        self._cycles += cycles
        return cycles

    # -- regions ------------------------------------------------------------
    def region(self, name: str) -> "Region":
        """Open a nested region; charges inside attribute to it."""
        return Region(name, self)

    def now(self) -> float:
        """Virtual timestamp: total cycles charged so far (the rdtsc stand-in)."""
        return self._cycles

    def seconds(self) -> float:
        """Virtual wall-clock: charged cycles over the modelled frequency.

        This is the per-worker clock of the web-server farm -- session
        expiry and batch timeouts advance with the work a worker actually
        performed, not with host time.
        """
        return self._cycles / self.cpu.frequency_hz

    # -- results ------------------------------------------------------------
    def total_cycles(self) -> float:
        return self._cycles

    def total_instructions(self) -> float:
        return self.global_mix.total()

    def overall_cpi(self) -> float:
        instr = self.total_instructions()
        if not instr:
            return 0.0
        return self._cycles / instr

    def module_breakdown(self) -> List[Tuple[str, float, float]]:
        """``(module, cycles, share)`` rows sorted by cycles, like Table 1."""
        total = self._cycles or 1.0
        rows = sorted(self.modules.items(), key=lambda kv: -kv[1])
        return [(name, cyc, cyc / total) for name, cyc in rows]

    def function_breakdown(self, top: Optional[int] = None,
                           ) -> List[Tuple[str, float, float]]:
        """``(function, self_cycles, share)`` rows, like Oprofile / Table 8."""
        total = self._cycles or 1.0
        rows = sorted(self.functions.values(), key=lambda f: -f.cycles)
        if top is not None:
            rows = rows[:top]
        return [(f.name, f.cycles, f.cycles / total) for f in rows]

    def find_region(self, path: str) -> Optional[RegionNode]:
        """Look up a region by ``a/b/c`` path; ``None`` if never entered."""
        node = self.root
        for part in path.split("/"):
            if part not in node.children:
                return None
            node = node.children[part]
        return node

    def region_cycles(self, path: str) -> float:
        node = self.find_region(path)
        return node.inclusive_cycles() if node is not None else 0.0


class Discard(Profiler):
    """A profiler for charges nobody reads: the simulated client
    machine, and work that runs only for its bytes (an engine's
    software crypto, configuration).

    ``charge`` and ``charge_cycles`` check their arguments as
    :class:`Profiler` does and return 0.0; ``charge_plans`` returns at
    once.  Nothing is added: no chain, no pending mix, no plan binding,
    no mix cost memo, so every total reads 0.  Regions nest and unwind
    as on any profiler.  The code under it runs in full, so one-time
    state it touches (RSA error tables, Montgomery contexts) evolves as
    under a recording profiler; a plan's binding and a mix's cost memo
    give the same bits whoever fills them.
    """

    def charge(self, m: InstrMix, times: float = 1.0, *,
               function: str = "<anon>", module: str = LIBCRYPTO,
               stall: float = 1.0) -> float:
        if stall <= 0:
            raise ValueError("stall_factor must be positive")
        return 0.0

    def charge_plans(self, plans: Sequence[ChargePlan]) -> None:
        return None

    def charge_cycles(self, cycles: float, *, function: str = "<modelled>",
                      module: str = OTHER) -> float:
        if cycles < 0:
            raise ValueError("cannot charge negative cycles")
        return 0.0


class _Sealed(RegionNode):
    """A region root no region opens under."""

    __slots__ = ()

    def child(self, name: str) -> RegionNode:
        raise RuntimeError(f"a recorded call opened region {name!r}")


class Recorder(Discard):
    """A sink that keeps what it is charged as plan steps.

    Each ``charge`` appends its arguments to :attr:`steps` as one
    :data:`PlanStep`, and ``charge_plans`` appends its plans' steps, so
    ``ChargePlan(steps)`` charges what the calls charged.  A plan holds
    no region and no raw cycles: opening a region or calling
    ``charge_cycles`` raises ``RuntimeError``.  Like any
    :class:`Discard`, it adds to no total.
    """

    def __init__(self, cpu: CpuModel = PENTIUM4):
        super().__init__(cpu)
        self.root = _Sealed("<root>")
        self._stack = [self.root]
        self.steps: List[PlanStep] = []

    def charge(self, m: InstrMix, times: float = 1.0, *,
               function: str = "<anon>", module: str = LIBCRYPTO,
               stall: float = 1.0) -> float:
        if stall <= 0:
            raise ValueError("stall_factor must be positive")
        self.steps.append((m, times, function, module, stall))
        return 0.0

    def charge_plans(self, plans: Sequence[ChargePlan]) -> None:
        for plan in plans:
            self.steps.extend(plan.steps)

    def charge_cycles(self, cycles: float, *, function: str = "<modelled>",
                      module: str = OTHER) -> float:
        raise RuntimeError("a recorded call charged raw cycles")


def plan_of(fn, *args) -> ChargePlan:
    """The plan of what ``fn(*args)`` charges, recorded on a
    :class:`Recorder` made the active profiler for the call."""
    recorder = Recorder()
    with activate(recorder):
        fn(*args)
    return ChargePlan(recorder.steps)


# ---------------------------------------------------------------------------
# Active-profiler stack
# ---------------------------------------------------------------------------

_ACTIVE: List[Profiler] = [Profiler()]


def current() -> Profiler:
    """The profiler that instrumented code is currently charging into."""
    return _ACTIVE[-1]


@contextmanager
def activate(profiler: Profiler) -> Iterator[Profiler]:
    """Make ``profiler`` the active one for the duration of the block."""
    _ACTIVE.append(profiler)
    try:
        yield profiler
    finally:
        _ACTIVE.pop()


def reset_default(cpu: CpuModel = PENTIUM4) -> Profiler:
    """Replace the bottom-of-stack default profiler with a fresh one."""
    _ACTIVE[0] = Profiler(cpu)
    return _ACTIVE[0]


def charge(m: InstrMix, times: float = 1.0, *, function: str = "<anon>",
           module: str = LIBCRYPTO, stall: float = 1.0) -> float:
    """Charge into the active profiler (convenience wrapper)."""
    return _ACTIVE[-1].charge(m, times, function=function, module=module,
                              stall=stall)


def charge_cycles(cycles: float, *, function: str = "<modelled>",
                  module: str = OTHER) -> float:
    return _ACTIVE[-1].charge_cycles(cycles, function=function, module=module)


def charge_plans(plans: Sequence[ChargePlan]) -> None:
    """Charge ``plans`` into the active profiler (convenience wrapper)."""
    _ACTIVE[-1].charge_plans(plans)


class Region:
    """A region scope: ``with`` pushes the named child of the innermost
    region, counting one entry, and yields it; leaving, normally or by an
    exception, pops it again.  ``profiler`` None means the profiler
    active when the scope is entered."""

    __slots__ = ("name", "_profiler", "_stack", "_node")

    def __init__(self, name: str, profiler: Optional[Profiler] = None):
        self.name = name
        self._profiler = profiler

    def __enter__(self) -> RegionNode:
        stack = self._stack = (self._profiler or _ACTIVE[-1])._stack
        node = stack[-1].child(self.name)
        node.entries += 1
        stack.append(node)
        self._node = node
        return node

    def __exit__(self, *exc) -> None:
        popped = self._stack.pop()
        assert popped is self._node, "region stack corrupted"


#: Open a region on the active profiler: ``with region("handshake"):``.
region = Region
