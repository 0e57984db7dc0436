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
instead of one per phase.
"""

from __future__ import annotations

from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field
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


class ChargePlan:
    """A fixed sequence of :meth:`Profiler.charge` calls, charged as one.

    A plan precomputes each step's cycles, from :meth:`CpuModel.cycles`
    on the CPU the plan was last charged on (a profiler with another CPU
    rebinds it first), but never adds steps together: float addition is
    not associative, so :meth:`Profiler.charge_plans` must still make
    every addition the expanded ``charge`` calls would.  The
    ``(mix, times)`` entries appended to the pending mixes are built once
    and shared by every charge of the plan.
    """

    __slots__ = ("steps", "_entries", "_cpu", "_cycles", "_modules",
                 "_functions")

    def __init__(self, steps: Iterable[PlanStep]):
        self.steps: Tuple[PlanStep, ...] = tuple(steps)
        for _, _, _, _, stall in self.steps:
            if stall <= 0:
                raise ValueError("stall_factor must be positive")
        self._entries = tuple((m, times) for m, times, _, _, _ in self.steps)
        self._cpu: Optional[CpuModel] = None
        self._cycles: Tuple[float, ...] = ()
        #: ``(module, cycles of its steps)`` in first-charged order.
        self._modules: Tuple[Tuple[str, Tuple[float, ...]], ...] = ()
        #: ``(function, module of its first step, cycles and (mix, times)
        #: entries of its steps)``, in first-charged order.
        self._functions: Tuple[tuple, ...] = ()

    def _bind(self, cpu: CpuModel) -> None:
        cycles = [cpu.cycles(m, stall) * times
                  for m, times, _, _, stall in self.steps]
        modules: Dict[str, List[float]] = {}
        functions: Dict[str, tuple] = {}
        for i, (_, _, function, module, _) in enumerate(self.steps):
            modules.setdefault(module, []).append(cycles[i])
            group = functions.get(function)
            if group is None:
                group = functions[function] = (module, [], [])
            group[1].append(cycles[i])
            group[2].append(self._entries[i])
        self._cycles = tuple(cycles)
        self._modules = tuple((module, tuple(c))
                              for module, c in modules.items())
        self._functions = tuple(
            (function, module, tuple(c), tuple(e))
            for function, (module, c, e) in functions.items())
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

        Each chain -- region exclusive cycles, module cycles, function
        cycles, calls and pending mix, the global pending mix, the clock
        -- receives the same additions or entries in the same order as
        the expanded ``charge`` calls; only the interleaving *between*
        chains differs, and no chain reads another.  No region opens
        inside the call, so one region node takes every step.  A run of
        ``k`` consecutive charges of one plan walks each chain once over
        the plan's addends repeated ``k`` times.
        """
        cpu = self.cpu
        node = self._stack[-1]
        mc = self.modules
        functions = self.functions
        gpending = self.global_mix._pending
        exclusive = node.exclusive_cycles
        clock = self._cycles
        end = len(plans)
        i = 0
        while i < end:
            plan = plans[i]
            j = i + 1
            while j < end and plans[j] is plan:
                j += 1
            k = j - i
            i = j
            if plan._cpu is not cpu:
                plan._bind(cpu)
            for c in plan._cycles * k:
                exclusive += c
                clock += c
            gpending.extend(plan._entries * k)
            for module, cycles in plan._modules:
                v = mc.get(module, 0)
                for c in cycles * k:
                    v += c
                mc[module] = v
            for function, module, cycles, entries in plan._functions:
                fs = functions.get(function)
                if fs is None:
                    fs = functions[function] = FunctionStats(function, module)
                v = fs.cycles
                for c in cycles * k:
                    v += c
                fs.cycles = v
                fs.calls += len(cycles) * k
                fs.mix._pending.extend(entries * k)
        node.exclusive_cycles = exclusive
        self._cycles = clock

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
