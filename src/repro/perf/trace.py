"""Synthetic dynamic-instruction traces from instruction mixes.

The paper's methodology (Section 3.3): "The instruction traces collected
from SoftSDV are then analyzed through various simulation tools."  Our
instrumentation accumulates *mixes* rather than traces; this module closes
the loop by expanding a mix back into a concrete instruction sequence with
the same composition, so downstream tools that want a linear trace (simple
pipeline models, trace-file consumers) can be fed.

The expansion is deterministic and interleaves mnemonics proportionally
(stride scheduling), which reproduces the *composition* exactly
and approximates the fine-grained interleaving of the real kernels --
adequate for the composition-driven analyses the paper performs, and
clearly documented as synthetic.
"""

from __future__ import annotations

import heapq
from typing import Iterator, List, Tuple

from .isa import InstrMix
from .profiler import Profiler


def synthesize_trace(m: InstrMix, length: int | None = None,
                     ) -> Iterator[str]:
    """Yield a deterministic mnemonic sequence with the mix's composition.

    ``length`` sets the number of instructions (default: round(total)).
    Stride scheduling: instruction ``i`` of a mnemonic with ``c`` slots is
    stamped at virtual time ``(i + 0.5) / c``; emitting in timestamp order
    interleaves every mnemonic evenly through the trace.
    """
    total = m.total()
    if not total:
        return
    if length is None:
        length = round(total)
    if length < 0:
        raise ValueError("length must be non-negative")
    if length == 0:
        return
    shares = m.shares()
    # Integer slot counts summing exactly to length (largest remainder).
    raw = {name: share * length for name, share in shares.items()}
    counts = {name: int(v) for name, v in raw.items()}
    short = length - sum(counts.values())
    for name, _ in sorted(raw.items(),
                          key=lambda kv: -(kv[1] - int(kv[1])))[:short]:
        counts[name] += 1
    def stream(name: str, c: int) -> Iterator[Tuple[float, str]]:
        for i in range(c):
            yield ((i + 0.5) / c, name)

    streams = [stream(name, c)
               for name, c in sorted(counts.items()) if c > 0]
    for _, name in heapq.merge(*streams):
        yield name


def trace_to_text(trace: Iterator[str], width: int = 8) -> str:
    """Render a trace as columns of mnemonics (a dump-file format)."""
    out: List[str] = []
    row: List[str] = []
    for mnemonic in trace:
        row.append(f"{mnemonic:<8s}")
        if len(row) == width:
            out.append(" ".join(row).rstrip())
            row = []
    if row:
        out.append(" ".join(row).rstrip())
    return "\n".join(out) + ("\n" if out else "")


def profile_trace(profiler: Profiler, length: int = 256) -> List[str]:
    """A synthetic trace of a whole profile's aggregate mix."""
    return list(synthesize_trace(profiler.global_mix.snapshot(), length))


def merge_profilers(target: Profiler, *sources: Profiler) -> Profiler:
    """Fold ``sources`` into ``target`` (functions, modules, mixes, totals).

    Region trees are merged by path.  Useful for aggregating per-worker
    profiles from a multi-process experiment into one report.
    """
    for src in sources:
        if src.cpu is not target.cpu:
            raise ValueError("cannot merge profiles from different CPU "
                             "models")
        for name, fs in src.functions.items():
            dst = target.functions.get(name)
            if dst is None:
                from .profiler import FunctionStats
                dst = target.functions[name] = FunctionStats(name,
                                                             fs.module)
            dst.cycles += fs.cycles
            dst.calls += fs.calls
            dst.mix.add(fs.mix.snapshot())
        for module, cycles in src.modules.items():
            target.modules[module] += cycles
        target.global_mix.add(src.global_mix.snapshot())
        target._cycles += src.total_cycles()
        _merge_region(target.root, src.root)
    return target


def _merge_region(dst, src) -> None:
    dst.exclusive_cycles += src.exclusive_cycles
    dst.entries += src.entries
    for name, child in src.children.items():
        _merge_region(dst.child(name), child)
