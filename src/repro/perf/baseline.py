"""Golden-baseline signatures: canonical, diffable profiler snapshots.

The reproduction's modeled cycle counts are *deterministic*: the fast
path is bit-identical to the faithful loops and a one-worker farm is
bit-identical to the single simulator.  That determinism is only worth
anything if it is pinned -- a refactor that silently shifts Table 2's
``get_client_kx`` cycles or the Table 12 instruction mix is a
correctness bug, not a perf footnote.

This module turns one :class:`~repro.perf.profiler.Profiler` into a
**signature**: a plain-dict snapshot of every deterministic quantity the
paper's tables are built from --

* total cycles and total instructions (path length), plus CPI;
* the region tree (exclusive cycles + entry counts per ``a/b/c`` path);
* the flat function profile (self cycles, calls, instructions);
* the module breakdown (libcrypto / libssl / httpd / vmlinux / other);
* the dynamic instruction-mix histogram (Table 12);
* scenario-specific extras (wire bytes, requests completed, ...).

Signatures serialize through :func:`canonical_json` -- sorted keys,
fixed float formatting, a trailing newline -- so that recording the same
scenario twice produces byte-identical files and ``git diff`` over the
committed ``baselines/*.json`` shows exactly which metric moved.
:func:`diff_signatures` compares two signatures leaf-by-leaf with a
relative tolerance (exact match by default, because the quantities are
deterministic).

``repro.tools.perfgate`` drives this module over a registry of named
scenarios; the ``BENCH_*`` benchmark writers share :func:`write_json`
so regenerated benchmark artifacts diff cleanly too.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Union

from .profiler import Profiler

#: Bump when the signature layout changes incompatibly; ``diff_signatures``
#: reports a schema mismatch instead of a wall of leaf drifts.
SCHEMA_VERSION = 1


# ---------------------------------------------------------------------------
# Canonical JSON
# ---------------------------------------------------------------------------

def canonical(value: Any) -> Any:
    """Normalize a JSON-able value for byte-stable serialization.

    Floats that are exact integers collapse to ints (``12.0`` and ``12``
    charge identically and must serialize identically); other floats
    keep full shortest-repr precision -- rounding would hide exactly the
    drift the gate exists to catch.  Dicts are rebuilt with string keys
    so insertion order never leaks into the output (``json.dumps`` then
    sorts them).
    """
    if isinstance(value, bool) or value is None or isinstance(value, str):
        return value
    if isinstance(value, float):
        if not math.isfinite(value):
            raise ValueError(f"non-finite value in signature: {value!r}")
        if value.is_integer() and abs(value) < 2 ** 62:
            return int(value)
        return value
    if isinstance(value, int):
        return value
    if isinstance(value, Mapping):
        return {str(k): canonical(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [canonical(v) for v in value]
    raise TypeError(f"cannot canonicalize {type(value).__name__}: {value!r}")


def canonical_json(value: Any) -> str:
    """Serialize ``value`` canonically: sorted keys, stable float text,
    2-space indentation, trailing newline."""
    return json.dumps(canonical(value), sort_keys=True, indent=2,
                      ensure_ascii=True) + "\n"


def write_json(path: Union[str, Path], value: Any) -> Path:
    """Write ``value`` as canonical JSON; the shared ``BENCH_*``/baseline
    writer, so regenerating any artifact produces clean diffs."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(canonical_json(value))
    return path


def load_json(path: Union[str, Path]) -> Any:
    return json.loads(Path(path).read_text())


# ---------------------------------------------------------------------------
# Signature capture
# ---------------------------------------------------------------------------

def capture(profiler: Profiler, *, scenario: str,
            extra: Optional[Mapping[str, Any]] = None,
            meta: Optional[Mapping[str, Any]] = None) -> Dict[str, Any]:
    """Snapshot ``profiler`` into a canonical signature dict.

    ``extra`` carries scenario-level deterministic metrics (wire bytes,
    requests completed, handshake flights...); ``meta`` carries
    descriptive fields (paper table, config) that are compared too but
    exist mostly for the reader of the baseline file.
    """
    regions: Dict[str, Dict[str, Any]] = {}
    for node in profiler.root.walk():
        if node.parent is None:
            if node.exclusive_cycles:
                regions["<root>"] = {"cycles": node.exclusive_cycles,
                                     "entries": node.entries}
            continue
        regions[node.path()] = {"cycles": node.exclusive_cycles,
                                "entries": node.entries}

    functions = {
        name: {"cycles": fs.cycles, "calls": fs.calls,
               "instructions": fs.instructions()}
        for name, fs in profiler.functions.items()
    }

    mix = profiler.global_mix.snapshot()
    total_instructions = profiler.total_instructions()
    total_cycles = profiler.total_cycles()

    sig: Dict[str, Any] = {
        "schema": SCHEMA_VERSION,
        "scenario": scenario,
        "cycles_total": total_cycles,
        "instructions_total": total_instructions,
        "cpi": (total_cycles / total_instructions
                if total_instructions else 0.0),
        "modules": dict(profiler.modules),
        "functions": functions,
        "regions": regions,
        "instruction_mix": dict(mix.counts),
        "extra": dict(extra or {}),
        "meta": dict(meta or {}),
    }
    return canonical(sig)


# ---------------------------------------------------------------------------
# Diffing
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Drift:
    """One leaf that moved between a baseline and a fresh capture."""

    path: str            # dotted path, e.g. "regions.get_client_kx.cycles"
    baseline: Any
    fresh: Any
    relative: float      # |delta| / max(|baseline|, |fresh|); inf for shape

    def __str__(self) -> str:
        if isinstance(self.baseline, (int, float)) and \
                isinstance(self.fresh, (int, float)):
            return (f"{self.path}: {self.baseline} -> {self.fresh} "
                    f"({self.relative * 100:+.4f}% drift)")
        return f"{self.path}: {self.baseline!r} -> {self.fresh!r}"


#: Signature fields that are derived or descriptive; a drift here without
#: any primary drift would be a bug in the capture itself, but they are
#: still compared so nothing silently escapes the gate.
_NUMERIC = (int, float)


def _rel(a: float, b: float) -> float:
    denominator = max(abs(a), abs(b))
    if denominator == 0:
        return 0.0
    return abs(a - b) / denominator


def _walk_diff(path: str, base: Any, fresh: Any, tolerance: float,
               out: List[Drift]) -> None:
    if isinstance(base, Mapping) and isinstance(fresh, Mapping):
        for key in sorted(set(base) | set(fresh)):
            sub = f"{path}.{key}" if path else str(key)
            if key not in base:
                out.append(Drift(sub, "<absent>", fresh[key], math.inf))
            elif key not in fresh:
                out.append(Drift(sub, base[key], "<absent>", math.inf))
            else:
                _walk_diff(sub, base[key], fresh[key], tolerance, out)
        return
    if isinstance(base, list) and isinstance(fresh, list):
        if len(base) != len(fresh):
            out.append(Drift(f"{path}.<len>", len(base), len(fresh),
                             math.inf))
        for i, (a, b) in enumerate(zip(base, fresh)):
            _walk_diff(f"{path}[{i}]", a, b, tolerance, out)
        return
    if isinstance(base, bool) or isinstance(fresh, bool):
        if base != fresh:
            out.append(Drift(path, base, fresh, math.inf))
        return
    if isinstance(base, _NUMERIC) and isinstance(fresh, _NUMERIC):
        rel = _rel(float(base), float(fresh))
        if rel > tolerance:
            out.append(Drift(path, base, fresh, rel))
        return
    if base != fresh:
        out.append(Drift(path, base, fresh, math.inf))


def diff_signatures(baseline_sig: Mapping[str, Any],
                    fresh_sig: Mapping[str, Any], *,
                    tolerance: float = 0.0) -> List[Drift]:
    """Leaf-by-leaf comparison of two signatures.

    ``tolerance`` is the *relative* tolerance applied to every numeric
    leaf (0.0 = exact match, the right default for deterministic
    modeled cycles).  Shape changes -- a region that disappeared, a
    function that appeared -- always count as drift.
    """
    base = canonical(dict(baseline_sig))
    fresh = canonical(dict(fresh_sig))
    if base.get("schema") != fresh.get("schema"):
        return [Drift("schema", base.get("schema"), fresh.get("schema"),
                      math.inf)]
    out: List[Drift] = []
    for key in sorted(set(base) | set(fresh)):
        if key not in base:
            out.append(Drift(key, "<absent>", fresh[key], math.inf))
        elif key not in fresh:
            out.append(Drift(key, base[key], "<absent>", math.inf))
        else:
            _walk_diff(key, base[key], fresh[key], tolerance, out)
    return out
