"""Performance-modelling substrate (the Oprofile/VTune/SoftSDV stand-in).

See DESIGN.md, "The central substitution: architectural profiling".
"""

from .baseline import (
    Drift, canonical, canonical_json, capture, diff_signatures, load_json,
    write_json,
)
from .cpu import CpuModel, DEFAULT_COSTS, PENTIUM3, PENTIUM4, WIDE_CORE
from .isa import CATEGORY, I, InstrMix, MixAccumulator, mix
from .profiler import (
    HTTPD, LIBCRYPTO, LIBSSL, OTHER, VMLINUX,
    ChargePlan, FunctionStats, Profiler, RegionNode,
    activate, charge, charge_cycles, charge_plans, current, region,
    reset_default,
)
from .report import format_table, kcycles, percent
from .pipeline import (
    DEPENDENCY_PATTERNS, PipelineConfig, PipelineResult, simulate,
    simulate_kernel,
)
from .trace import merge_profilers, profile_trace, synthesize_trace, \
    trace_to_text

__all__ = [
    "Drift", "canonical", "canonical_json", "capture", "diff_signatures",
    "load_json", "write_json",
    "CpuModel", "PENTIUM3", "PENTIUM4", "WIDE_CORE", "DEFAULT_COSTS",
    "CATEGORY", "I", "InstrMix", "MixAccumulator", "mix",
    "HTTPD", "LIBCRYPTO", "LIBSSL", "OTHER", "VMLINUX",
    "ChargePlan", "FunctionStats", "Profiler", "RegionNode",
    "activate", "charge", "charge_cycles", "charge_plans", "current",
    "region", "reset_default",
    "format_table", "kcycles", "percent",
    "merge_profilers", "profile_trace", "synthesize_trace",
    "trace_to_text",
    "DEPENDENCY_PATTERNS", "PipelineConfig", "PipelineResult", "simulate",
    "simulate_kernel",
]
