"""Workload generation (§5.1).

The paper drives all experiments from the Microsoft Azure public VM
trace.  That dataset is not available offline, so :mod:`trace` generates
a synthetic series with the properties Cortez et al. document and the
paper relies on: strong daily periodicity ("history is an accurate
predictor"), weekday/weekend modulation, occasional bursts, and
creation/deletion coupling through VM lifetimes.

The rest of the pipeline mirrors §5.1.2 exactly: sampling-interval
compression (300 s -> 5 s), per-region phase shifting by time-zone
offset, and conversion of creations into acquire operations, each with
a release drawn an exponential VM lifetime later (plus read mixing for
§5.8).  Only the creation column drives requests; the trace draws its
deletion series on first read.
"""

from repro.workload.trace import SyntheticAzureTrace, TraceConfig
from repro.workload.phase_shift import phase_shift_intervals, shifted_trace
from repro.workload.requests import operations_from_trace, regional_operations
from repro.workload.readwrite import mix_reads

__all__ = [
    "SyntheticAzureTrace",
    "TraceConfig",
    "phase_shift_intervals",
    "shifted_trace",
    "operations_from_trace",
    "regional_operations",
    "mix_reads",
]
