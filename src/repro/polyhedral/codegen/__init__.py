"""Code generation: write-C and schedule-C analogues, mappings, LOC stats."""

from .loc import LocStats, count_loc
from .mapping import MappingError, TargetMapping
from .schedgen import compile_schedule, generate_schedule_code
from .writec import compile_write, generate_write_code

__all__ = [
    "LocStats",
    "count_loc",
    "MappingError",
    "TargetMapping",
    "compile_schedule",
    "generate_schedule_code",
    "compile_write",
    "generate_write_code",
]
