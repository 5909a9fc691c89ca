"""Device/bus configurations of Figure 8 and the bus-occupancy claims.

A macro point runs through the ``macro`` experiment kind
(:func:`repro.apps.workload.run_spec`); speedups and occupancy reductions
are derived from its results by :func:`repro.api.speedups` and
:func:`repro.api.occupancy_reductions`.
"""

#: Devices simulated on each bus in the paper (Section 5).
MEMORY_BUS_DEVICES = ("NI2w", "CNI4", "CNI16Q", "CNI512Q", "CNI16Qm")
IO_BUS_DEVICES = ("NI2w", "CNI4", "CNI16Q", "CNI512Q")
#: Figure 8c: NI2w on the cache bus, CNI16Qm on the memory bus, CNI512Q on
#: the I/O bus.
ALTERNATE_BUS_CONFIGS = (
    ("NI2w", "cache"),
    ("CNI16Qm", "memory"),
    ("CNI512Q", "io"),
)

#: The baseline configuration every speedup is normalized to.
BASELINE = ("NI2w", "memory")
