"""Network interface devices, assembled from composable primitives.

The three device *families* (:class:`UncachedNI`, :class:`CdrNI`,
:class:`CoherentQueueNI`) pair the send/receive port primitives of
:mod:`repro.ni.primitives` over the shared :class:`AbstractNI`
infrastructure.  :func:`create_ni` builds any legal taxonomy name, the
paper's five included, as its :class:`DeviceSpec` plan's family with the
plan's sizing, and a :func:`register_device` plugin as registered.
"""

from repro.ni.base import (
    AbstractNI,
    DeviceHomeAgent,
    NIError,
    DEVICE_PROCESSING_CYCLES,
)
from repro.ni.cni4 import CdrNI
from repro.ni.cniq import CoherentQueueNI
from repro.ni.cq import CachableQueue, QueueError, SenseReverseQueue, sense_for_pass
from repro.ni.ni2w import UncachedNI
from repro.ni.registry import GENERATIVE_SAMPLE, DeviceSpec
from repro.ni.taxonomy import (
    EVALUATED_DEVICES,
    DeviceInfo,
    NISpec,
    TaxonomyError,
    available_device_names,
    available_devices,
    classify_existing_machines,
    create_ni,
    device_class,
    parse_ni_name,
    register_device,
    unregister_device,
    validate_ni_kwargs,
)

__all__ = [
    "AbstractNI",
    "DeviceHomeAgent",
    "NIError",
    "DEVICE_PROCESSING_CYCLES",
    "UncachedNI",
    "CdrNI",
    "CoherentQueueNI",
    "CachableQueue",
    "SenseReverseQueue",
    "QueueError",
    "sense_for_pass",
    "NISpec",
    "TaxonomyError",
    "parse_ni_name",
    "create_ni",
    "device_class",
    "register_device",
    "unregister_device",
    "available_devices",
    "available_device_names",
    "validate_ni_kwargs",
    "DeviceInfo",
    "DeviceSpec",
    "GENERATIVE_SAMPLE",
    "classify_existing_machines",
    "EVALUATED_DEVICES",
]
