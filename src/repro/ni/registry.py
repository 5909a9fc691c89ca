"""Declarative device registry: any taxonomy point, as a plan over a family.

The paper's contribution is a *taxonomy*, not five devices — ``NI_iX`` /
``CNI_iX`` names span a whole generative space (Alewife's ``NI16w``,
*T-NG's ``NI128Q``, or unexplored points like ``CNI64Q``).  This module
turns any legal taxonomy name into a build plan:

* :class:`DeviceSpec` is derived from a parsed
  :class:`~repro.ni.taxonomy.NISpec` — which family implements the point
  (uncached registers, CDRs, or cachable queues), how the exposed region is
  sized and where the receive queue is homed, as the family constructor's
  keywords.  :func:`repro.ni.taxonomy.create_ni` builds every name that is
  not a registered plugin from its plan, the paper's five included.

A change to these rules that alters an existing spec's result bumps
:data:`repro.service.store.STORE_SCHEMA_VERSION`, so stored results
computed under the old rules stop matching.

Sizing rules (documented constants below):

* ``NI{n}w`` — n words exposed per direction; the hardware FIFO scales
  proportionally, anchored at the CM-5's 4 messages for 2 words
  (``fifo_messages = 2 * n``).
* ``NI{n}`` / ``NI{n}Q`` — an n-block queue holds ``n / 4`` messages
  (``Q`` adds explicit uncached pointer updates).
* ``CNI{n}`` — n CDR blocks per direction, used as ``n / 4`` implicit
  round-robin message slots.
* ``CNI{n}Q`` — n-block device-homed send and receive queues; the receive
  cache covers the whole receive queue, whatever its size.
* ``CNI{n}Qm`` — n-block device cache over a memory-homed receive queue of
  ``32 * n`` blocks, anchored at the paper's CNI16Qm (16-block cache over a
  512-block queue).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping, Tuple, Type

from repro.common.params import DEFAULT_PARAMS
from repro.ni.base import AbstractNI
from repro.ni.cni4 import CdrNI
from repro.ni.cniq import CoherentQueueNI
from repro.ni.ni2w import UncachedNI
from repro.ni.taxonomy import NISpec, TaxonomyError, parse_ni_name

#: FIFO messages per exposed word for the ``NI{n}w`` family (CM-5 anchor:
#: NI2w buffers 4 messages behind its 2 exposed words).
WORDS_TO_FIFO_MESSAGES = 2

#: Receive-queue blocks per device-cache block for the ``CNI{n}Qm`` family
#: (paper anchor: CNI16Qm backs a 512-block memory-homed queue with a
#: 16-block device cache).
QM_RECV_QUEUE_FACTOR = 32


@dataclass(frozen=True)
class DeviceSpec:
    """Declarative build plan for one taxonomy point.

    ``family`` selects the implementing device family, ``defaults`` the
    constructor keywords that realise the point's sizing.
    """

    name: str
    spec: NISpec
    family: str                      # "uncached" | "cdr" | "cq"
    defaults: Tuple[Tuple[str, object], ...]

    #: Family name -> implementing base class.
    FAMILY_BASES = {
        "uncached": UncachedNI,
        "cdr": CdrNI,
        "cq": CoherentQueueNI,
    }

    @property
    def base_class(self) -> Type[AbstractNI]:
        return self.FAMILY_BASES[self.family]

    @property
    def ni_defaults(self) -> Dict[str, object]:
        return dict(self.defaults)

    def describe(self) -> str:
        opts = ", ".join(f"{k}={v}" for k, v in self.defaults)
        return f"{self.name}: {self.base_class.__name__}({opts})"

    def sizing(self, overrides: Mapping[str, object]) -> Dict[str, object]:
        """The plan's constructor keywords overlaid by ``overrides``.

        An override on one of the family's exclusive sizing axes
        (``EXCLUSIVE_NI_KWARGS``, e.g. the uncached family's
        ``fifo_messages`` and ``queue_blocks``) also drops the plan's
        default on the others, which the device would reject otherwise.
        """
        merged = self.ni_defaults
        for group in getattr(self.base_class, "EXCLUSIVE_NI_KWARGS", ()):
            if any(key in overrides for key in group):
                for key in group:
                    merged.pop(key, None)
        merged.update(overrides)
        return merged

    # ------------------------------------------------------------------
    @classmethod
    def from_name(cls, name: str) -> "DeviceSpec":
        """Plan the device for a taxonomy name, or raise :class:`TaxonomyError`.

        Buildability is checked against the paper's default machine
        parameters (4 blocks per 256-byte network message); devices built
        with custom parameters re-validate at construction time.
        """
        spec = parse_ni_name(name)
        bpm = DEFAULT_PARAMS.blocks_per_network_message
        if spec.unit == "blocks" and spec.exposed_size % bpm:
            raise TaxonomyError(
                f"{name!r}: size {spec.exposed_size} blocks is not a whole "
                f"number of {bpm}-block network messages"
            )
        if not spec.coherent:
            if spec.unit == "words":
                fifo = max(1, WORDS_TO_FIFO_MESSAGES * spec.exposed_size)
                return cls(
                    name=spec.name, spec=spec, family="uncached",
                    defaults=(("fifo_messages", fifo),),
                )
            return cls(
                name=spec.name, spec=spec, family="uncached",
                defaults=(
                    ("queue_blocks", spec.exposed_size),
                    ("explicit_pointers", spec.queue == "Q"),
                ),
            )
        # Coherent devices (block-exposed by grammar).
        if spec.queue is None:
            return cls(
                name=spec.name, spec=spec, family="cdr",
                defaults=(("cdr_blocks", spec.exposed_size),),
            )
        if spec.queue == "Qm":
            return cls(
                name=spec.name, spec=spec, family="cq",
                defaults=(
                    ("send_queue_blocks", spec.exposed_size),
                    ("recv_queue_blocks", QM_RECV_QUEUE_FACTOR * spec.exposed_size),
                    ("recv_cache_blocks", spec.exposed_size),
                    ("recv_home", "memory"),
                ),
            )
        return cls(
            name=spec.name, spec=spec, family="cq",
            defaults=(
                ("send_queue_blocks", spec.exposed_size),
                ("recv_queue_blocks", spec.exposed_size),
                ("recv_home", "device"),
            ),
        )


#: Canonical sample of the generative space, used by
#: :func:`repro.ni.taxonomy.available_devices` to enumerate what the
#: registry can build beyond the explicitly registered devices.  The space
#: itself is unbounded; this ladder covers every family across the queue
#: sizes the paper sweeps (4 -> 512 blocks) plus the classified machines.
GENERATIVE_SAMPLE: Tuple[str, ...] = (
    # Word-exposed uncached NIs (CM-5, Alewife and larger windows).
    "NI2w", "NI4w", "NI16w", "NI32w",
    # Block-exposed uncached NIs, implicit and explicit pointers (*T-NG).
    "NI4", "NI16", "NI16Q", "NI32Q", "NI128Q", "NI512Q",
    # CDR devices.
    "CNI4", "CNI8", "CNI16", "CNI64",
    # Device-homed cachable queues.
    "CNI4Q", "CNI16Q", "CNI64Q", "CNI128Q", "CNI512Q",
    # Memory-homed receive queues.
    "CNI4Qm", "CNI16Qm", "CNI64Qm",
)
