"""The ``STATUS`` and ``CONTROL`` interface registers.

The paper (Section 2.1, Figure 1) gives both registers by role rather than
by exact layout: ``CONTROL`` holds values that control the interface's
operation (what to do when the output queue is full, the queue thresholds of
Section 2.2.4, the protection state of Section 2.1.3) and ``STATUS`` reports
the interface's current state (input-queue occupancy, the arrived message's
type, exceptional conditions).  The concrete bit assignments below are this
reproduction's implementation choice; all software in the repository reads
and writes fields through these layouts, never raw bit positions.
"""

from __future__ import annotations

import enum
from typing import Optional

from repro.utils.bitfield import WORD_MASK, BitField, BitLayout, Register

QUEUE_LEN_BITS = 5
"""Width of the queue-occupancy fields; supports depths up to 31."""

PIN_BITS = 12
"""Width of the process identification number used for protection.

Originally 8; widened to 12 so the multi-tenant serving study
(:mod:`repro.tenancy`) can name thousands of protection domains.  All
software accesses CONTROL through field names (see the module docstring),
so the layout shift is invisible outside this file.
"""


class SendFullPolicy(enum.IntEnum):
    """What a SEND does when the output queue is full (Section 2.1.1).

    ``STALL`` blocks the processor until the network drains the queue;
    ``EXCEPTION`` raises instead, for software that must keep running to
    help empty the network.
    """

    STALL = 0
    EXCEPTION = 1


STATUS_LAYOUT = BitLayout(
    "STATUS",
    [
        # A valid message occupies the input registers (i0..i4).
        BitField("msg_valid", 0, 1),
        # The 4-bit type of that message (Section 2.2.1).
        BitField("msg_type", 1, 4),
        # Occupancy of the two queues, in messages.
        BitField("iq_len", 5, QUEUE_LEN_BITS),
        BitField("oq_len", 10, QUEUE_LEN_BITS),
        # Almost-full conditions (Section 2.2.4).
        BitField("iafull", 15, 1),
        BitField("oafull", 16, 1),
        # Exceptional conditions reported through handler id 0001.
        BitField("exc_input_error", 17, 1),
        BitField("exc_output_overflow", 18, 1),
        BitField("exc_pin_mismatch", 19, 1),
        BitField("exc_privileged", 20, 1),
        # OR of all exception bits, checked first by the exception handler.
        BitField("exc_any", 21, 1),
    ],
)

HARDWARE_STATUS_FIELDS = ("msg_valid", "msg_type", "iq_len", "oq_len", "iafull", "oafull")
"""The STATUS fields the interface recomputes on every state change
(:meth:`StatusRegister.refresh`).  The exception bits are not among
them: they are raised by their own events and cleared by software."""

# Shifts for refresh's one-word pack, taken from the layout once.
_MSG_VALID_BIT = 1 << STATUS_LAYOUT.field("msg_valid").shift
_MSG_TYPE_SHIFT = STATUS_LAYOUT.field("msg_type").shift
_IQ_LEN_SHIFT = STATUS_LAYOUT.field("iq_len").shift
_OQ_LEN_SHIFT = STATUS_LAYOUT.field("oq_len").shift
_IAFULL_BIT = 1 << STATUS_LAYOUT.field("iafull").shift
_OAFULL_BIT = 1 << STATUS_LAYOUT.field("oafull").shift
_QUEUE_LEN_MAX = (1 << QUEUE_LEN_BITS) - 1
#: Every STATUS bit a refresh leaves alone (the exception bits).
_REFRESH_KEEP_MASK = WORD_MASK & ~sum(
    STATUS_LAYOUT.field(name).field_mask for name in HARDWARE_STATUS_FIELDS
)

CONTROL_LAYOUT = BitLayout(
    "CONTROL",
    [
        # Almost-full thresholds for the two queues (Section 2.2.4).
        BitField("iq_threshold", 0, QUEUE_LEN_BITS),
        BitField("oq_threshold", 5, QUEUE_LEN_BITS),
        # SEND-when-full policy (Section 2.1.1).
        BitField("full_policy", 10, 1),
        # Protection state (Section 2.1.3).
        BitField("active_pin", 11, PIN_BITS),
        BitField("pin_check", 11 + PIN_BITS, 1),
        BitField("privileged_interrupt", 12 + PIN_BITS, 1),
        # Section 2.1 leaves polled-versus-interrupt-driven open; this bit
        # selects an interrupt on message arrival instead of polling.
        BitField("arrival_interrupt", 13 + PIN_BITS, 1),
    ],
)

EXCEPTION_FIELDS = (
    "exc_input_error",
    "exc_output_overflow",
    "exc_pin_mismatch",
    "exc_privileged",
)


class StatusRegister(Register):
    """The hardware-maintained ``STATUS`` register."""

    def __init__(self) -> None:
        super().__init__(STATUS_LAYOUT)

    def refresh(
        self,
        msg_type: Optional[int],
        iq_len: int,
        oq_len: int,
        iafull: bool,
        oafull: bool,
    ) -> None:
        """Rewrite the six hardware-maintained fields in one store.

        ``msg_type`` is the type of the message in the input registers,
        ``None`` when they are empty (``msg_valid`` follows it); queue
        lengths saturate at the field width.  Exception bits are kept.
        """
        word = self._word & _REFRESH_KEEP_MASK
        if msg_type is not None:
            word |= _MSG_VALID_BIT | msg_type << _MSG_TYPE_SHIFT
        word |= min(iq_len, _QUEUE_LEN_MAX) << _IQ_LEN_SHIFT
        word |= min(oq_len, _QUEUE_LEN_MAX) << _OQ_LEN_SHIFT
        if iafull:
            word |= _IAFULL_BIT
        if oafull:
            word |= _OAFULL_BIT
        self._word = word

    def raise_exception(self, name: str) -> None:
        """Set one exception bit and the summary bit."""
        self[name] = 1
        self["exc_any"] = 1

    def clear_exceptions(self) -> None:
        """Clear all exception bits (done by the software exception handler)."""
        for field_name in EXCEPTION_FIELDS:
            self[field_name] = 0
        self["exc_any"] = 0

    @property
    def has_exception(self) -> bool:
        return bool(self["exc_any"])

    def pending_exceptions(self) -> tuple[str, ...]:
        """Names of the exception conditions currently asserted."""
        return tuple(name for name in EXCEPTION_FIELDS if self[name])


class ControlRegister(Register):
    """The software-written ``CONTROL`` register."""

    def __init__(
        self,
        iq_threshold: int = 12,
        oq_threshold: int = 12,
        full_policy: SendFullPolicy = SendFullPolicy.STALL,
    ) -> None:
        super().__init__(CONTROL_LAYOUT)
        self["iq_threshold"] = iq_threshold
        self["oq_threshold"] = oq_threshold
        self["full_policy"] = int(full_policy)

    @property
    def full_policy(self) -> SendFullPolicy:
        return SendFullPolicy(self["full_policy"])

    @full_policy.setter
    def full_policy(self, policy: SendFullPolicy) -> None:
        self["full_policy"] = int(policy)

    @property
    def pin_checking(self) -> bool:
        return bool(self["pin_check"])

    def enable_pin_checking(self, active_pin: int) -> None:
        """Turn on PIN matching for the given active process."""
        self["active_pin"] = active_pin
        self["pin_check"] = 1

    def disable_pin_checking(self) -> None:
        self["pin_check"] = 0
