"""C11/ORC11 access and fence modes.

The model supports the ORC11 fragment the paper targets: non-atomic
accesses, relaxed / acquire / release / acq-rel atomics, and release /
acquire / seq-cst fences.  Seq-cst *accesses* are provided for the strongly
synchronized baseline implementations (they behave as acq-rel accesses that
additionally read the modification-order-maximal message and synchronize
through a global SC view).
"""

from __future__ import annotations

import enum


class Mode(enum.Enum):
    """Memory access / fence ordering mode."""

    NA = "na"  # non-atomic: racy unordered access is undefined behaviour
    RLX = "rlx"
    ACQ = "acq"
    REL = "rel"
    ACQ_REL = "acq_rel"
    SC = "sc"

    def __init__(self, value: str):
        # Plain member attributes rather than properties: the step
        # rules read them on every access.
        #: Does a read at this mode acquire the message view?
        self.is_acquire = value in ("acq", "acq_rel", "sc")
        #: Does a write at this mode release the thread's full view?
        self.is_release = value in ("rel", "acq_rel", "sc")
        self.is_atomic = value != "na"

    def __repr__(self) -> str:
        return f"Mode.{self.name}"


NA = Mode.NA
RLX = Mode.RLX
ACQ = Mode.ACQ
REL = Mode.REL
ACQ_REL = Mode.ACQ_REL
SC = Mode.SC

#: Modes at which a plain load may be issued.
READ_MODES = (NA, RLX, ACQ, SC)
#: Modes at which a plain store may be issued.
WRITE_MODES = (NA, RLX, REL, SC)
#: Modes at which a fence may be issued.
FENCE_MODES = (ACQ, REL, ACQ_REL, SC)
#: Modes at which an RMW (CAS/FAA/XCHG) may be issued.
RMW_MODES = (RLX, ACQ, REL, ACQ_REL, SC)
