"""Trap model shared by the IR interpreter and the SimX86 simulator.

A :class:`Trap` is the simulated analogue of the OS terminating the program
on a hardware exception — the paper's *crash* outcome ("if the program is
terminated by the OS due to an exception, it is classified as a crash").
"""

from __future__ import annotations

import enum


class TrapKind(enum.Enum):
    #: Access to an unmapped or out-of-range address (≙ SIGSEGV).
    SEGV = "segmentation fault"
    #: Integer divide by zero or signed overflow in division (≙ SIGFPE, x86 #DE).
    DIVIDE_ERROR = "divide error"
    #: Stack grew beyond its mapped region.
    STACK_OVERFLOW = "stack overflow"
    #: Control transferred to an invalid code location (≙ SIGILL/SIGSEGV).
    BAD_JUMP = "bad jump target"
    #: `ret` popped a value that is not a valid return address.
    BAD_RETURN = "bad return address"
    #: Call depth exceeded the simulator's frame limit.
    CALL_DEPTH = "call depth exceeded"


class Trap(Exception):
    """Raised by the VM when the simulated program faults.

    A trap is a value: two traps with the same kind and detail are equal
    (so are the results that hold them), and a pickled trap is rebuilt
    from its kind and detail."""

    def __init__(self, kind: TrapKind, detail: str = "") -> None:
        self.kind = kind
        self.detail = detail
        message = kind.value if not detail else f"{kind.value}: {detail}"
        super().__init__(message)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Trap):
            return NotImplemented
        return (self.kind, self.detail) == (other.kind, other.detail)

    def __hash__(self) -> int:
        return hash((self.kind, self.detail))

    def __reduce__(self):
        return type(self), (self.kind, self.detail)


class HangTimeout(Exception):
    """Raised when the dynamic instruction budget is exhausted — the
    simulated analogue of the paper's timeout-based hang detection."""

    def __init__(self, executed: int) -> None:
        self.executed = executed
        super().__init__(f"instruction budget exhausted after {executed}")
