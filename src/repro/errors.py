"""Exception hierarchy shared across the repro stack.

Every subsystem raises a subclass of :class:`ReproError` so callers can
distinguish bugs in *our* stack (plain Python exceptions) from diagnosed
conditions in the *simulated* program (compile errors, verifier failures,
machine traps).
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all diagnosed errors raised by this library."""


class IRError(ReproError):
    """Malformed IR detected while constructing or mutating IR objects."""


class VerificationError(IRError):
    """The IR verifier found a structural or type error in a module."""


class MiniCError(ReproError):
    """Base class for MiniC front-end diagnostics."""

    def __init__(self, message: str, line: int = 0, column: int = 0) -> None:
        self.line = line
        self.column = column
        if line:
            message = f"{line}:{column}: {message}"
        super().__init__(message)


class LexError(MiniCError):
    """Invalid token in MiniC source."""


class ParseError(MiniCError):
    """Syntax error in MiniC source."""


class SemanticError(MiniCError):
    """Type or scoping error in MiniC source."""


class BackendError(ReproError):
    """The backend could not lower a construct to SimX86."""


class FaultInjectionError(ReproError):
    """Invalid fault-injection configuration (bad category, empty target set...)."""


class NoCandidatesError(FaultInjectionError):
    """The program never executes an instruction of the category, so a
    campaign over it has nothing to inject into."""
