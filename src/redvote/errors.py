"""Exception hierarchy shared by the model, workflow and CLI layers, and
the mixin that keeps checked records checked."""

from __future__ import annotations

from typing import Iterable


class RedvoteError(Exception):
    """Base class for every error raised by this package."""


class ValidationError(RedvoteError):
    """A model, parameter set or workflow failed structural validation.

    ``element`` is the path of the failing element inside the checked
    record, for example ``("classes", 0, "rates", 2)``; it is empty when
    the fault is not tied to one element.
    """

    def __init__(self, message: str, element: tuple[str | int, ...] = ()) -> None:
        super().__init__(message)
        self.element = element


class SolverError(RedvoteError):
    """A solver could not produce a result for a structurally valid model."""


class ZeroEvidenceError(SolverError):
    """Conditioning evidence has probability zero; the observation is inconsistent."""


class Checked:
    """Mixin for a ``namedtuple`` subclass whose ``__new__`` checks or
    coerces its fields: ``_make``, and ``_replace``, which builds through
    ``_make``, call the class, so neither skips the check."""

    __slots__ = ()

    @classmethod
    def _make(cls, iterable: Iterable[object]) -> Checked:
        return cls(*iterable)
