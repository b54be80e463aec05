"""Typed failures of the deployment runtime: compile time, the ``run``
edge, and the artifact store.

:class:`CompileError` subclasses ``TypeError`` because the runtime
historically raised bare ``TypeError("cannot deploy ...")`` for
undeployable modules; existing callers that catch ``TypeError`` keep
working while new callers can catch the precise class.
:class:`InvalidBatchError` subclasses ``ValueError`` for the same
reason: the engines' own shape checks always raised one.
"""

from __future__ import annotations


class CompileError(TypeError):
    """A model cannot be lowered to a deployment plan."""


class UnsupportedModuleError(CompileError):
    """A module on the dataflow path has no runtime lowering.

    Raised at *compile* time (and by the reference walker) — most
    importantly for composites that override ``forward`` without
    declaring their dataflow via ``plan_forward``: silently chaining
    their children in registration order would either crash mid-run on
    a shape mismatch or, worse, compute the wrong thing when shapes
    happen to line up (e.g. a residual block without its skip-add).
    """

    def __init__(self, qualified_name: str, module_type: str, reason: str):
        self.qualified_name = qualified_name
        self.module_type = module_type
        super().__init__(
            f"cannot deploy module {qualified_name or '<root>'!r} of type "
            f"{module_type}: {reason}"
        )


class InvalidBatchError(ValueError):
    """An input batch no engine should see: empty, non-finite, of a
    non-numeric dtype, or of the wrong rank for the model's first node.

    Raised by :meth:`CompiledModel.run` and :func:`reference_forward`
    alike (:func:`repro.runtime.reference.check_batch`) before any
    engine runs — instead of a quantiser reduction over nothing, a cast
    warning followed by the kernel's code-range error, or an unpacking
    error deep in ``im2col``.
    """


class SnapshotError(Exception):
    """Base class of every artifact-store failure."""


class SnapshotKeyError(SnapshotError, KeyError):
    """The store holds no artifact under the requested key."""

    def __str__(self) -> str:  # KeyError quotes its arg; keep it readable
        return Exception.__str__(self)


class SnapshotCorruptError(SnapshotError):
    """The artifact container is truncated, unreadable or inconsistent."""


class SnapshotVersionError(SnapshotError):
    """The artifact was written by an incompatible format version."""


class SnapshotStaleError(SnapshotError):
    """The artifact's programmed engines do not match its own weights."""
