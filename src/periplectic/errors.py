"""Shared exception types."""

from __future__ import annotations

__all__ = ["ShapeError", "CodecError", "PreconditionError"]


class ShapeError(ValueError):
    """Matrix dimensions do not admit the requested operation."""


class CodecError(ValueError):
    """Serialized data does not match the wire format."""


class PreconditionError(ValueError):
    """Input is well formed but outside the hypotheses of the operation."""
