"""The implicit flow step: one pure-numpy Newton kernel (see _pure)."""

from ._pure import BACKEND, newton_step

__all__ = ["newton_step", "BACKEND"]
