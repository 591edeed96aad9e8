"""Application kernels built on the tuned collectives (the paper's §IV-B)."""

from .._lazy import lazy_exports

#: public name -> submodule defining it, imported on first use
_EXPORTS = {
    "fft": None,
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, globals(), _EXPORTS)
