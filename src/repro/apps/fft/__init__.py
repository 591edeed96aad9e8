"""The 3-D FFT application kernel of §IV-B (after Hoefler et al. [14]).

* :mod:`~repro.apps.fft.decomposition` — slab decomposition geometry,
* :mod:`~repro.apps.fft.patterns` — pipelined / tiled / windowed /
  window-tiled interleavings (Fig. 8),
* :mod:`~repro.apps.fft.cost` — FFT compute-cost model,
* :mod:`~repro.apps.fft.kernel` — the runnable kernel comparing
  LibNBC, ADCL, extended-ADCL and blocking-MPI methods.
"""

from ..._lazy import lazy_exports

#: public name -> submodule defining it, imported on first use
_EXPORTS = {
    "DEFAULT_TILE": ".patterns",
    "FFTConfig": ".kernel",
    "FFTResult": ".kernel",
    "FFT_METHODS": ".kernel",
    "PATTERNS": ".patterns",
    "Pattern": ".patterns",
    "SlabDecomposition": ".decomposition",
    "fft_flops": ".cost",
    "fft_seconds": ".cost",
    "get_pattern": ".patterns",
    "line_fft_seconds": ".cost",
    "plane_fft_seconds": ".cost",
    "run_fft": ".kernel",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, globals(), _EXPORTS)
