"""Relaxation kernels: the vectorized inner loops of the stepping engine.

The paper's wall-clock wins come from the data-parallel relaxation step;
this package isolates its two hot primitives:

* :func:`~repro.kernels.scatter.Kernel.scatter_min` — the batched
  ``write_min`` over relaxation proposals (segmented ``sort_reduceat``;
  see :mod:`repro.kernels.scatter`);
* :func:`~repro.kernels.relax.gather_relax` — the CSR gather that
  expands frontier elements into per-edge proposals with two
  ``np.repeat`` expansions (:mod:`repro.kernels.relax`);
* :func:`~repro.kernels.calibrate.calibrate_delta` — the paper's
  Sec. 6.1 Δ-doubling procedure, fingerprint-cached
  (:mod:`repro.kernels.calibrate`).

See ``docs/perf.md`` ("Relaxation kernels").
"""

from .calibrate import calibrate_delta
from .relax import gather_relax
from .scatter import Kernel, get_kernel

__all__ = [
    "Kernel",
    "get_kernel",
    "gather_relax",
    "calibrate_delta",
]
