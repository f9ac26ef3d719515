"""Binary autoencoders optimised with the method of auxiliary coordinates.

The BA (paper section 3.1) maps a real vector ``x`` to an L-bit code with a
step encoder ``h(x) = step(A x + a)`` and reconstructs it with a linear
decoder ``f(z) = B z + c``. The nested objective ``E_BA`` is NP-complete to
optimise directly (zero/undefined gradients through the step), which is why
MAC introduces per-point binary codes ``Z`` and the quadratic penalty
``E_Q``. This package provides the model pieces and the per-point Z-step
solvers; the training drivers live in :mod:`repro.core`.
"""

from repro.autoencoder.encoder import LinearEncoder, RBFEncoder, gaussian_kernel_features
from repro.autoencoder.decoder import LinearDecoder
from repro.autoencoder.binary_autoencoder import BinaryAutoencoder
from repro.autoencoder.zstep import zstep, zstep_alternate, zstep_enumerate
from repro.autoencoder.init import init_codes_pca

__all__ = [
    "LinearEncoder",
    "RBFEncoder",
    "gaussian_kernel_features",
    "LinearDecoder",
    "BinaryAutoencoder",
    "zstep",
    "zstep_enumerate",
    "zstep_alternate",
    "init_codes_pca",
]
