"""mfclab: numerical laboratory for mean-field-control convergence rates.

Subpackages by theme: Fourier-side measure calculus (``spectral``),
Wasserstein-1 transport (``transport``), measure functionals and their
finite-N projections (``functionals``), the three regularization
procedures (``regularize``), torus/window PDE solvers (``pde``), particle
Monte Carlo estimators (``particle``), and the experiment harness with its
CLI (``harness``, ``cli``). ``import mfclab`` loads none of them: import
each one explicitly, as in ``from mfclab import pde``.
"""

__version__ = "0.1.0"
