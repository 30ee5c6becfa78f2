"""Supersymmetric dynamical invariants on finite-dimensional representations.

Library layout:

- :mod:`susyinv.operators` dense complex matrices and stacks: the read-only
  ``Operator``, Hermitian eigensystems, the step exponential, polar factors
- :mod:`susyinv.representations` spin-j and truncated-oscillator generators
- :mod:`susyinv.timefunc` closed family of time functions with exact calculus
- :mod:`susyinv.susy` supercharges and even invariants as blocks, spectral pairing
- :mod:`susyinv.construction` gauge curves, partner Hamiltonians, prescription
- :mod:`susyinv.dynamics` propagation, residuals, holonomy
- :mod:`susyinv.cli` config-driven command line front end
"""

from .operators import EigenSystem, Operator, eigh, unitarity_defect
from .representations import OscillatorRep, SpinRep, make_oscillator, make_spin
from .susy import (SpectralPairing, SuperCharge, SuperInvariant,
                   build_invariant, build_supercharge, check_superalgebra,
                   pair_spectra)
from .construction import (GaugeCurve, PartnerOutput, SuperSystem, YSpec,
                           closed_form_osc_R, closed_form_spin_R,
                           evolution_from_gauge, hamiltonian_from_gauge,
                           oscillator_supersystem, quadrupole_partner,
                           run_prescription, spin_supersystem)
from .dynamics import (HolonomyResult, Trajectory, berry_holonomy,
                       intertwining_residual, lvn_residual, propagate,
                       propagate_unitary)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
