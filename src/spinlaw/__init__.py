"""
spinlaw: exact combinatorics and straightening for the pure-spinor weight poset.

The package is organised in six layers:

- ``weightlattice``: the sixteen-element weight poset, its affinization,
  heights, intervals, clutters, and Hasse-diagram emitters.
- ``polyring``: sparse exact polynomials over the weight variables, the
  graded monomial order, tips, S-polynomials, reduction, and quotient
  dimensions.
- ``spinalg``: the fermionic Fock model, root operators, the ten quadrics,
  Fierz identities, torus weights, the Weyl graph, and the involution ``u``.
- ``richardson``: interval relations, straightening checks, standard
  monomials, obstructions, and regular-sequence diagnostics.
- ``charseries``: chain-counting series, transfer matrices, exact
  equivariant characters, and the Delannoy specialisation.
- ``cli``: the ``spinlaw`` command-line interface with machine-readable
  reports.  It is not imported here, so that ``python -m spinlaw.cli`` runs
  it once, as ``__main__``; import ``spinlaw.cli`` to use it as a library.

All arithmetic is exact (integers and ``fractions.Fraction``); no floating
point is used anywhere in the computational core.
"""

__version__ = "0.1.0"

from . import charseries  # noqa: F401
from . import polyring  # noqa: F401
from . import richardson  # noqa: F401
from . import spinalg  # noqa: F401
from . import weightlattice  # noqa: F401
