"""
spinlaw: exact combinatorics and straightening for the pure-spinor weight poset.

The package is organised in six layers:

- ``weightlattice``: the sixteen-element weight poset, its affinization,
  heights, torus weights, intervals, clutters, and Hasse-diagram emitters.
- ``polyring``: sparse exact polynomials over the weight variables, the
  graded monomial order, tips, S-polynomials, reduction, and quotient
  dimensions.
- ``spinalg``: the fermionic Fock model, root operators, the ten quadrics,
  Fierz identities, the Weyl graph, and the involution ``u``.
- ``richardson``: interval relations, straightening checks, standard
  monomials, obstructions, and regular-sequence diagnostics.
- ``charseries``: chain-counting series, transfer matrices, exact
  equivariant characters, dimension reports, and the Delannoy
  specialisation.  It needs ``weightlattice`` alone.
- ``cli``: the ``spinlaw`` command-line interface with machine-readable
  reports.

Importing ``spinlaw`` imports no layer, so each process loads only the
layers it uses: write ``import spinlaw.charseries`` (or ``from spinlaw import
charseries``) for the layer you need.  ``python -m spinlaw.cli`` therefore
runs the CLI once, as ``__main__``, and each subcommand imports only the
layers it runs.

All arithmetic is exact (integers and ``fractions.Fraction``); no floating
point is used anywhere in the computational core.
"""

__version__ = "0.1.0"
