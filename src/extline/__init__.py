"""Exact computation of the Ext-algebra of the Brauer tree algebra of a
line with no exceptional vertex.

The package computes minimal projective resolutions of the simple
modules in closed periodic form, Ext dimensions and Poincare series by
three independent routes, chain-level Yoneda products with exact
null-homotopy certificates, and the presentation of the Ext-algebra as a
graded path algebra with homogeneous relations -- every closed formula
cross-checked against a brute-force quiver-representation oracle.
"""

__version__ = "0.1.0"
