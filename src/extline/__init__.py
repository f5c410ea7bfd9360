"""Exact computation of the Ext-algebra of the Brauer tree algebra of a
line with no exceptional vertex.

The package computes minimal projective resolutions of the simple
modules in closed periodic form, Ext dimensions and Poincare series by
three independent routes, chain-level Yoneda products with exact
null-homotopy certificates, and the presentation of the Ext-algebra as a
graded path algebra with homogeneous relations -- every closed formula
cross-checked against a brute-force quiver-representation oracle.
"""

from .fields import PrimeField, RationalField, field_for_characteristic
from .homs import HomElement, HomGenerator, LineAlgebra
from .reps import (
    QuiverRep,
    RepMorphism,
    head,
    hom_space,
    is_isomorphic,
    projective_cover,
    radical,
    simple_rep,
    socle,
    syzygy,
)
from .strings import (
    EndLabel,
    PSum,
    XLabel,
    canonical_labels,
    normalize_p,
    normalize_x,
    realize_x,
    simple_label,
    structure_of,
    syzygy_label,
    upper_label,
)
from .resolutions import (
    HomMatrix,
    PeriodicComplex,
    build_resolution,
    closed_form_differential,
    verify_resolution,
)
from .ext_table import (
    ExtTable,
    RouteMismatchError,
    ext_dim_via_x,
    ext_table,
    poincare_series,
    q_polynomial,
)
from .yoneda import (
    ChainMap,
    ExtClass,
    compose,
    generator_x,
    generator_xstar,
    generator_y,
    lift_cocycle,
    null_homotopy,
)
from .path_algebra import (
    PathWord,
    evaluate_word,
    graded_dimension,
    normal_form_monomial,
    standard_relators,
    verify_chain_relations,
    verify_presentation,
)

__version__ = "0.1.0"
