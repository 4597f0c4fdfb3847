"""Constacyclic codes over skew polynomial quotients, and their lattices."""

from .codes import ConstacyclicCode, brute_force_dual, inner_product
from .errors import SkewLatError
from .lattice import (
    LatticeBasis,
    NaturalOrder,
    OrderElement,
    construction_a_basis,
    det_int,
    dual_lattice_basis,
    dual_lattice_inclusion_check,
    gram_matrix,
    hnf,
    lattice_contains,
    lift_codeword,
    reduce_element,
)
from .number_ring import (
    ENUMERATION_BOUND,
    AlgebraSpec,
    QuotientRing,
    RingDecomposition,
    RingElement,
)
from .skew import (
    OppositePoly,
    SkewPoly,
    central_poly,
    monic_right_divisors,
    opposite,
)
from .spacetime import (
    CosetEncoding,
    SpaceTimeMatrix,
    coset_decode_label,
    coset_encode,
    matrix_rep,
    min_det_sample,
    right_multiplication_det,
    sample_offsets,
)

__version__ = "0.1.0"
