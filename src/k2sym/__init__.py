"""Symbol computations in K2 of fields.

Local and global symbols over Q, tame symbols and reciprocity over F_q(T),
quadratic form invariants, the Cartier operator on differential forms in
characteristic p, zeta special values for curves over finite fields, and a
numerical regulator pairing on the Riemann sphere.
"""

from k2sym.arith import Poly, RatFunc, field, generator, legendre
from k2sym.charpforms import (
    BiPoly,
    Form0,
    Form1,
    Form2,
    MultiRatFunc,
    cartier1,
    cartier2,
    dlog1,
    dlog2,
    in_B1,
    in_B2,
    nu_member,
)
from k2sym.funcfield import (
    CHAR2,
    PlaceFq,
    decompose,
    ff_symbol,
    lift_ff,
    steinberg_witness,
    tame_ff,
    weil_check,
)
from k2sym.k2q import (
    K2QClass,
    MooreVector,
    hilbert_reciprocity,
    lambda_tate,
    lift,
    moore_lift,
    quadratic_reciprocity,
    symbol,
)
from k2sym.localsym import REAL, PlaceQ, hilbert, s_2, s_infinity, tame
from k2sym.parsing import parse_rational
from k2sym.quadforms import (
    DiagForm,
    conic_point_search,
    conic_solvable_Q,
    diagonalize,
    equivalent_over_Q,
    invariants,
    pfister_hasse_identity,
    quaternion_splits,
)
from k2sym.regnum import GaussRat, Loop, bloch_wigner, gauss, loop_integral, residue_check
from k2sym.zeta import CurveFq, birch_tate_Q, l_polynomial, tate_identity, zeta_minus1

__version__ = "0.1.0"
