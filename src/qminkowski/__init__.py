"""Exact verification engine for quantum Minkowski space structure data."""

from .errors import (
    QMinkError, ParseError, ConstraintError, UnknownInstance, DegreeError,
    ShapeError, CalculusObstruction, NotCotriangular,
)
from .exact import Scalar, Mat, kron, flip, middle_embed, parse_scalar
from .instance import (
    PoincareInstance, builtin, builtin_names, load_instance, write_instance,
    validate_instance,
)
from .qalgebra import NCPoly, build_quotient
from .minkowski import make_minkowski, mink_relations, pbw_check, mink_star
from .calculus import make_calculus, f_tilde, Form1
from .dirac import metric, gamma, clifford_check, clifford_ok, Bispinor, \
    dirac_apply, dirac_square_check
from .lorentz import make_lorentz, lambda_entries, lambda_invariance_check
from .braiding import CqtEvaluator, build_rq, yang_baxter_check, \
    delta_b, counit_b, make_evaluator, r_eval, star_cqt_check, ct_check, \
    lorentz_r_blocks
from .fock import CTensor, coaction, interchange_k, braid_action, \
    symmetrize, lift_operator

__version__ = "0.1.0"
