"""Least and greatest solutions of finite recursive equation systems.

Two instantiations of one adjunction: monotone operators on finite powerset
lattices (reachability and safety), and finite equation systems over a
signature (congruence word problems, recursion-square solutions, guided tree
unfoldings, and a carpet fractal as a worked geometric example).
"""

from .errors import (
    ArityMismatch,
    BijectionViolation,
    BoundExceeded,
    BudgetExceeded,
    DepthLimit,
    NotCaMorphism,
    NotPostFixed,
    NotPreFixed,
    ParseError,
    RelfixError,
    SchemaError,
    SignatureMismatch,
    UnboundVariable,
    UnknownSymbol,
)
from .finstruct import (
    CaMorphism,
    FinAlgebra,
    FinCoalgebra,
    all_algebras,
    all_coalgebras,
    enumerate_hylo,
    eval_term,
    is_algebra_morphism,
    is_ca_morphism,
    is_coalgebra_morphism,
    is_wellfounded,
)
from .fractal import (
    BoundaryPoint,
    CellSet,
    approximant,
    boundary_from_xy,
    carpet_member,
    d_path,
    d_taxicab,
    render,
    subdivide,
    write_pgm,
)
from .lattice import (
    MonotoneOp,
    SafetyVerdict,
    TransitionSystem,
    f_apply,
    galois_check,
    mu_post,
    nu_pre,
    safety_check,
)
from .mu import mu_equal, mu_hom_count, mu_presentation, unfold_once
from .nu import (
    RationalTree,
    TreePrefix,
    bisimilar,
    cartesian_subcoalgebras,
    classify_cartesian,
    coextension,
    enum_nu_prefixes,
    greatest_subcoalgebra,
    is_a_guided,
    meet_algebra,
    next_time,
)
from .sigterm import (
    EquationSet,
    Signature,
    Term,
    app,
    congruence_classes,
    congruence_decide,
    parse_term,
    substitute,
    validate_term,
    var,
)

__all__ = [name for name in dir() if not name.startswith("_")]
