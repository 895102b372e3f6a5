"""Least and greatest solutions of finite recursive equation systems.

Two instantiations of one adjunction: monotone operators on finite powerset
lattices (reachability and safety), and finite equation systems over a
signature (congruence word problems, recursion-square solutions, guided tree
unfoldings, and a carpet fractal as a worked geometric example).

Importing the package loads none of its modules: each name below is looked
up in its submodule on first use (PEP 562), so a caller pays only for the
modules it touches.
"""
from importlib import import_module

_EXPORTS = {  # submodule -> the names it exports
    "errors": (
        "ArityMismatch", "BijectionViolation", "BoundExceeded",
        "BudgetExceeded", "DepthLimit", "NotCaMorphism", "NotPostFixed",
        "NotPreFixed", "ParseError", "RelfixError", "SchemaError",
        "SignatureMismatch", "UnboundVariable", "UnknownSymbol",
    ),
    "finstruct": (
        "CaMorphism", "FinAlgebra", "FinCoalgebra", "all_algebras",
        "all_coalgebras", "enumerate_hylo", "is_ca_morphism", "is_wellfounded",
    ),
    "fractal": (
        "BoundaryPoint", "CellSet", "approximant", "carpet_member", "d_path",
        "d_taxicab", "render", "subdivide", "write_pgm",
    ),
    "lattice": (
        "MonotoneOp", "SafetyVerdict", "TransitionSystem", "f_apply",
        "galois_check", "mu_post", "nu_pre", "safety_check",
    ),
    "mu": ("mu_equal", "mu_hom_count", "mu_presentation"),
    "nu": (
        "RationalTree", "TreePrefix", "cartesian_subcoalgebras",
        "classify_cartesian", "coextension", "enum_nu_prefixes", "is_a_guided",
        "meet_algebra",
    ),
    "sigterm": (
        "EquationSet", "Signature", "Term", "app", "congruence_decide",
        "parse_term", "validate_term", "var",
    ),
}

_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    if name in _EXPORTS:
        return import_module(f"{__name__}.{name}")
    try:
        module = _HOME[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    return getattr(import_module(f"{__name__}.{module}"), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
