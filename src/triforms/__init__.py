"""Exact q-expansions of triangle-group Hauptmoduls and automorphic
forms, with p-integrality classification via Dwork congruences."""

from .halphen import (
    HalphenSolution,
    HGParams,
    TriangleType,
    eisenstein_one,
    eisenstein_two,
    hauptmodul_from_halphen,
    solve_halphen,
)
from .hypergeom import hauptmodul_from_mirror, mirror_map, schwarz_map
from .dwork import (
    IntegralityVerdict,
    Verdict,
    almost_integral,
    dwork_map,
    dwork_set_condition,
    hecke_classifier,
    takeuchi_scan,
    theorem_classifier,
)
from .lab import (
    checked_generators,
    cross_route_consistency,
    dwork_congruence_check,
    empirical_integrality,
    generator_integrality,
    schwarz_congruence_check,
)
from .rationals import QQ
from .series import LaurentSeries, TruncatedSeries, valuation_profile

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
