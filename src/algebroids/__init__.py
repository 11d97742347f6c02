"""Exact computer algebra for tangential derivation modules, fibre Lie
algebras, and Hilbert series over Lie algebroids."""

from .errors import (AlgebroidError, InconsistencyError, ParseError,
                     PreconditionError)
from .poly import Polynomial, format_poly, parse_poly
from .groebner import (FreeModuleElement, GroebnerBasis, Ideal, groebner_basis,
                       syzygies)
from .series import (CharacterSeries, QuasiPolynomial, RationalSeries,
                     SeriesPrefix, integrate_characters, quasi_polynomial_of,
                     reconstruct_rational)
from .derivations import (Derivation, DerivationModule, jacobian_ideal,
                          monomialize, quasi_homogeneous_weights,
                          tangent_derivations)
from .liealg import LieAlgebra, fibre_lie_algebra, sl2
from .repmod import (MatrixRep, binary_form_rep, cayley_sylvester,
                     covariant_dimensions, decompose_sl2,
                     sl2_algebroid_filtration, sym_power_rep)
from .hilbert import (GradedPieceReport, dimension_multiplicity,
                      equivariant_series_monomial, graded_pieces_series,
                      hilbert_series_quotient)
from .pipeline import (analyze_singularity, analyze_toral, covariants_report,
                       parse_input)

__version__ = "0.1.0"
