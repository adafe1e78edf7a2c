"""suspensia: exact certificates for derivations on presented algebras.

The package builds finitely presented algebras over Q or a prime-order
cyclotomic field, certifies derivations (well-definedness, local nilpotency,
homogeneity), constructs suspensions with their torus weights and gcd
criterion, and ships a counterexample-family pipeline plus a certificate
CLI.  All arithmetic is exact.
"""

from .algebra import (
    AlgebraElement,
    Grading,
    GradingError,
    PresentationError,
    PresentedAlgebra,
    attach_grading,
    coarsen_grading,
)
from .coeff import (
    CoefficientError,
    CyclotomicField,
    CyclotomicNumber,
    QQ,
    RationalField,
    field_from_text,
    is_prime,
    root_of_unity,
)
from .constructions import (
    ConstructionError,
    FormProducts,
    YpBundle,
    build_F,
    build_Xp,
    build_Yp,
    build_vandermonde_lnd,
    certify_bundle,
    certify_family_lnd,
    form_products,
    linear_forms,
)
from .derivation import (
    MINUS_INFINITY,
    AlgebraMorphism,
    Derivation,
    DerivationError,
    HomogeneousDecomposition,
    InconclusiveError,
    LNDCertificate,
    MorphismError,
    NotWellDefinedError,
    WellDefinedness,
    certify_lnd,
    decompose,
    exp,
    homogeneous_degree,
    homogenize_lnd,
    identity_morphism,
    is_diagonal_semisimple,
    new_derivation,
    nu,
    zero_derivation,
)
from .groebner import (
    GroebnerBasis,
    MonomialOrder,
    OrderError,
    buchberger,
    eliminate,
    elimination,
    grevlex,
    lex,
    s_polynomial,
)
from .parseio import (
    ParseError,
    SchemaError,
    algebra_from_strings,
    dump_canonical,
    load_algebra,
    load_derivation,
    parse_expression,
)
from .poly import (
    Context,
    ContextError,
    Polynomial,
    PowerCollapseError,
    monomial_text,
    monomial_weight,
)
from .suspension import (
    CriterionReport,
    SuspensionError,
    SuspensionSpec,
    TorusAction,
    Verdict,
    adjoin_root,
    collapse_root,
    gcd_criterion,
    lift_along_root,
    lift_lnd,
    suspend,
    torus_action,
)

__version__ = "0.1.0"
