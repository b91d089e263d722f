"""dimkit: exact multiclass shattering dimensions, verifiable witness
functions, and constructive learners over finite label alphabets."""

from .core import (
    BehaviorSet,
    BudgetError,
    ConsistencyError,
    DomainError,
    FiniteDistribution,
    Hypothesis,
    HypothesisClass,
    NflFailureError,
    PreconditionError,
    RepresentationError,
    Sample,
    ShatteredError,
    class_from_supports,
    class_from_tables,
    empirical_risk,
    max_support,
    mix_labelings,
    restrict,
    true_risk,
    truncate,
)
from .dimensions import (
    DimensionResult,
    ShatterCertificate,
    exact_dimension,
    is_ds_shattered,
    is_g_shattered,
    is_n_shattered,
    is_psi_shattered,
    is_pseudo_cube,
    is_vc_shattered,
    sauer_natarajan_check,
    verify_certificate,
)
from .embedding import (
    AugmentedClass,
    GoodFunctionSpec,
    agnostic_learner,
    erm_augmented,
    good_patterns,
    realizable_enumeration_erm,
    uc_sample_size,
)
from .gallery import GalleryEntry, failing_psi_gallery, full_class, gap_class, six_cycle_class
from .nfl import (
    AdversaryReport,
    Learner,
    constant_learner,
    erm_learner,
    exact_expected_risk,
    memorizing_learner,
    nfl_adversary,
)
from .psi import (
    STAR,
    PsiFamily,
    PsiFunction,
    failing_psi_class,
    graph_family,
    is_distinguisher,
    natarajan_family,
    refute_ds_expressibility,
)
from .witnesses import (
    Witness,
    WitnessReport,
    canonical_witness,
    psi_witness_from_natarajan,
    sauer_crossover,
    validate_witness,
    witness_from_learner,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
