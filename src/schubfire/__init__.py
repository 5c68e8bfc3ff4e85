"""schubfire: exact intersection-theory counts of linear subspaces on
hypersurfaces and their splits under two-component degenerations.

Everything is computed over the integers in the Schubert basis of the
Grassmannian of r-planes in P^n; no floating point, no external computer
algebra system.
"""

from .bundles import (
    BundleExpr,
    ChernCtx,
    ChernPoly,
    bundle_rank,
    chern_string,
    direct_sum,
    dual,
    rank_cap,
    segre,
    sym,
    sym_chern,
    total_chern,
    ustar,
)
from .chow import (
    ChowClass,
    GrassCtx,
    integral,
    schubert_string,
    schur_expand,
    serialize_class,
)
from .errors import (
    ContextMismatchError,
    DegreeMismatchError,
    ExprParseError,
    NonSymmetricInputError,
    RankCapExceededError,
    RouteMismatchError,
    SchubfireError,
)
from .limiting import (
    ProblemParams,
    SplitResult,
    expected_dim,
    is_generically_empty,
    sigma_direct,
    sigma_pb,
    split,
    total_class,
    verify_identity,
)
from .partitions import (
    Box,
    complement_in_box,
    conjugate,
    fits_box,
    iter_box_partitions,
    lr_multiply,
    pieri_e,
)
from .projbundle import PBClass, PBCtx, pushforward, pushforward_product

__version__ = "0.1.0"

__all__ = [
    "Box",
    "BundleExpr",
    "ChernCtx",
    "ChernPoly",
    "ChowClass",
    "ContextMismatchError",
    "DegreeMismatchError",
    "ExprParseError",
    "GrassCtx",
    "NonSymmetricInputError",
    "PBClass",
    "PBCtx",
    "ProblemParams",
    "RankCapExceededError",
    "RouteMismatchError",
    "SchubfireError",
    "SplitResult",
    "bundle_rank",
    "chern_string",
    "complement_in_box",
    "conjugate",
    "direct_sum",
    "dual",
    "expected_dim",
    "fits_box",
    "integral",
    "is_generically_empty",
    "iter_box_partitions",
    "lr_multiply",
    "pieri_e",
    "pushforward",
    "pushforward_product",
    "rank_cap",
    "schubert_string",
    "schur_expand",
    "segre",
    "serialize_class",
    "sigma_direct",
    "sigma_pb",
    "split",
    "sym",
    "sym_chern",
    "total_chern",
    "total_class",
    "ustar",
    "verify_identity",
]
