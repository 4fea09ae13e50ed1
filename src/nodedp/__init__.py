"""Node-differentially-private community estimation in stochastic block models.

Library layout:

- graphs: Graph/WeightedGraph/SbmParams types, SBM sampling, thinning
- metrics: misclassification losses and label alignment
- accounting: privacy budget algebra (DP and zCDP)
- mechanisms: Laplace noise, edge flipping, sphere samplers
- lp: solve_lp, one HiGHS call for the truncation LPs
- truncation: degree truncation T_D, extension score, sensitivity bound L_hat
- clustering: eigendecomposition and approximate k-means
- estimators: the six private pipelines plus the reduction to node privacy
- boosting: graph-based boosting and the thinned-Bernoulli correlation
- bounds: lower-bound calculators
- harness: config-driven sweeps; cli: command-line entry points
"""

from .accounting import (
    PrivacyBudget,
    adaptive_compose_dp,
    approx_dp,
    compose_zcdp,
    group_dp,
    group_zcdp,
    pure_dp,
    reduction_budgets,
    zcdp,
    zcdp_to_dp,
)
from .boosting import BoostConfig, graph_boost, hgr_thinned_bernoulli
from .bounds import (
    LowerBoundQuery,
    lb_packing,
    lb_packing_solve,
    lb_pure,
    lb_stable,
    stability_success_cap,
)
from .clustering import approx_kmeans, sym_eigs
from .estimators import (
    BoundedDegreeEstimator,
    EstimatorOutput,
    ef_spectral,
    eigvec_deflation,
    eigvec_deflation_cluster,
    good_center,
    matrix_estimation,
    private_pca_lipschitz,
    reduce_to_node_private,
    subspace_estimation,
    two_community_convex,
)
from .graphs import (
    Graph,
    LabelAssignment,
    SbmParams,
    WeightedGraph,
    WeightModel,
    balanced_labels,
    max_degree,
    read_graph,
    sample_sbm,
    sample_weighted_sbm,
    thin_graph,
    write_graph,
)
from .mechanisms import (
    RejectionCapExceeded,
    SphereSample,
    debias_flip,
    edge_flip,
    laplace,
    sample_lipschitz_exp,
    sample_sphere_exp,
)
from .metrics import align, loss_overall, loss_worst_case, relabel
from .truncation import (
    TruncationCertificate,
    degree_truncate,
    extension_score_sensitivity,
    lipschitz_extension_score,
    private_sensitivity_bound,
    weighted_degree_truncate,
)

__version__ = "0.1.0"
