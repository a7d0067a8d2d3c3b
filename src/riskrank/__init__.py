"""Interconnected-risk aggregation over hierarchical networks.

Node-level crisis probabilities and link-level interconnectedness are folded
into a single score per node via a 2-additive-capacity aggregation whose
conjunctive term is the product of the interacting risk levels, together with
the early-warning backtesting and usefulness evaluation needed to judge it.
"""

from .capacity import (
    FuzzyMeasure,
    TwoAdditiveCapacity,
    ValidationReport,
    choquet_2additive,
    choquet_general,
    interaction_index,
    shapley,
    validate_measure,
)
from .early_warning import (
    BacktestResult,
    CrisisEvent,
    CrisisEvents,
    IndicatorPanel,
    LogitModel,
    fit_logit,
    label_precrisis,
    predict_prob,
    recursive_backtest,
)
from .engine import (
    RiskDecomposition,
    RiskRankConfig,
    riskrank_for,
    riskrank_series,
)
from .errors import (
    DegenerateFitError,
    NoCapacityError,
    RiskRankError,
    SchemaError,
    StructuralDriftError,
)
from .evaluation import (
    ContingencyMatrix,
    EvalReport,
    binarize,
    contingency,
    error_rates,
    loss,
    metrics,
    optimal_threshold,
    roc_auc,
    usefulness,
)
from .network import (
    NetworkSeries,
    NetworkSnapshot,
    Node,
    RiskNetwork,
    build_capacity,
    k_paths,
    validate_hierarchy,
)

__version__ = "0.1.0"
