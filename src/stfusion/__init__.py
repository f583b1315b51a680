"""Desk-scale lab for spatiotemporal fusion strategies.

Trains a gated dense video template network with variational DropPath,
then samples, evaluates, and ranks fusion strategies without retraining.
"""

from .errors import (
    ConfigurationError,
    ContractError,
    DomainError,
    FormatError,
    ShapeError,
    SizeGuardError,
    TrainingDiverged,
    UninitializedStateError,
)
from .gates import (
    GateParams,
    GateSample,
    ObjectiveBreakdown,
    ObjectiveConfig,
    marginal_eq7,
    objective,
    sample_gates_concrete,
    sample_gates_hard,
    temperature_schedule,
    unit_composition,
)
from .model import (
    FusionStrategy,
    FusionUnitKind,
    StrategyLayer,
    Subnetwork,
    TemplateConfig,
    TemplateNetwork,
    enumerate_all_strategies,
    recover_strategy,
    strategy_from_literature,
)
from .tensor import Parameter, SGD, Tensor, backward

__all__ = [name for name in dir() if not name.startswith("_")]
