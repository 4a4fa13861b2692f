"""Signed-graph balance measurement, greedy sign-flip attacks, and link
sign prediction evaluation."""

from .graph import (
    LoadStats,
    ParseError,
    SignedGraph,
    load_edge_list,
    load_rating_csv,
    write_edge_list,
)
from .balance import (
    BalanceReport,
    TwoPathTable,
    balance_degree,
    count_signed_triangles,
)
from .attack import (
    MODE_BALANCE_BATCHED,
    MODE_BALANCE_SEQUENTIAL,
    MODE_RANDOM,
    STATUS_ALREADY_MINIMAL,
    STATUS_BUDGET_EXHAUSTED,
    STATUS_NO_CANDIDATES,
    AttackConfig,
    AttackTrace,
    FlipRecord,
    PerturbationReport,
    run_attack_budgets,
    run_balance_attack,
    run_random_attack,
    select_candidates,
    verify_perturbation,
)

__version__ = "0.1.0"


def __getattr__(name: str):
    """A name of `__all__` not imported above is one of the prediction
    module's, imported on first use (PEP 562) so that the attack commands
    never load that module."""
    if name in __all__:
        from . import prediction

        return getattr(prediction, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "AttackConfig",
    "AttackTrace",
    "BalanceReport",
    "EdgeSplit",
    "EvalReport",
    "FlipRecord",
    "LoadStats",
    "MODE_BALANCE_BATCHED",
    "MODE_BALANCE_SEQUENTIAL",
    "MODE_RANDOM",
    "ParseError",
    "PerturbationReport",
    "PipelineRow",
    "STATUS_ALREADY_MINIMAL",
    "STATUS_BUDGET_EXHAUSTED",
    "STATUS_NO_CANDIDATES",
    "SignedGraph",
    "TwoPathTable",
    "attack_eval_pipeline",
    "balance_degree",
    "count_signed_triangles",
    "evaluate",
    "load_edge_list",
    "load_rating_csv",
    "run_attack_budgets",
    "run_balance_attack",
    "run_random_attack",
    "select_candidates",
    "split_edges",
    "verify_perturbation",
    "write_edge_list",
    "write_pipeline_csv",
]
