"""fedal: deterministic desk-scale simulator for annotation strategies in
cross-silo federated learning.

Random per-client sampling, per-client ("separate") active learning, and
federated active learning share one pipeline over a from-scratch float64 MLP
and a FedAvg engine, so their labeled-data curves are directly comparable
under paired seeds.
"""

from .config import DatasetSpec, ExperimentConfig, ModelSpec, parse_config, parse_config_file
from .data import (
    ClientPools,
    Dataset,
    PartitionSpec,
    annotate,
    gather,
    load_external,
    partition,
    seed_initial_labels,
    synth_blobs,
)
from .fed import FedConfig, FedRunReport, evaluate, fedavg, independent_train, weighted_average
from .harness import ResultRow, ResultTable, emit_csv, run_experiment
from .nn import LrSchedule, MlpArchitecture, Model, forward, grad, hidden_features, init_params, loss
from .orchestrator import (
    ALConfig,
    RoundLog,
    run_full_budget,
    run_independent_eval,
    run_strategy,
)
from .strategies import (
    ScorerSpec,
    coreset_greedy,
    score_discrepancy,
    score_entropy,
    score_mc_dropout,
    select_top_b,
    train_discrepancy_heads,
)

__version__ = "0.1.0"
