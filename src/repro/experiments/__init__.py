"""What the paper's figures sweep: experiment specs and protocol variants.

Each figure of the evaluation section maps to an :class:`ExperimentSpec`
produced by a function in :mod:`repro.experiments.figures`, and
:mod:`repro.experiments.variants` names the protocol variants a sweep
compares (MAODV alone, MAODV + Anonymous Gossip, the baselines and
ablations).  Running and aggregating a sweep is :mod:`repro.campaign`'s
job: ``trials_for_spec`` -> ``run_campaign`` -> ``aggregate_experiment``
(``aggregate_goodput`` for Fig. 8).
"""

from repro.experiments.figures import (
    ExperimentSpec,
    figure2_range_slow,
    figure3_range_fast,
    figure4_speed_low,
    figure5_speed_high,
    figure6_nodes_constant_degree,
    figure7_nodes_constant_range,
    figure8_goodput,
    all_figures,
)
from repro.experiments.variants import KNOWN_VARIANTS, variant_config, variant_names

__all__ = [
    "KNOWN_VARIANTS",
    "variant_config",
    "variant_names",
    "ExperimentSpec",
    "all_figures",
    "figure2_range_slow",
    "figure3_range_fast",
    "figure4_speed_low",
    "figure5_speed_high",
    "figure6_nodes_constant_degree",
    "figure7_nodes_constant_range",
    "figure8_goodput",
]
