"""Experiment harness reproducing §5 (Figures 4–11) plus worked examples.

Each runner takes a frozen config whose defaults are the paper's
parameters; the committed benchmarks call them at reduced replication
counts (scale is a parameter, never a code change).
"""

from repro.experiments.exp1_reuse import Exp1Config, Exp1Result, run_experiment1
from repro.experiments.exp2_dynamic import Exp2Config, Exp2Result, run_experiment2
from repro.experiments.exp3_power import Exp3Config, Exp3Result, run_experiment3
from repro.experiments.parallel import (
    run_experiment1_parallel,
    run_experiment2_parallel,
    run_experiment3_parallel,
    split_config,
)
from repro.experiments.presets import PRESETS, WorkloadPreset, make_preset, preset_names
from repro.experiments.scaling import ScalingPoint, run_scaling
from repro.experiments.worked_examples import (
    Figure1Example,
    Figure2Example,
    figure1_example,
    figure2_example,
)

__all__ = [
    "Exp1Config",
    "Exp1Result",
    "Exp2Config",
    "Exp2Result",
    "Exp3Config",
    "Exp3Result",
    "Figure1Example",
    "Figure2Example",
    "PRESETS",
    "ScalingPoint",
    "WorkloadPreset",
    "figure1_example",
    "figure2_example",
    "make_preset",
    "preset_names",
    "run_experiment1",
    "run_experiment1_parallel",
    "run_experiment2",
    "run_experiment2_parallel",
    "run_experiment3",
    "run_experiment3_parallel",
    "run_scaling",
    "split_config",
]
