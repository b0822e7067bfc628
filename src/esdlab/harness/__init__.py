"""Experiment harness: configuration, runners, emission, CLI."""

from .config import (
    ExperimentConfig,
    config_from_dict,
    config_to_dict,
)
from .emit import format_number, scatter_svg, sha256_file
from .experiments import (
    ExperimentResult,
    GateResult,
    TrialRecord,
    run_circular_law,
    run_ds_solve,
    run_experiment,
    run_hermitization_check,
    run_lemma_suite,
    run_tail_suite,
    run_universality,
)
