"""Experiment harness: configuration, runners, emission, CLI."""

from .config import config_from_dict, config_to_dict
from .emit import format_number, scatter_svg
from .experiments import run_experiment
