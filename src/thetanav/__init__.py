"""Simulator of a velocity-tuned oscillator chip feeding vector-cell and
place-cell networks for dead-reckoning localization.

Modules follow the pipeline order: ``theta_core`` (oscillator physics),
``chip_io`` (host interface emulation and calibration), ``vector_net``
(interference network compiler and runtime), ``place_grid`` (activity-bump
path integration), ``harness`` (experiment orchestration) and ``cli``.
"""

__version__ = "0.1.0"
