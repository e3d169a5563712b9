"""ccdsim: single-qubit simulator for concatenated continuous driving.

Modules
-------
qubit        state arrays (|0>, norm, readout), Pauli/axis operators
drive        CCD drive model: lab / first / second frame Hamiltonians, frames, I/Q
propagator   4th-order commutator-free unitary propagation, closed-form and Floquet paths
pulses       pulse programs as piece arrays, the gate-lattice guard, piece propagators
clifford     the 24 Cliffords as exact integer rotations, their pulse decompositions
experiments  chevrons, error sweeps, Hann spectra, trajectories, presets, noise
rb           Clifford randomized benchmarking
config       run configuration (key = value format)
dataset      deterministic CSV/JSON dataset serialization
cli          command-line interface
"""
from .drive import DriveConfig, Scheme, default_config

__version__ = "0.1.0"

__all__ = ["DriveConfig", "Scheme", "default_config", "__version__"]
