"""Programmable two-photon polarization measurements on a partial Bell analyzer.

Analytic theory, a physically faithful analyzer model, a Monte Carlo emulator
of the coincidence experiment, and the count-based estimators used to analyze
it.  Import the Python API from its modules, e.g. `bellmeter.experiment`.
"""

__version__ = "0.1.0"
