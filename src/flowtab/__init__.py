"""flowtab: boundary analysis of flow-table usage reduction algorithms.

Simulates and analytically evaluates three elephant-flow detection
strategies (first-packet oracle, counter threshold, packet sampling)
over flow length/size mixture models, reporting traffic coverage,
operations reduction and occupancy reduction against the reactive
baseline in which every flow receives an entry at its first packet.
"""
from . import algorithms, analytic, generator, model, sweep
from .algorithms import *
from .analytic import *
from .generator import *
from .model import *
from .sweep import *

__all__ = [name for module in (algorithms, analytic, generator, model, sweep) for name in module.__all__]

__version__ = "0.1.0"
