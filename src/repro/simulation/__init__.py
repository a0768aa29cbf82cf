"""Discrete-event simulation substrate: kernel, primitives, randomness."""

from .kernel import Event, Interrupt, Process, SimulationError, Simulator
from .primitives import EdgeWake, Semaphore, Signal
from .randomness import ZipfSampler, make_rng

__all__ = [
    "Event",
    "Interrupt",
    "Process",
    "SimulationError",
    "Simulator",
    "EdgeWake",
    "Semaphore",
    "Signal",
    "ZipfSampler",
    "make_rng",
]
