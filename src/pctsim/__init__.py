"""Agent-based epidemic simulation with privacy-preserving contact tracing.

A deterministic SEIR agent population exchanges quantized risk messages
through a contact-tracing app; pluggable policies map the received
messages and local observations onto graded quarantine recommendations.

The package namespace holds the engine entry points. ``run`` steps a
``WorldState`` through its days and returns it: the finished world is the
run's one record, which ``metrics`` and ``datagen`` read, and observers
passed to ``run`` see each day end, as ``core.write_run``'s trace writer
does. Everything else is imported from its submodule: ``messaging``
(quantization and the wire codec), ``tracing`` (policies and predictors),
``virology``, ``mobility``, ``metrics``, ``datagen`` and ``cli``.
"""

from .core import (
    ConfigError,
    DayReport,
    POLICIES,
    PREDICTORS,
    SimConfig,
    WorldState,
    init_world,
    load_config,
    run,
    step_day,
)

__version__ = "0.1.0"

__all__ = [
    "ConfigError", "DayReport", "POLICIES", "PREDICTORS", "SimConfig",
    "WorldState", "init_world", "load_config", "run", "step_day", "__version__",
]
