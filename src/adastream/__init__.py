"""adastream: a deterministic simulator for threshold-driven adaptive video
streaming managed by a monitor/analyze/plan/execute control loop over a
shared knowledge base.

Import each name from its home module (`adastream.mapek`, ...): `import
adastream` alone loads no submodule, and the engine's path never loads the
report and experiment code.
"""

__version__ = "0.1.0"
