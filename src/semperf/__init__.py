"""semperf: spectral-element work kernel plus the Gamma speedup model.

Names are imported from their modules (``semperf.harness``,
``semperf.gamma``, ...); the package root re-exports nothing, so importing
a model module does not load the numpy-based executed kernel.
"""

__version__ = "0.1.0"
