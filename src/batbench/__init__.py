"""Tabular regression toolkit and benchmark CLI for baseball training data.

Importing the package loads no submodule, and so not numpy: ``batbench.cli``
sets the OpenBLAS thread count before numpy loads.
"""

__version__ = "0.1.0"
