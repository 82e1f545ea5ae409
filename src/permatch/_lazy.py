"""numpy, imported at its first attribute read rather than with the package:
until then ``np`` stands in ``sys.modules`` as numpy. A missing numpy still
raises ModuleNotFoundError at import."""

import importlib.util
import sys

_spec = None if "numpy" in sys.modules else importlib.util.find_spec("numpy")
if _spec is None:  # imported already, or missing: import_module returns it or raises as import would
    np = importlib.import_module("numpy")
else:
    _spec.loader = importlib.util.LazyLoader(_spec.loader)
    np = importlib.util.module_from_spec(_spec)
    sys.modules["numpy"] = np
    _spec.loader.exec_module(np)
