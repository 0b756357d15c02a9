"""Kernel backend, fixed at import time: the compiled core if it is
importable, else the pure-Python twin."""
try:
    from . import _core as kernels
except ImportError:
    from . import _purepy as kernels

BACKEND = kernels.BACKEND_NAME
