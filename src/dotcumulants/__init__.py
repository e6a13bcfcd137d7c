"""Exact and asymptotic transport statistics of ballistic chaotic cavities:
cumulants of the conductance, shot noise and Wigner delay time for the
symmetry classes beta in {1, 2, 4}, with independent verification oracles."""

__version__ = "0.1.0"

#: public names and the module that defines each, imported on first access
#: (PEP 562) so that importing the package loads no computation module
_LAZY = {
    "DelayParams": "params",
    "TransportParams": "params",
    "BACKEND": "rational",
    "rat": "rational",
}


def __getattr__(name):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    return getattr(import_module(f".{module}", __name__), name)
