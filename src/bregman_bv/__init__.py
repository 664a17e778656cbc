"""Bias-variance decompositions for Bregman divergences via dual-space means.

The expected divergence between independent labels and predictions splits
into Bayes error, bias and model variance once the central prediction is
taken as the dual mean: the primal form of the mean of the predictions'
gradient coordinates.  This package provides the convex generators, the
dual-space statistics, the decomposition reports, brute-force certification
oracles and a small CLI.

The package re-exports the ``__all__`` of each submodule.  Submodules are
imported lazily, on first use of a name, so the ``bregman-bv`` entry point
can apply the ``BREGMAN_BV_THREADS`` cap before the numeric stack loads.
"""

__version__ = "0.1.0"

# each submodule imports only those before it
_MODULES = ("errors", "generators", "dualspace", "decomposition", "oracle", "cli")


def _submodules():
    import importlib

    return (importlib.import_module(f"{__name__}.{name}") for name in _MODULES)


def __getattr__(name):
    if name == "__all__":
        value = sorted(public for module in _submodules() for public in module.__all__)
    elif name.startswith("__") or name in _MODULES:
        # answered without importing: `from bregman_bv import cli` then loads only cli
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    else:
        module = next((m for m in _submodules() if name in m.__all__), None)
        if module is None:
            raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
        value = getattr(module, name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__getattr__("__all__")))
