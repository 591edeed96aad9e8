"""Lazy package exports (PEP 562).

Each package ``__init__`` names its public API in one table mapping a
name to the submodule that defines it.  The submodule is imported the
first time the name is used, so importing a package costs nothing until
then and every ``repro`` command loads only the modules it runs.
"""

from __future__ import annotations

from importlib import import_module
from typing import Callable, Dict, Optional, Tuple

__all__ = ["lazy_exports"]


def lazy_exports(package: str, namespace: dict,
                 exports: Dict[str, Optional[str]]) -> Tuple[Callable, Callable]:
    """Return the ``(__getattr__, __dir__)`` pair of a package.

    ``exports`` maps each public name to the relative module defining it
    (``".mpi"``); ``None`` exports the subpackage of that name itself.
    A resolved name is stored in ``namespace`` (the package's
    ``globals()``), so later lookups never reach ``__getattr__``.
    """

    def __getattr__(name: str):
        try:
            where = exports[name]
        except KeyError:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}") from None
        if where is None:
            value = import_module(f".{name}", package)
        else:
            value = getattr(import_module(where, package), name)
        namespace[name] = value
        return value

    def __dir__():
        return sorted(set(namespace) | set(exports))

    return __getattr__, __dir__
