"""planeprof: profile a distributed control plane at four granularities.

The package has three layers:

* ``planeprof.testbed`` runs a small hierarchical control plane (manager,
  controllers, name server, hosts, clients) as the workload under test.
* ``planeprof.instrument`` collects raw timing evidence: process clock
  splits, function enter/exit events and statement regions.
* ``planeprof.model``, ``planeprof.analysis`` and ``planeprof.reporting``
  turn event streams into tabular profiles, classified hotspot findings
  and rendered reports.

The ``planeprof`` command line (see ``planeprof.cli``) ties the layers
together: run a scenario, analyze its dumps, render reports, compare runs.
Importing a package loads none of its submodules: the few names a package
re-exports are imported on first use (:func:`lazy_exports`).
"""

from importlib import import_module

__version__ = "0.1.0"


def lazy_exports(package: str, homes: dict):
    """A module ``__getattr__`` (PEP 562) for ``package`` that reads each
    name of ``homes`` from the submodule it maps to, imported on first use."""

    def __getattr__(name: str):
        if name not in homes:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        return getattr(import_module(f"{package}.{homes[name]}"), name)

    return __getattr__
