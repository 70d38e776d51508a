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
"""

__version__ = "0.1.0"
