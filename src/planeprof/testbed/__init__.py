"""A small hierarchical control-plane testbed: the workload under test.

One global manager supervises a global controller, a name server, one
local controller per site, one workflow manager per workflow and zone,
host nodes and client hosts. Entities are single-threaded event loops
that talk only through a length-prefixed message protocol, run either as
OS processes (default) or as threads for fast tests.
"""
