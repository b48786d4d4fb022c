"""Online leasing algorithms for (connected) dominating sets.

Library layout:

- ``errors``       the one exception hierarchy, rooted at ``LeaselabError``
- ``leases``       lease catalogs, valid by construction, with a lease's index its position;
                   slot alignment, triplets
- ``graphs``       validated undirected connected graphs
- ``instances``    instances, purchase ledgers, per-step reports, the request rule and
                   ``OnlineLeaser(graph, catalog)``, the base of every online algorithm
- ``permits``      deterministic parking-permit algorithm on the one-node instance + exact DP oracle
- ``hst``          random hierarchical tree embedding of the graph metric
- ``steiner``      online Steiner forest leasing on the embedded tree
- ``ocdsl``        the two-phase randomized connected-dominating-set leaser
- ``primal_dual``  deterministic primal-dual dominating-set leaser
- ``oracle``       feasibility verifier and exact offline optima (desk scale)
- ``generators``   instance generators, including adversarial patterns
- ``harness``      the one serving loop, seeded experiment runner, records, reports
- ``benchmarks``   the frozen ratio-regression grid and its runner
- ``cli``          the ``leaselab`` command line front end
"""

__version__ = "0.1.0"
