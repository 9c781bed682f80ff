"""FlexFlow reproduction: SOAP parallelization search for DNN training.

A from-scratch Python implementation of *Beyond Data and Model Parallelism
for Deep Neural Networks* (Jia, Zaharia, Aiken -- MLSys 2019): the SOAP
search space, the execution simulator (full and delta algorithms), the
MCMC execution optimizer, the baselines the paper compares against, and
the six benchmark DNNs, all running on a simulated two-cluster hardware
substrate.

Quickstart::

    from repro import machine, models
    from repro.plan import BudgetConfig, Planner, SearchConfig

    graph = models.alexnet(batch=256)
    topo = machine.p100_cluster(num_nodes=1, gpus_per_node=4)
    config = SearchConfig(budget=BudgetConfig(iterations=500), seed=0)
    result = Planner(graph, topo).search("mcmc", config)
    print(result.summary())
"""

from repro import (
    baselines,
    bench,
    ir,
    machine,
    models,
    plan,
    profiler,
    runtime,
    search,
    sim,
    soap,
    viz,
)

__version__ = "0.1.0"

__all__ = [
    "baselines",
    "bench",
    "ir",
    "machine",
    "models",
    "plan",
    "profiler",
    "runtime",
    "search",
    "sim",
    "soap",
    "viz",
    "__version__",
]
