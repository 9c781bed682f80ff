"""Automated-framework baselines the paper compares against (Section 8.2.3).

Both run through the planner: ``Planner.search("optcnn")`` and
``Planner.search("reinforce")``, two of the four entries of
:data:`repro.plan.backends.BACKENDS`.
"""

from repro.baselines.optcnn import OptCNNResult
from repro.baselines.reinforce import ReinforceResult

__all__ = ["OptCNNResult", "ReinforceResult"]
