"""Automated-framework baselines the paper compares against (Section 8.2.3).

Both run through the planner: ``Planner.search("optcnn")`` and
``Planner.search("reinforce")`` (see :mod:`repro.plan.backends`).
"""

from repro.baselines.optcnn import OptCNNResult
from repro.baselines.reinforce import ReinforceResult

__all__ = ["OptCNNResult", "ReinforceResult"]
