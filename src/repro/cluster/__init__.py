"""repro.cluster — the multi-tenant rack control plane.

A simulated cluster manager over one :class:`~repro.core.runtime.LmpRuntime`:
admission control with quotas and priority classes, pluggable placement
scheduling, lease-based ownership with crash reclamation, and a
concurrent workload driver producing fairness and latency reports.
"""

from repro.cluster.admission import AdmissionController, Decision, Verdict
from repro.cluster.driver import ClusterDriver, DriverReport, TenantReport, WorkloadMix
from repro.cluster.fairness import jain_index
from repro.cluster.leases import Lease, LeaseTable
from repro.cluster.manager import PoolManager, ReclaimReport
from repro.cluster.placement import CLUSTER_POLICIES, FirstFitPlacement, make_policy
from repro.cluster.tenants import PriorityClass, TenantSpec, TenantState

__all__ = [
    "AdmissionController",
    "Decision",
    "Verdict",
    "ClusterDriver",
    "DriverReport",
    "TenantReport",
    "WorkloadMix",
    "jain_index",
    "Lease",
    "LeaseTable",
    "PoolManager",
    "ReclaimReport",
    "CLUSTER_POLICIES",
    "FirstFitPlacement",
    "make_policy",
    "PriorityClass",
    "TenantSpec",
    "TenantState",
]
