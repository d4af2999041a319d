"""Colza: the elastic in situ data-staging service (the paper's core).

The moving parts, mirroring §II:

- :class:`Backend` (:mod:`repro.core.backend`) — the abstract pipeline
  class users subclass (``colza::Backend``), with the
  activate/stage/execute/deactivate lifecycle, plus a registry standing
  in for shared-library loading;
- :class:`ColzaProvider` (:mod:`repro.core.provider`) — the per-server
  Margo provider managing pipelines, reacting to SSG membership
  changes, freezing membership during active iterations, and serving
  the 2PC used at ``activate``;
- :class:`ColzaClient` / :class:`DistributedPipelineHandle`
  (:mod:`repro.core.client`) — the simulation-side API;
- :class:`ColzaAdmin` (:mod:`repro.core.admin`) — the separate admin
  library (create/destroy pipelines, ask a server to leave);
- :class:`ColzaDaemon` / :class:`Deployment`
  (:mod:`repro.core.daemon`) — process bring-up, elastic joins via the
  group file, and the static-restart alternative for comparison;
- :class:`SloAutoscaler` (:mod:`repro.core.autoscale`) — the
  elasticity controller (predictive planner or :class:`ThresholdBand`);
- :mod:`repro.core.pipelines` — concrete Catalyst-based pipelines for
  the three applications.
"""

from repro.core.autoscale import SloAutoscaler, SloConfig, TenantSlo, ThresholdBand
from repro.core.backend import Backend, create_backend, register_backend
from repro.core.backoff import backoff_delay
from repro.core.client import ColzaClient, DistributedPipelineHandle, PipelineHandle
from repro.core.admin import ColzaAdmin
from repro.core.daemon import ColzaDaemon, Deployment
from repro.core.provider import ColzaProvider
from repro.core.replication import ReplicaStore, block_owner, replica_buddies
from repro.core.tenancy import (
    DEFAULT_TENANT,
    TenancyConfig,
    TenantQuota,
    TenantRegistry,
    qualify,
    tenant_of,
)

__all__ = [
    "Backend",
    "ColzaAdmin",
    "ColzaClient",
    "ColzaDaemon",
    "ColzaProvider",
    "DEFAULT_TENANT",
    "Deployment",
    "DistributedPipelineHandle",
    "PipelineHandle",
    "ReplicaStore",
    "SloAutoscaler",
    "SloConfig",
    "TenancyConfig",
    "TenantQuota",
    "TenantRegistry",
    "TenantSlo",
    "ThresholdBand",
    "backoff_delay",
    "block_owner",
    "create_backend",
    "qualify",
    "register_backend",
    "replica_buddies",
    "tenant_of",
]
