"""``repro.serve`` — simulation-as-a-service front door.

An HTTP+JSON service (stdlib only) that turns the library + batch
engine into the roadmap's "millions of users" system: submissions in
the :data:`repro.api.REQUEST_SCHEMA` shape flow through a multi-tenant
queue — per-tenant guard-budget ceilings and quotas
(:class:`TenantQuota`), FIFO-with-fairness scheduling, content-
addressed result-cache dedup — onto the same controller-owned worker
pool ``symsim batch`` uses.  See docs/SERVE.md for endpoints, the
request schema, the tenancy model and dedup semantics.

Quick start::

    from repro.serve import ServeConfig, serve_app

    with serve_app(ServeConfig(workers=4)) as app:
        app.start()
        # POST http://{app.host}:{app.port}/v1/runs
"""

from repro.serve.app import MAX_WAIT_SECONDS, ServeApp, serve_app
from repro.serve.scheduler import (
    CACHEABLE_STATUSES, QuotaExceeded, Scheduler, ServeConfig,
    ServeUnavailable, TenantQuota,
)

__all__ = [
    "ServeApp", "ServeConfig", "TenantQuota", "Scheduler", "serve_app",
    "QuotaExceeded", "ServeUnavailable",
    "CACHEABLE_STATUSES", "MAX_WAIT_SECONDS",
]
