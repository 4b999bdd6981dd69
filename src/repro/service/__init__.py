"""Verification-as-a-service: job server, clients, certificate cache.

The staged :class:`~repro.core.pipeline.Pipeline` (PR 5) verifies one
design per invocation; this package turns it into the internal API of a
long-running service that never re-verifies a design it has already
certified:

* :mod:`repro.service.fingerprint` — canonical structural fingerprint
  of a design (isomorphism/pin-permutation invariant, interface-aware),
  the content address of the certificate cache;
* :mod:`repro.service.persistence` — the shared persistence API over
  the SQLite run-history store: certificate lookup/store and run-record
  ingestion used identically by the CLI, batch verify and the service;
* :mod:`repro.service.task` — the one verification task every front
  end runs (``repro verify``, batch ``verify``, ``repro serve``): one
  design in, one verdict record out, typed errors as ``invalid``
  records, plus the pre-dispatch cache consult;
* :mod:`repro.service.jobs` — priority job queue and job records;
* :mod:`repro.service.core` — :class:`VerificationService`: submission,
  cache consult, in-process dispatcher threads, per-job obs event
  streams;
* :mod:`repro.service.server` — stdlib asyncio HTTP/JSON front end
  (``repro serve``);
* :mod:`repro.service.client` — blocking :class:`ServiceClient` over
  ``http.client`` (``repro submit`` / ``repro status``).

The re-exports resolve on first use (:mod:`repro._lazy`).
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "repro.service.fingerprint": ("design_fingerprint",),
    "repro.service.client": ("ServiceClient",),
    "repro.service.core": ("VerificationService",),
})
