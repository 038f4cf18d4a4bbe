"""Self-verifying answers: certificates, checking, quarantine and repair.

The trust layer (PR 6).  Solvers emit :class:`Certificate` objects — a
witness path plus lower-bound evidence — and the independent
:class:`CertificateChecker` validates them in O(path length + k spot
checks).  Built on top of it:

* :class:`repro.serve.ServePipeline` ``verify=True`` — every answer is
  checked before it is recorded; a failed check triggers one exact
  recompute and re-check (the ``repaired`` outcome);
* ``repro verify`` / ``repro serve-batch --verify`` on the CLI.

See docs/robustness.md for what is proven vs spot-checked.
"""

from .certificate import (
    CERTIFICATE_KIND,
    CERTIFICATE_VERSION,
    Certificate,
    CertificateError,
    RelaxFact,
    build_certificate,
    certificate_for_run,
)
from .checker import CertificateChecker, CheckReport

__all__ = [
    "CERTIFICATE_KIND",
    "CERTIFICATE_VERSION",
    "Certificate",
    "CertificateChecker",
    "CertificateError",
    "CheckReport",
    "RelaxFact",
    "build_certificate",
    "certificate_for_run",
]
