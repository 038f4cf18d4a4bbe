"""``repro.perf`` — the ``repro bench`` regression harness.

:mod:`repro.perf.regression` freezes a seeded workload and gates each
``BENCH_<i>.json`` snapshot against the previous one.
"""
