"""End-to-end benchmark of the scenario layer: spec JSON in, run digest out.

The driver side (``cli``, ``workloads``, ``catalogue``, ``compare``,
``tracing``) imports nothing from ``repro``: the program under test only
ever sees generated spec JSON files, inside fresh subprocesses started
through ``child``.  ``layers`` holds the timing wrappers and probes of the
traced run and is imported by the child only.
"""
