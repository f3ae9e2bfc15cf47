"""End-to-end IVM benchmark: one SQL statement in, the view current after it.

The harness drives the public API of :mod:`repro` (``Connection.execute``,
``load_ivm``, ``CrossSystemPipeline``, ``OLTPSystem``,
``Connection.recover``) with generated SQL text and parameters, in one
process with one closed-loop client.  ``run.py`` next to this package is
the command-line entry point.
"""
