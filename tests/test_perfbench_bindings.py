"""The benchmark's tracer wraps layer functions where dimkit modules bind
them, so renaming or dropping such a binding breaks only a traced run.
This test installs and removes the tracer to catch that in the suite."""

import os
import sys

import dimkit as dk

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                                "perfbench"))
import tracing  # noqa: E402


def test_tracer_installs_and_restores_every_binding():
    patches = tracing.install(tracing.Tracer())
    tracing.switch(patches, False)
    assert patches
    for owner, attr, original, wrapper in patches:
        assert getattr(owner, attr) is original is not wrapper
    assert dk.witnesses.apply_encoders is dk.psi.apply_encoders
