"""CompilerFlags rejects nonsensical knob values at construction time,
and the knob surface itself stays small.

Before this validation a bad knob surfaced as an obscure failure deep in
plan construction; now the knob is named in the error.
"""

import dataclasses

import pytest

from repro import CompilerFlags
from repro.errors import IVMError, ReproError

# Ratchet on the knob count: lower it when a field goes, never raise it
# to make room for a new one without removing another.
MAX_FLAG_FIELDS = 23


def test_defaults_are_valid():
    CompilerFlags()  # must not raise


def test_field_count_ratchet():
    assert len(dataclasses.fields(CompilerFlags)) <= MAX_FLAG_FIELDS


def test_docstring_table_lists_every_field():
    table = CompilerFlags.__doc__
    missing = [
        spec.name
        for spec in dataclasses.fields(CompilerFlags)
        if f"``{spec.name}``" not in table
    ]
    assert missing == []


@pytest.mark.parametrize("size", [0, -5])
def test_batch_size_below_one_rejected(size):
    with pytest.raises(IVMError, match="batch_size"):
        CompilerFlags(batch_size=size)


def test_checkpoint_every_negative_rejected():
    with pytest.raises(IVMError, match="checkpoint_every"):
        CompilerFlags(checkpoint_every=-1)


def test_errors_are_catchable_as_repro_errors():
    # Callers catching the library-wide base class see flag errors too.
    with pytest.raises(ReproError):
        CompilerFlags(batch_size=0)
