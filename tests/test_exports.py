"""The package's export lists name only what exists, and the model layer
has one entry point per output."""

import importlib

import pytest


@pytest.mark.parametrize("module", ["amcr", "amcr.pipeline"])
def test_every_exported_name_resolves(module):
    mod = importlib.import_module(module)
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert not missing
    assert len(set(mod.__all__)) == len(mod.__all__)


def test_star_import_binds_every_exported_name():
    namespace = {}
    exec("from amcr import *", namespace)
    import amcr
    assert set(amcr.__all__) <= set(namespace)


def test_model_entry_points():
    import amcr
    from amcr.blocks import AestheticNet, Mrn
    assert not hasattr(amcr, "EcaBlock")
    # forward (class logits), score (regression) and features are the
    # model's entry points; parameters are read from .params
    for cls in (AestheticNet, Mrn):
        assert "__call__" not in vars(cls)
        assert not hasattr(cls, "parameters")
