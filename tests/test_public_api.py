"""The package's public surface is exactly ``gradwave.__all__``."""

import types

import gradwave


def test_all_names_every_public_attribute():
    assert all(hasattr(gradwave, name) for name in gradwave.__all__)
    public = {name for name, value in vars(gradwave).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert sorted(gradwave.__all__) == sorted(public)
