"""The package's public names."""
import retrack


def test_every_exported_name_resolves():
    # a stale `__all__` entry breaks `from retrack import *`, though
    # `import retrack` still works
    missing = [name for name in retrack.__all__ if not hasattr(retrack, name)]
    assert not missing
