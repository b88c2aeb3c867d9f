import padlab as pl
from padlab import spaces


def test_public_names_resolve():
    """``padlab.__all__`` joins the submodules' lists: every name is listed
    once and importable from the package."""
    assert len(set(pl.__all__)) == len(pl.__all__)
    assert [name for name in pl.__all__ if not hasattr(pl, name)] == []


def test_each_space_implements_only_dist_block():
    """``dist_block`` is the one distance kernel: every concrete space in
    ``padlab.spaces`` defines it, and none defines its own ``dist_row``."""
    classes = [c for c in vars(spaces).values() if isinstance(c, type)
               and issubclass(c, spaces.FiniteMetricSpace) and c is not spaces.FiniteMetricSpace]
    assert classes
    assert [c.__name__ for c in classes if "dist_block" not in vars(c)] == []
    assert [c.__name__ for c in classes if "dist_row" in vars(c)] == []
