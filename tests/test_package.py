"""The package's public namespace."""
import rigidkit


def test_every_public_name_resolves():
    assert [n for n in rigidkit.__all__ if not hasattr(rigidkit, n)] == []
    assert len(set(rigidkit.__all__)) == len(rigidkit.__all__)
    assert {"ypr_to_quat", "ypr_to_matrix"} <= set(rigidkit.__all__)
