import hamattn


def test_every_public_name_resolves_once():
    assert len(hamattn.__all__) == len(set(hamattn.__all__))
    missing = [name for name in hamattn.__all__ if not hasattr(hamattn, name)]
    assert missing == []
