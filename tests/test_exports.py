import conbreak


def test_all_names_resolve_without_duplicates():
    names = conbreak.__all__
    assert len(names) == len(set(names))
    assert [name for name in names if not hasattr(conbreak, name)] == []
