import eivmix


def test_all_has_no_duplicates():
    assert len(eivmix.__all__) == len(set(eivmix.__all__))


def test_all_names_resolve():
    missing = [name for name in eivmix.__all__ if not hasattr(eivmix, name)]
    assert missing == []


def test_star_import():
    namespace = {}
    exec("from eivmix import *", namespace)
    assert set(eivmix.__all__) <= set(namespace)
