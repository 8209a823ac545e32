"""The public API: every name in ``maxlinear.__all__`` is importable."""

from __future__ import annotations

import maxlinear


def test_all_names_resolve():
    missing = [name for name in maxlinear.__all__ if not hasattr(maxlinear, name)]
    assert missing == []


def test_all_has_no_duplicates():
    assert len(set(maxlinear.__all__)) == len(maxlinear.__all__)


def test_star_import_binds_every_name():
    namespace: dict = {}
    exec("from maxlinear import *", namespace)
    assert set(maxlinear.__all__) <= set(namespace)
