"""Tests for per-shard filesystem views (``repro.serving.shardfs``)."""

import pytest

from repro.errors import FileNotFoundInFS
from repro.serving.shardfs import ShardFsView
from tests.conftest import make_fs


def test_prefix_validation(engine):
    fs = make_fs(engine)
    with pytest.raises(ValueError):
        ShardFsView(fs, "")
    with pytest.raises(ValueError):
        ShardFsView(fs, "a/b")


def test_paths_translate_and_namespaces_are_disjoint(engine):
    fs = make_fs(engine)
    view0 = ShardFsView(fs, "shard-0")
    view1 = ShardFsView(fs, "shard-1")
    created = view0.create("MANIFEST")
    assert view0.exists("MANIFEST")
    assert not view1.exists("MANIFEST")
    assert fs.exists("shard-0/MANIFEST")
    assert view0.open("MANIFEST") is created  # a reopened DB finds its own
    with pytest.raises(FileNotFoundInFS):
        view1.open("MANIFEST")


def test_list_strips_prefix(engine):
    fs = make_fs(engine)
    view = ShardFsView(fs, "shard-3")
    view.create("sst/000001.sst")
    view.create("sst/000002.sst")
    view.create("wal/000003.log")
    assert sorted(view.list(prefix="sst/")) == [
        "sst/000001.sst",
        "sst/000002.sst",
    ]
    assert "shard-3/sst/000001.sst" in fs.list()


def test_delete_translates(engine):
    fs = make_fs(engine)
    view = ShardFsView(fs, "shard-0")
    view.create("wal/1.log")
    view.delete("wal/1.log")
    assert not fs.exists("shard-0/wal/1.log")


def test_install_synced_translates(engine):
    fs = make_fs(engine)
    view = ShardFsView(fs, "shard-0")
    f = view.install_synced("sst/9.sst", 4096)
    assert f is not None
    assert fs.exists("shard-0/sst/9.sst")


def test_shared_state_delegates(engine):
    """Space accounting and the device are the shared filesystem's."""
    fs = make_fs(engine)
    view0 = ShardFsView(fs, "shard-0")
    view1 = ShardFsView(fs, "shard-1")
    assert view0.device is fs.device
    assert view0.page_cache is fs.page_cache
    before = fs.free_bytes()
    view0.install_synced("sst/1.sst", 1 << 20)
    after = fs.free_bytes()
    assert after < before
    assert view1.free_bytes() == after  # one joint budget, seen by all views
