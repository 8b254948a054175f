"""Per-incarnation views over a node's filesystem.

A cluster node's DB instance must not survive that node's power failure:
any I/O its leftover processes issue after the crash has to fail with a
typed, *non-transient* error so the error handler classifies it fatal and
the stale incarnation winds down — while the node's next incarnation opens
the same underlying files through a fresh view.

:class:`NodeFsView` wraps a :class:`~repro.fs.filesystem.SimFileSystem`
(or its fault-injecting subclass) and hands out :class:`NodeFileView`
wrappers; calling :meth:`NodeFsView.kill` marks every handle dead.  Views
cache per ``file_id`` so identity comparisons inside the DB (e.g.
``WalManager.release_up_to``'s ``f is self.current``) keep working.
"""

from __future__ import annotations

from typing import Any, Dict

from repro.errors import IOFaultError

#: SimFile attributes that views pass through by delegation.  Attribute
#: *writes* also delegate (recovery code assigns ``size``/``synced_size``
#: etc. directly, and those must land on the real file).
_VIEW_FIELDS = ("_fs_view", "_file", "dead")


class NodeFileView:
    """A per-incarnation handle over one :class:`SimFile`."""

    def __init__(self, fs_view: "NodeFsView", real_file: Any) -> None:
        object.__setattr__(self, "_fs_view", fs_view)
        object.__setattr__(self, "_file", real_file)

    @property
    def dead(self) -> bool:
        return self._fs_view.dead

    def _check_dead(self, op: str) -> None:
        if self._fs_view.dead:
            raise IOFaultError(
                f"node incarnation dead: {op} on {self._file.path}",
                op=op,
                transient=False,
            )

    # -- I/O entry points (dead-checked) -----------------------------------

    def append(self, nbytes: int, record: Any = None):
        if self._fs_view.dead:
            self._check_dead("append")
        return self._file.append(nbytes, record)

    def read(self, offset: int, nbytes: int, sequential: bool = False):
        if self._fs_view.dead:
            self._check_dead("read")
        return self._file.read(offset, nbytes, sequential=sequential)

    def sync(self):
        view = self._fs_view
        if view.dead:
            self._check_dead("fsync")
        result = yield from self._file.sync()
        if view.dead:
            self._check_dead("fsync")
        return result

    # -- delegation --------------------------------------------------------

    def __getattr__(self, name: str) -> Any:
        return getattr(object.__getattribute__(self, "_file"), name)

    def __setattr__(self, name: str, value: Any) -> None:
        if name in _VIEW_FIELDS:
            object.__setattr__(self, name, value)
        else:
            setattr(self._file, name, value)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<NodeFileView dead={self.dead} of {self._file!r}>"


class NodeFsView:
    """A per-incarnation view over a node's filesystem."""

    def __init__(self, fs: Any) -> None:
        self._fs = fs
        self.dead = False
        self._views: Dict[int, NodeFileView] = {}

    def kill(self) -> None:
        """Invalidate this incarnation: all further I/O through it fails."""
        self.dead = True

    def _check_dead(self, op: str) -> None:
        if self.dead:
            raise IOFaultError(
                f"node incarnation dead: {op}", op=op, transient=False
            )

    def _wrap(self, real_file: Any) -> NodeFileView:
        view = self._views.get(real_file.file_id)
        if view is None or view._file is not real_file:
            view = NodeFileView(self, real_file)
            self._views[real_file.file_id] = view
        return view

    # -- namespace (dead-checked, wrapped) ---------------------------------

    def create(self, path: str, **kwargs: Any) -> NodeFileView:
        self._check_dead("create")
        return self._wrap(self._fs.create(path, **kwargs))

    def open(self, path: str) -> NodeFileView:
        self._check_dead("open")
        return self._wrap(self._fs.open(path))

    def delete(self, path: str) -> None:
        self._check_dead("unlink")
        self._fs.delete(path)

    def install_synced(self, path: str, nbytes: int) -> NodeFileView:
        self._check_dead("install")
        return self._wrap(self._fs.install_synced(path, nbytes))

    # -- read-only passthroughs --------------------------------------------

    def __getattr__(self, name: str) -> Any:
        return getattr(self._fs, name)
