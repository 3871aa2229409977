"""What a command writes and the option range it prints, in plain Python:
the number format of every output, the output file or standard output,
and the largest cert sample. The command line imports this module when it
loads, so it uses only the standard library.

Every output file (an experiment's CSV, a region's point cloud) is written
by open_output, which overwrites an existing file in place: it opens
without truncating, writes over the old bytes and, on close, cuts a
regular file at the written length. Cutting a file to zero before the
write costs far more than the write itself on filesystems that flush a
file's data when it is replaced by truncation (ext4's auto_da_alloc).
Neither design fsyncs, and only a hard kill between the last write and
the cut can leave the old file's tail. A command opens its output once,
after its options are checked and before its work, so the open is the
check of the path and a FIFO's reader sees one writer. A failed write to
an output, or to standard output or standard error, raises WriteError
naming it.
"""

from __future__ import annotations

import contextlib
import io
import os
import stat
import sys

from shadowhp.errors import ConfigError

#: largest sample sector_bound_cert draws: 100x the command's default; a
#: sample costs about 50 bytes while it is drawn and 16 bytes per point the
#: cert keeps (about a third), so the cap's cert peaks near 82 MB resident
MAX_SAMPLES = 1_000_000

#: the names a failed write gives standard output and standard error
STDOUT = "<stdout>"
STDERR = "<stderr>"

__all__ = ["MAX_SAMPLES", "STDERR", "STDOUT", "WriteError", "open_output"]


def _fmt(x: float) -> str:
    return f"{x:.17g}"


class WriteError(ConfigError):
    """A write to a command's output failed, worded as a failed open: the
    output is a run option. path names it (STDOUT for standard output), and
    reader_closed is true where a pipe's reader closed it early (EPIPE).
    """

    def __init__(self, path: str, exc: OSError) -> None:
        super().__init__(f"cannot write output {path!r}: {exc.strerror or exc}")
        self.path = path
        self.reader_closed = isinstance(exc, BrokenPipeError)


@contextlib.contextmanager
def _writing(path: str):
    try:
        yield
    except OSError as exc:
        raise WriteError(path, exc) from exc


class _OverwriteText(io.TextIOWrapper):
    """Text written over the old bytes of a file opened without O_TRUNC.
    Closing it (also by leaving a `with` block on an exception) cuts a
    regular file at the final position, so exactly the text written remains;
    a file nothing was written to is left as it was. A failed write or
    close raises WriteError naming the path.
    """

    def __init__(self, binary, path: str, **kwargs) -> None:
        super().__init__(binary, **kwargs)
        self.path = path

    def write(self, text: str) -> int:
        # inline, not _writing: region writes once a row, and a try costs nothing
        try:
            return super().write(text)
        except OSError as exc:
            raise WriteError(self.path, exc) from exc

    def close(self) -> None:
        # a pipe cannot tell, so the file type is tested first
        with _writing(self.path):
            try:
                if not self.closed and stat.S_ISREG(os.fstat(self.fileno()).st_mode):
                    if self.tell():
                        self.truncate()
            finally:
                super().close()


class _StdText:
    """sys.stdout or sys.stderr, looked up at each call so that a
    redirection is seen, as an output: a failed write raises WriteError
    naming STDOUT or STDERR, and leaving a `with` block flushes it and
    leaves it open.
    """

    def __init__(self, name: str) -> None:
        self.name = name
        self.path = f"<{name}>"

    def write(self, text: str) -> int:
        with _writing(self.path):
            return getattr(sys, self.name).write(text)

    def __enter__(self) -> _StdText:
        return self

    def __exit__(self, *exc_info) -> None:
        with _writing(self.path):
            getattr(sys, self.name).flush()


def open_output(path: str | None) -> io.TextIOWrapper | _StdText:
    """Open a run's output file for writing ASCII text, or standard output
    where path is None. Raise ConfigError, naming the path, when it cannot be
    opened: the path is a run option.

    The file is opened without O_TRUNC (a new one is created with mode 0o666
    under the umask, as by open(path, "w")), with the buffer size and line
    buffering open(path, "w") would pick, written over in place and, when
    closed, truncated at the written length if it is a regular file that
    was written to; a pipe, a FIFO, /dev/null or /dev/stdout is never
    truncated. The bytes left are those a truncating open would leave,
    except that an old file closed unwritten keeps its bytes; a symlink is
    written through and a hard link keeps its inode. Truncating a file to
    zero before the write cost about ten times the write of a small CSV on
    ext4 (auto_da_alloc flushes a file replaced that way). Nothing is
    fsynced: a hard kill after the last write and before the close can
    leave the old file's tail.
    """
    if path is None:
        return _StdText("stdout")
    try:
        fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    except (OSError, ValueError) as exc:
        reason = getattr(exc, "strerror", None) or exc
        raise ConfigError(f"cannot write output {path!r}: {reason}") from exc
    binary = open(fd, "wb")
    return _OverwriteText(
        binary, path, encoding="ascii", newline="\n", line_buffering=binary.isatty()
    )
