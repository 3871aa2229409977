"""What a command writes and the option range it prints, in plain Python:
the number format of every output, the output file, and the largest cert
sample. The command line imports this module when it loads, so it uses
only the standard library.

Every output file (an experiment's CSV, a region's point cloud) is written
by open_output, which overwrites an existing file in place: it opens
without truncating, writes over the old bytes and, on close, cuts a
regular file at the written length. Cutting a file to zero before the
write costs far more than the write itself on filesystems that flush a
file's data when it is replaced by truncation (ext4's auto_da_alloc).
Neither design fsyncs, and only a hard kill between the last write and
the cut can leave the old file's tail. check_output, run before a sweep,
asks the filesystem about the path without opening it, so the write is
the only time the path is opened: a FIFO's reader sees one writer.
"""

from __future__ import annotations

import errno
import io
import os
import stat

from shadowhp.errors import ConfigError

#: largest sample sector_bound_cert draws: 100x the command's default,
#: about 80 MB at the ~80 bytes a sample costs
MAX_SAMPLES = 1_000_000

#: links check_output follows in a chain before refusing it as a loop
#: (Linux's own limit)
_MAX_LINKS = 40

__all__ = ["MAX_SAMPLES", "check_output", "open_output"]


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _output_error(path: str, exc: Exception) -> ConfigError:
    return ConfigError(f"cannot write output {path!r}: {getattr(exc, 'strerror', None) or exc}")


def check_output(path: str) -> None:
    """Raise ConfigError, as open_output would, when path cannot be opened
    for writing. The filesystem is asked, the path never opened: nothing is
    created, truncated or written, and a FIFO sees no writer.

    A run that writes its output only at the end checks it first, so that an
    unwritable path exits before any work. An existing path must not be a
    directory and must be writable; a new one needs a writable parent
    directory. A path with a NUL byte, which no file can have, is refused too.
    A dangling symlink's parent is that of its target, where open(O_CREAT)
    would create the file: each link's text is joined to the link's own
    directory, through a chain of links, and a chain of more than _MAX_LINKS
    is refused as a loop. Nothing is normalized, so the filesystem resolves
    "..", as open does: a link to nodir/../out.csv is refused.
    """
    try:
        try:
            st = os.stat(path)
        except FileNotFoundError:
            real = path
            for _ in range(_MAX_LINKS + 1):
                if not os.path.islink(real):
                    break
                real = os.path.join(os.path.dirname(real), os.readlink(real))
            else:
                raise OSError(errno.ELOOP, os.strerror(errno.ELOOP), path)
            parent = os.path.dirname(real) or "."
            if not path or not os.path.isdir(parent):
                raise
            target, mode = parent, os.W_OK | os.X_OK
        else:
            if stat.S_ISDIR(st.st_mode):
                raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
            target, mode = path, os.W_OK
        if not os.access(target, mode):
            raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), path)
    except (OSError, ValueError) as exc:
        raise _output_error(path, exc) from exc


class _OverwriteText(io.TextIOWrapper):
    """Text written over the old bytes of a file opened without O_TRUNC.
    Closing it (also by leaving a `with` block on an exception) cuts a
    regular file at the final position, so exactly the text written remains.
    """

    def close(self) -> None:
        try:
            if not self.closed and stat.S_ISREG(os.fstat(self.fileno()).st_mode):
                self.truncate()
        finally:
            super().close()


def open_output(path: str) -> io.TextIOWrapper:
    """Open a run's output file for writing ASCII text. Raise ConfigError,
    naming the path, when it cannot be opened: the path is a run option.

    The file is opened without O_TRUNC (a new one is created with mode 0o666
    under the umask, as by open(path, "w")), with the buffer size and line
    buffering open(path, "w") would pick, written over in place and, when
    closed, truncated at the written length if it is a regular file; a pipe,
    a FIFO, /dev/null or /dev/stdout is never truncated. The bytes left are
    those a truncating open would leave, a symlink is written through and a
    hard link keeps its inode. Truncating a file to zero before the write
    cost about ten times the write of a small CSV on ext4 (auto_da_alloc
    flushes a file replaced that way). Nothing is fsynced: a hard kill after
    the last write and before the close can leave the old file's tail.
    """
    try:
        fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    except (OSError, ValueError) as exc:
        raise _output_error(path, exc) from exc
    binary = open(fd, "wb")
    return _OverwriteText(binary, encoding="ascii", newline="\n", line_buffering=binary.isatty())
