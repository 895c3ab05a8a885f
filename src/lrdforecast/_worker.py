"""A worker interpreter of lrdforecast's pool:
``python -m lrdforecast._worker FD``, where FD is the file descriptor of
the pipe it replies on.

It first writes the realpath of the lrdforecast it imported to FD, then
reads ``(fn, args, items)`` tasks from its standard input and writes
``(True, fn(*args, items))`` or ``(False, exception)`` for each, every
message a length-prefixed pickle (see ``_pool``). It exits at the end of
its input. Its standard output is not a channel of the pool, so what it
prints cannot corrupt the replies. The package never imports this module.
"""

import os
import pickle
import sys
import traceback

import lrdforecast
from lrdforecast._pool import call_shard, read_frame, write_frame


def _sendable(exc: Exception) -> Exception:
    """exc with the worker's traceback as a note, or a RuntimeError with
    its text if exc does not survive pickling."""
    text = "".join(traceback.format_exception(exc))
    try:
        pickle.loads(pickle.dumps(exc))
    except Exception:
        return RuntimeError(f"in an lrdforecast worker:\n{text}")
    if hasattr(exc, "add_note"):
        exc.add_note(f"in an lrdforecast worker:\n{text}")
    return exc


def main() -> None:
    tasks = sys.stdin.buffer.raw
    with os.fdopen(int(sys.argv[1]), "wb", buffering=0) as replies:
        try:
            write_frame(replies, os.path.realpath(lrdforecast.__file__))
            while True:
                try:
                    fn, args, items = read_frame(tasks)
                except EOFError:
                    return
                ok, value = call_shard(fn, args, items)
                write_frame(replies, (ok, value if ok else _sendable(value)))
        except BrokenPipeError:  # the caller is gone
            return


if __name__ == "__main__":
    main()
